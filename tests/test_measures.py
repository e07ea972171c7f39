import math
from functools import partial

import numpy as np
import pytest

from divalg.charts import psd_coord_count, rect_coord_count
from divalg.errors import ConfigurationError, DomainError, RegistryError
from divalg.measures import (
    FACTORS,
    LOG2,
    UHLIG_SVD_ALT,
    FactorInput,
    _vandermonde_log,
    check_spectra,
    factor_log,
    mv_gamma_log,
    stiefel_volume_log,
    tau,
)
from divalg.verify import THEOREMS


class TestTau:
    def test_values(self):
        assert tau(1, 3) == 0.0
        assert tau(2, 3) == -3.0
        assert tau(8, 1) == -4.0
        assert tau(4, 2) == -4.0
        assert tau(2, 0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            tau(3, 1)
        with pytest.raises(DomainError):
            tau(2, -1)


class TestMvGamma:
    def test_scalar_half(self):
        assert mv_gamma_log(1, 1, 0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)

    def test_real_pair(self):
        assert mv_gamma_log(2, 1, 1.0) == pytest.approx(math.log(math.pi), abs=1e-12)

    def test_quaternion_pair(self):
        assert mv_gamma_log(2, 4, 3.0) == pytest.approx(math.log(2 * math.pi**2), abs=1e-12)

    def test_recursion(self):
        for m, beta, a in [(3, 1, 4.0), (4, 2, 5.5), (3, 4, 7.0)]:
            expected = (
                (m - 1) * beta / 2.0 * math.log(math.pi)
                + mv_gamma_log(m - 1, beta, a)
                + math.lgamma(a - (m - 1) * beta / 2.0)
            )
            assert mv_gamma_log(m, beta, a) == pytest.approx(expected, rel=1e-13)

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            mv_gamma_log(3, 2, 2.0)

    def test_empty_product(self):
        assert mv_gamma_log(0, 2, 1.0) == 0.0

    @pytest.mark.parametrize("m,beta,a", [
        (3, 1, math.nan), (3, 1, math.inf), (0, 2, math.nan),  # a non-finite a
        (2, 2, 3e307),  # lgamma overflows
        (2, 1, 2e305),  # each lgamma is finite, their sum is not
    ])
    def test_non_finite_a_or_log_is_a_domain_error(self, m, beta, a):
        with pytest.raises(DomainError):
            mv_gamma_log(m, beta, a)


class TestStiefelVolume:
    def test_circle(self):
        assert stiefel_volume_log(1, 2, 1) == pytest.approx(math.log(2 * math.pi), abs=1e-12)

    def test_sphere(self):
        assert stiefel_volume_log(1, 3, 1) == pytest.approx(math.log(4 * math.pi), abs=1e-12)

    def test_full_frame_product(self):
        # Vol(V_{2,2}) = Vol(V_{1,2}) * Vol(V_{1,1})
        assert stiefel_volume_log(2, 2, 1) == pytest.approx(math.log(4 * math.pi), abs=1e-12)

    def test_unit_phases(self):
        # V_{1,1} over R, C, H: {-1,+1}, the circle, the unit 3-sphere
        assert stiefel_volume_log(1, 1, 1) == pytest.approx(math.log(2.0), abs=1e-12)
        assert stiefel_volume_log(1, 1, 2) == pytest.approx(math.log(2 * math.pi), abs=1e-12)
        assert stiefel_volume_log(1, 1, 4) == pytest.approx(math.log(2 * math.pi**2), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            stiefel_volume_log(3, 2, 1)
        assert stiefel_volume_log(0, 2, 1) == 0.0


class TestDecompositionDensity:
    def test_sd_example(self):
        fi = FactorInput(beta=1, m=2, q=1, lam=(3.0,))
        assert factor_log("SD", fi) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_chol_example(self):
        fi = FactorInput(beta=1, m=2, q=1, t_diag=(3.0,))
        assert factor_log("CHOL", fi) == pytest.approx(math.log(18.0), abs=1e-12)

    def test_svd_polar_example(self):
        fi = FactorInput(beta=1, n=2, m=1, q=1, d=(4.0,))
        assert factor_log("SVD", fi) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_qr_full_rank_real(self):
        # beta=1, n=3, q=m=2: exponents are n-i, i.e. 2 and 1
        fi = FactorInput(beta=1, n=3, m=2, q=2, t_diag=(2.0, 3.0))
        assert factor_log("QR", fi) == pytest.approx(
            2 * math.log(2.0) + 1 * math.log(3.0), abs=1e-12
        )

    def test_svd_vandermonde_and_constant(self):
        fi = FactorInput(beta=2, n=3, m=2, q=2, d=(2.0, 1.0))
        expected = (
            -2 * math.log(2.0)
            + tau(2, 2) * math.log(math.pi)
            + (2 * (3 + 2 - 4 + 1) - 1) * (math.log(2.0) + math.log(1.0))
            + 2 * math.log(4.0 - 1.0)
        )
        assert factor_log("SVD", fi) == pytest.approx(expected, rel=1e-12)

    def test_svd_vandermonde_does_not_overflow(self):
        # d_1^2 - d_2^2 overflows a float; its log, about 400 ln 10, does not
        fi = FactorInput(beta=1, n=2, m=2, q=2, d=(1e200, 1e-200))
        assert factor_log("SVD", fi) == pytest.approx(
            -2 * math.log(2.0) + 400 * math.log(10.0), rel=1e-12
        )

    def test_svd_vandermonde_sum_past_the_float_range(self):
        # d_1 + d_2 overflows a float; log(d_1 + d_2), about 710, does not
        logs = _vandermonde_log(np.array([[1.5e308, 1e308]]), 1.0, squared=True)
        assert logs[0] == pytest.approx(1418.6155608356464, rel=1e-12)

    def test_squared_vandermonde_in_range_is_the_plain_sum_of_logs(self):
        x = -np.sort(-np.random.default_rng(4).uniform(1e-3, 1e3, size=(256, 4)), axis=1)
        iu, ju = np.triu_indices(4, k=1)
        a, b = x[:, iu], x[:, ju]
        expected = 2.0 * (np.log(a - b) + np.log(a + b)).sum(axis=-1)
        np.testing.assert_array_equal(_vandermonde_log(x, 2.0, squared=True), expected)

    def test_unsorted_spectrum_rejected(self):
        with pytest.raises(ConfigurationError):
            FactorInput(beta=1, m=2, q=2, lam=(1.0, 3.0))
        with pytest.raises(ConfigurationError):
            FactorInput(beta=1, m=2, q=2, d=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            FactorInput(beta=1, m=2, q=1, lam=(-3.0,))

    def test_unknown_kind(self):
        with pytest.raises(RegistryError):
            factor_log("LU", FactorInput(beta=1))

    def test_missing_field(self):
        with pytest.raises(ConfigurationError):
            factor_log("SD", FactorInput(beta=1, m=2, q=1))


class TestTransformFactors:
    def test_mp_herm_example(self):
        fi = FactorInput(beta=1, m=2, q=1, lam=(2.0,))
        assert factor_log("MP_HERM", fi) == pytest.approx(-4 * math.log(2.0), abs=1e-12)

    def test_mp_rect_example(self):
        fi = FactorInput(beta=1, n=2, m=1, q=1, d=(1.7,))
        assert factor_log("MP_RECT", fi) == pytest.approx(-4 * math.log(1.7), abs=1e-12)

    def test_congruence_ns_example(self):
        fi = FactorInput(beta=1, m=2, det_b=2.0)
        assert factor_log("CONGRUENCE_NS", fi) == pytest.approx(
            math.log(8.0), abs=1e-12
        )

    def test_uhlig_svd_shape(self):
        fi = FactorInput(beta=2, m=3, n=2, delta=(4.0, 1.0), lam=(3.0, 2.0), det_b=1.5)
        e = 2 * (3 - 2 - 1) / 2.0 + 1.0
        expected = 2 * 2 * math.log(1.5) + e * (
            math.log(4.0) + math.log(1.0) - math.log(3.0) - math.log(2.0)
        )
        assert factor_log("UHLIG_SVD", fi) == pytest.approx(expected, rel=1e-12)

    def test_uhlig_qr_reduces_to_congruence_when_square(self):
        # m = n plus the determinant identity sdet(B)^2 = |T1*T1| / |L1*L1|
        beta, m, det_b, det_l = 2, 3, 1.7, 2.3
        det_t = det_b**2 * det_l
        fi = FactorInput(beta=beta, m=m, n=m, det_b=det_b, det_t1t1=det_t, det_l1l1=det_l)
        lhs = factor_log("UHLIG_QR", fi)
        rhs = factor_log("CONGRUENCE_NS", FactorInput(beta=beta, m=m, det_b=det_b))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_uhlig_mp_scalar_case(self):
        # m = n = 1, beta = 1: b * delta^{1/2} * lam^{-3/2}, which collapses to
        # b^2 / lam^2 when delta = b^2 / lam -- the derivative of x = b^2 / lam
        fi = FactorInput(beta=1, m=1, n=1, delta=(5.0,), lam=(3.0,), det_b=2.0)
        expected = math.log(2.0) + 0.5 * math.log(5.0) - 1.5 * math.log(3.0)
        assert factor_log("UHLIG_MP", fi) == pytest.approx(expected, rel=1e-12)
        collapsed = FactorInput(beta=1, m=1, n=1, delta=(4.0 / 3.0,), lam=(3.0,), det_b=2.0)
        assert factor_log("UHLIG_MP", collapsed) == pytest.approx(
            math.log(4.0 / 9.0), rel=1e-12
        )

    def test_homogeneity_mp_herm(self):
        lam = (3.0, 1.0)
        base = FactorInput(beta=4, m=3, q=2, lam=lam)
        c = 1.7
        scaled = FactorInput(beta=4, m=3, q=2, lam=tuple(c * v for v in lam))
        exponent = 2 * (4 * (-6 + 2 + 1) - 2)
        assert factor_log("MP_HERM", scaled) - factor_log(
            "MP_HERM", base
        ) == pytest.approx(exponent * math.log(c), rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(RegistryError):
            factor_log("mp-herm", FactorInput(beta=1))


class TestCouplingFactors:
    def test_w_scalar_example(self):
        s = 2.4
        fi = FactorInput(beta=1, n=1, m=1, q=1, lam=(s,))
        assert factor_log("W", fi) == pytest.approx(
            math.log(0.5 / math.sqrt(s)), rel=1e-12
        )

    def test_chol_x_example(self):
        fi = FactorInput(beta=2, n=1, m=1, q=1, det_s11=4.0)
        assert factor_log("CHOL_X", fi) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_empty_spectrum(self):
        fi = FactorInput(beta=1, n=3, m=2, q=0, lam=())
        assert factor_log("W", fi) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(RegistryError):
            factor_log("WISHART", FactorInput(beta=1))


def test_uhlig_svd_alternative_matches_primary_when_diagonal():
    # With B = c*I and common eigenvectors, G1* B* H1 has sdet c^n and the
    # spectra are delta = c^2 * lam, so both forms must agree.
    beta, m, n, c = 2, 3, 2, 1.3
    lam = (3.0, 1.0)
    delta = tuple(c * c * v for v in lam)
    fi = FactorInput(
        beta=beta, m=m, n=n, lam=lam, delta=delta, det_b=c**m, det_gbh=c**n
    )
    # det_b = sdet(cI_m) = c^m
    primary = factor_log("UHLIG_SVD", fi)
    alt = factor_log(UHLIG_SVD_ALT, fi)
    assert primary == pytest.approx(alt, rel=1e-12)


def test_check_spectra_raises_factor_input_text_for_the_first_failing_row():
    rows = np.array([[3.0, 2.0], [1.0, 1.0], [-1.0, 2.0], [np.nan, 1.0]])
    for name, first in (("lam", 1), ("t_diag", 2)):
        with pytest.raises(ConfigurationError) as batch:
            check_spectra(name, rows)
        with pytest.raises(ConfigurationError) as alone:
            FactorInput(beta=1, **{name: tuple(rows[first])})
        assert str(batch.value) == str(alone.value)
    check_spectra("t_diag", rows[:2])
    check_spectra("d", rows[:1])


def test_q_zero_edge_cases():
    fi = FactorInput(beta=2, n=3, m=2, q=0, d=(), lam=(), t_diag=())
    assert factor_log("SVD", fi) == 0.0
    assert factor_log("SD", fi) == 0.0
    assert factor_log("QR", fi) == 0.0
    assert factor_log("CHOL", fi) == 0.0


def test_homogeneity_grid():
    rng = np.random.default_rng(5)
    c = 2.1
    for beta in (1, 2, 4):
        for m, n, q in [(3, 3, 2), (4, 2, 2)]:
            lam = tuple(sorted(rng.uniform(0.5, 4.0, size=q), reverse=True))
            scaled = tuple(c * v for v in lam)
            base = FactorInput(beta=beta, m=m, n=n, q=q, lam=lam)
            up = FactorInput(beta=beta, m=m, n=n, q=q, lam=scaled)
            got = factor_log("MP_HERM", up) - factor_log("MP_HERM", base)
            expected = q * (beta * (-2 * m + q + 1) - 2) * math.log(c)
            assert got == pytest.approx(expected, rel=1e-10)


class TestFactorTable:
    def test_one_entry_per_theorem(self):
        assert list(FACTORS) == list(THEOREMS)

    def test_batch_matches_row_by_row_factor_log(self):
        # each entry on (B, k) spectra and (B,) log-determinants equals
        # factor_log on each row, for every theorem and beta
        rng = np.random.default_rng(3)
        sizes = {"m": 4, "n": 3, "q": 2}
        count = 6
        for name, entry in FACTORS.items():
            for beta in (1, 2, 4):
                spectra = {
                    s: -np.sort(-rng.uniform(0.3, 3.0, size=(count, sizes[length])), axis=1)
                    for s, length in entry.spectra.items()
                }
                dets = {d: rng.uniform(0.3, 3.0, size=count) for d in entry.dets}
                got = entry.log(
                    beta, sizes["m"], sizes["n"], sizes["q"],
                    **spectra, **{d: np.log(v) for d, v in dets.items()},
                )
                assert got.shape == (count,)
                expected = [
                    factor_log(name, FactorInput(
                        beta=beta, **sizes,
                        **{s: tuple(v[i]) for s, v in spectra.items()},
                        **{d: float(v[i]) for d, v in dets.items()},
                    ))
                    for i in range(count)
                ]
                np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_spectrum_length_follows_the_declared_size(self):
        # the UHLIG spectra have length n, every other spectrum length q
        fi = FactorInput(beta=1, m=3, n=2, q=1, delta=(2.0, 1.0), lam=(2.0, 1.0), det_b=1.0)
        factor_log("UHLIG_SVD", fi)
        with pytest.raises(ConfigurationError, match="length 1"):
            factor_log("MP_HERM", fi)


# ---------------------------------------------------------------------------
# Dimension count: each entry relates two measures of known chart dimension,
# so doubling its input scales it by 2^degree, the degree fixed by those
# dimensions (Euler's rule for homogeneous maps, through the area formula).
# A spectrum doubles, and a log-determinant of an m x m block gains m log 2.
P, R = psd_coord_count, rect_coord_count  # chart coordinate counts

# entry: (the input that doubles, its degree at (beta, n, m, q))
DEGREES = {
    "SD": ("lam", lambda b, n, m, q: P(m, q, b) - q),
    "SVD": ("d", lambda b, n, m, q: R(n, m, q, b) - q),
    "QR": ("t_diag", lambda b, n, m, q: b * n * q - P(q, q, b)),
    "CHOL": ("t_diag", lambda b, n, m, q: P(m, q, b)),
    "MP_HERM": ("lam", lambda b, n, m, q: -2 * P(m, q, b)),
    "MP_RECT": ("d", lambda b, n, m, q: -2 * R(n, m, q, b)),
    # S = X*X doubles as X is scaled by sqrt 2
    "W": ("lam", lambda b, n, m, q: (R(n, m, q, b) - 2 * P(m, q, b)) / 2),
    "CHOL_X": ("det_s11", lambda b, n, m, q: (b * n * m - 2 * P(m, m, b)) / 2),
    "CONGRUENCE_NS": ("det_b", lambda b, n, m, q: 2 * P(m, m, b)),
}
DEGREE_SIZES = ((2, 2, 1), (3, 2, 1), (3, 2, 2), (3, 3, 2), (4, 3, 2))
# CHOL_X at full rank, where det_s11 is the determinant of all of S
DEGREE_CASES = [
    (name, beta, sizes)
    for beta in (1, 2, 4)
    for name in DEGREES
    for sizes in {
        "CHOL_X": sorted({(n, m, m) for n, m, _ in DEGREE_SIZES}),
        "CONGRUENCE_NS": [(0, 2, 0), (0, 3, 0)],
    }.get(name, DEGREE_SIZES)
]


def _measured_degree(log_f, label: str, x, m: int) -> float:
    """(log f(2x) - log f(x)) / log 2 for the input `label` at x."""
    doubled = x + m * LOG2 if label.startswith("det_") else 2.0 * x
    return float(log_f(**{label: doubled}) - log_f(**{label: x})) / LOG2


def _shape_mutation(log_f, label: str):
    """log_f plus 0.5 times the log-determinant, or 0.5 times the sum of
    the logs of the spectrum."""
    def mutated(**inputs):
        x = inputs[label]
        return log_f(**inputs) + 0.5 * (x if label.startswith("det_") else np.log(x).sum())
    return mutated


@pytest.mark.parametrize("name,beta,sizes", DEGREE_CASES)
def test_factor_scales_with_the_degree_its_dimensions_fix(name, beta, sizes):
    n, m, q = sizes
    label, degree = DEGREES[name]
    rng = np.random.default_rng(17)
    if label.startswith("det_"):
        x = rng.uniform(-1.0, 1.0)
    else:
        x = -np.sort(-rng.uniform(0.5, 3.0, size=q))
    log_f = partial(FACTORS[name].log, beta, m, n, q)
    expected = degree(beta, n, m, q)
    assert _measured_degree(log_f, label, x, m) == pytest.approx(expected, abs=1e-9)
    # the same check flags a shape error in the entry
    mutated = _measured_degree(_shape_mutation(log_f, label), label, x, m)
    assert mutated != pytest.approx(expected, abs=1e-9)
