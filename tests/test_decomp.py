import numpy as np
import pytest

from divalg import COMPLEX, QUATERNION, REAL
from divalg.decomp import (
    _assert_residual,
    cholesky_rank_q,
    eig_hermitian,
    pinv,
    pinv_batch,
    qr_positive,
    svd_rank_q,
)
from divalg.errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    NotPsdError,
    PivotRequiredError,
    RankError,
    UnsupportedAlgebraError,
)
from divalg.linalg import (
    Mat,
    conj_transpose,
    frobenius_norm,
    mat_inv,
    numerical_rank,
)

KINDS = [REAL, COMPLEX, QUATERNION]


def rand_mat(kind, n, m, rng):
    return Mat(kind, rng.normal(size=(n, m, kind.beta)))


def rand_frame(kind, n, q, rng):
    """Random n x q matrix with orthonormal columns."""
    return qr_positive(rand_mat(kind, n, q, rng), q).h1


def diag_mat(kind, values, rows=None, cols=None):
    values = list(values)
    rows = rows or len(values)
    cols = cols or len(values)
    d = np.zeros((rows, cols, kind.beta))
    for i, v in enumerate(values):
        d[i, i, 0] = v
    return Mat(kind, d)


def assemble_eig(w1, lam):
    scaled = Mat(w1.kind, w1.data * np.asarray(lam)[None, :, None])
    return scaled @ conj_transpose(w1)


def assemble_svd(v1, d, w1):
    scaled = Mat(v1.kind, v1.data * np.asarray(d)[None, :, None])
    return scaled @ conj_transpose(w1)


class TestEigHermitian:
    def test_diagonal(self):
        parts = eig_hermitian(diag_mat(REAL, [3.0, 1.0]), 2)
        np.testing.assert_allclose(parts.lam, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(parts.w1.data[:, :, 0], np.eye(2), atol=1e-12)

    def test_rank_one_phase(self):
        w = np.array([1.0, 1.0]) / np.sqrt(2.0)
        s = Mat.from_real(REAL, 2.0 * np.outer(w, w))
        parts = eig_hermitian(s, 1)
        np.testing.assert_allclose(parts.lam, [2.0], atol=1e-12)
        np.testing.assert_allclose(parts.w1.data[:, 0, 0], w, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_round_trip_known_spectrum(self, kind):
        rng = np.random.default_rng(21)
        lam = np.array([5.0, 2.5, 1.0])
        w1 = rand_frame(kind, 4, 3, rng)
        s = assemble_eig(w1, lam)
        parts = eig_hermitian(s, 3)
        np.testing.assert_allclose(parts.lam, lam, atol=1e-9)
        np.testing.assert_allclose(
            assemble_eig(parts.w1, parts.lam).data, s.data, atol=1e-9
        )

    def test_degenerate_spectrum_rejected(self):
        s = diag_mat(COMPLEX, [2.0, 2.0 + 1e-9])
        with pytest.raises(DegenerateSpectrumError):
            eig_hermitian(s, 2)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPsdError):
            eig_hermitian(diag_mat(REAL, [1.0, -1.0]), 1)
        with pytest.raises(NotPsdError):
            eig_hermitian(Mat.from_real(REAL, np.array([[0.0, 1.0], [0.0, 0.0]])), 1)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(RankError):
            eig_hermitian(diag_mat(REAL, [2.0, 1.0]), 1)
        rng = np.random.default_rng(22)
        w1 = rand_frame(COMPLEX, 3, 1, rng)
        with pytest.raises(RankError):
            eig_hermitian(assemble_eig(w1, [2.0]), 2)

    def test_phase_fix_idempotent(self):
        rng = np.random.default_rng(23)
        for kind in KINDS:
            s = assemble_eig(rand_frame(kind, 3, 2, rng), [4.0, 1.0])
            first = eig_hermitian(s, 2)
            again = eig_hermitian(assemble_eig(first.w1, first.lam), 2)
            np.testing.assert_allclose(again.w1.data, first.w1.data, atol=1e-12)
            np.testing.assert_allclose(again.lam, first.lam, atol=1e-12)


class TestSvdRankQ:
    def test_diagonal(self):
        parts = svd_rank_q(diag_mat(REAL, [2.0, 1.0]), 2)
        np.testing.assert_allclose(parts.d, [2.0, 1.0], atol=1e-12)

    def test_column_vector(self):
        x = Mat.from_real(REAL, np.array([[3.0], [4.0]]))
        parts = svd_rank_q(x, 1)
        np.testing.assert_allclose(parts.d, [5.0], atol=1e-12)
        np.testing.assert_allclose(parts.v1.data[:, 0, 0], [0.6, 0.8], atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_d_matches_sqrt_of_gram_eigenvalues(self, kind):
        rng = np.random.default_rng(31)
        x = rand_mat(kind, 4, 3, rng)
        parts = svd_rank_q(x, 3)
        gram = conj_transpose(x) @ x
        lam = eig_hermitian(gram, 3).lam
        np.testing.assert_allclose(parts.d, np.sqrt(lam), atol=1e-9)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_rank_deficient_round_trip(self, kind):
        rng = np.random.default_rng(32)
        d = np.array([3.0, 1.2])
        x = assemble_svd(rand_frame(kind, 5, 2, rng), d, rand_frame(kind, 4, 2, rng))
        parts = svd_rank_q(x, 2)
        np.testing.assert_allclose(parts.d, d, atol=1e-9)
        np.testing.assert_allclose(
            assemble_svd(parts.v1, parts.d, parts.w1).data, x.data, atol=1e-9
        )

    def test_repeated_singular_values_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            svd_rank_q(Mat.eye(COMPLEX, 2), 2)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(RankError):
            svd_rank_q(diag_mat(REAL, [2.0, 1.0]), 1)

    def test_phase_fix_idempotent(self):
        rng = np.random.default_rng(33)
        for kind in KINDS:
            x = assemble_svd(
                rand_frame(kind, 4, 2, rng), [2.0, 0.7], rand_frame(kind, 3, 2, rng)
            )
            first = svd_rank_q(x, 2)
            again = svd_rank_q(assemble_svd(first.v1, first.d, first.w1), 2)
            np.testing.assert_allclose(again.v1.data, first.v1.data, atol=1e-12)
            np.testing.assert_allclose(again.w1.data, first.w1.data, atol=1e-12)
            np.testing.assert_allclose(again.d, first.d, atol=1e-12)


class TestQrPositive:
    def test_unit_column(self):
        x = Mat.from_real(REAL, np.array([[0.0], [5.0]]))
        parts = qr_positive(x, 1)
        np.testing.assert_allclose(parts.t.data[0, 0, 0], 5.0, atol=1e-12)
        np.testing.assert_allclose(parts.h1.data[:, 0, 0], [0.0, 1.0], atol=1e-12)

    def test_round_trip_reproduces_factors(self):
        rng = np.random.default_rng(41)
        for kind in KINDS:
            h1 = rand_frame(kind, 4, 2, rng)
            t = np.zeros((2, 3, kind.beta))
            t[0, 0, 0] = 2.0
            t[1, 1, 0] = 1.5
            t[0, 1] = rng.normal(size=kind.beta)
            t[0, 2] = rng.normal(size=kind.beta)
            t[1, 2] = rng.normal(size=kind.beta)
            x = h1 @ Mat(kind, t)
            parts = qr_positive(x, 2)
            np.testing.assert_allclose(parts.h1.data, h1.data, atol=1e-9)
            np.testing.assert_allclose(parts.t.data, t, atol=1e-9)

    def test_residual_complex_rectangular(self):
        rng = np.random.default_rng(42)
        x = rand_mat(COMPLEX, 3, 2, rng)
        parts = qr_positive(x, 2)
        residual = frobenius_norm(x - parts.h1 @ parts.t)
        assert residual <= 1e-9 * frobenius_norm(x)

    def test_diagonal_positivity_and_orthonormality(self):
        rng = np.random.default_rng(43)
        for kind in KINDS:
            # rank-3 5x4 matrix whose leading columns are independent
            x = rand_mat(kind, 5, 3, rng) @ rand_mat(kind, 3, 4, rng)
            parts = qr_positive(x, 3)
            for i in range(3):
                entry = parts.t.data[i, i]
                assert entry[0] > 0
                np.testing.assert_allclose(entry[1:], 0.0, atol=1e-12)
            gram = conj_transpose(parts.h1) @ parts.h1
            np.testing.assert_allclose(gram.data, Mat.eye(kind, 3).data, atol=1e-10)

    def test_dependent_leading_columns_need_pivot(self):
        x = Mat.from_real(REAL, np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(PivotRequiredError):
            qr_positive(x, 2)


class TestCholeskyRankQ:
    def test_scalar(self):
        t = cholesky_rank_q(Mat.from_real(REAL, np.array([[4.0]])), 1)
        np.testing.assert_allclose(t.data[0, 0, 0], 2.0, atol=1e-12)

    def test_rank_one_wide(self):
        s = Mat.from_real(REAL, np.array([[1.0, 1.0], [1.0, 1.0]]))
        t = cholesky_rank_q(s, 1)
        np.testing.assert_allclose(t.data[:, :, 0], [[1.0, 1.0]], atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_uniqueness_round_trip(self, kind):
        rng = np.random.default_rng(51)
        t0 = np.zeros((2, 4, kind.beta))
        t0[0, 0, 0] = 1.5
        t0[1, 1, 0] = 0.8
        for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]:
            t0[i, j] = rng.normal(size=kind.beta)
        t0m = Mat(kind, t0)
        s = conj_transpose(t0m) @ t0m
        t = cholesky_rank_q(s, 2)
        np.testing.assert_allclose(t.data, t0, atol=1e-9)

    def test_pivot_required(self):
        s = Mat.from_real(REAL, np.array([[0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(PivotRequiredError):
            cholesky_rank_q(s, 1)

    def test_rank_beyond_q_rejected(self):
        with pytest.raises(RankError):
            cholesky_rank_q(Mat.from_real(REAL, np.diag([1.0, 1.0])), 1)


class TestPinv:
    def test_inverse_for_invertible(self):
        rng = np.random.default_rng(61)
        for kind in KINDS:
            a = rand_mat(kind, 3, 3, rng)
            prod = a @ pinv(a)
            np.testing.assert_allclose(prod.data, Mat.eye(kind, 3).data, atol=1e-10)
            np.testing.assert_allclose(pinv(a).data, mat_inv(a).data, atol=1e-9)

    def test_rank_one_vector(self):
        x = Mat.from_real(REAL, np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(pinv(x).data[0, :, 0], [0.12, 0.16], atol=1e-12)

    def test_hermitian_matches_eigen_inverse(self):
        rng = np.random.default_rng(62)
        for kind in KINDS:
            w1 = rand_frame(kind, 4, 2, rng)
            lam = np.array([3.0, 1.0])
            s = assemble_eig(w1, lam)
            expected = assemble_eig(w1, 1.0 / lam)
            np.testing.assert_allclose(pinv(s).data, expected.data, atol=1e-9)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_penrose_conditions(self, kind):
        rng = np.random.default_rng(63)
        x = assemble_svd(
            rand_frame(kind, 4, 2, rng), [2.0, 0.5], rand_frame(kind, 3, 2, rng)
        )
        xp = pinv(x)
        scale = frobenius_norm(x)
        assert frobenius_norm(x @ xp @ x - x) <= 1e-10 * scale
        assert frobenius_norm(xp @ x @ xp - xp) <= 1e-10 * frobenius_norm(xp)
        for prod in (x @ xp, xp @ x):
            assert frobenius_norm(prod - conj_transpose(prod)) <= 1e-10

    def test_double_pinv_returns_original(self):
        rng = np.random.default_rng(64)
        x = assemble_svd(
            rand_frame(COMPLEX, 4, 2, rng), [2.0, 0.5], rand_frame(COMPLEX, 3, 2, rng)
        )
        np.testing.assert_allclose(pinv(pinv(x)).data, x.data, atol=1e-9)

    def test_zero_matrix(self):
        z = pinv(Mat.zeros(COMPLEX, 2, 3))
        assert z.shape == (3, 2)
        assert frobenius_norm(z) == 0.0


class TestPinvBatch:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_matches_per_matrix_inverse_across_ranks(self, kind):
        rng = np.random.default_rng(65)
        members = [Mat.zeros(kind, 4, 3)]
        for d in ([2.5], [2.0, 0.5], [3.0, 1.5, 0.4]):
            members.append(
                assemble_svd(rand_frame(kind, 4, len(d), rng), d,
                             rand_frame(kind, 3, len(d), rng))
            )
        batch = pinv_batch(np.stack([x.data for x in members]), kind.beta)
        assert batch.shape == (4, 3, 4, kind.beta)
        assert np.all(batch[0] == 0.0)
        for x, got in zip(members, batch):
            np.testing.assert_allclose(got, pinv(x).data, atol=1e-12)
            if frobenius_norm(x) == 0.0:
                continue
            # independent oracle: W1 diag(1/d) V1* from the algebra SVD
            parts = svd_rank_q(x, numerical_rank(x))
            scaled = Mat(kind, parts.w1.data / parts.d[None, :, None])
            np.testing.assert_allclose(
                got, (scaled @ conj_transpose(parts.v1)).data, atol=1e-10
            )

    def test_one_degenerate_member_raises(self):
        rng = np.random.default_rng(66)
        good = assemble_svd(rand_frame(COMPLEX, 3, 2, rng), [2.0, 1.0],
                            rand_frame(COMPLEX, 3, 2, rng))
        tied = assemble_svd(rand_frame(COMPLEX, 3, 2, rng), [1.5, 1.5],
                            rand_frame(COMPLEX, 3, 2, rng))
        pinv_batch(np.stack([good.data, good.data]), 2)
        with pytest.raises(DegenerateSpectrumError):
            pinv_batch(np.stack([good.data, tied.data, good.data]), 2)

    def test_rank_thresholds_must_agree(self):
        # rank 2 at 1e-10 but rank 1 at 1e-8
        x = diag_mat(REAL, [1.0, 1e-9])
        with pytest.raises(RankError):
            pinv_batch(np.stack([diag_mat(REAL, [2.0, 1.0]).data, x.data]), 1)

    def test_octonion_rejected(self):
        with pytest.raises(UnsupportedAlgebraError):
            pinv_batch(np.ones((1, 2, 2, 8)), 8)


def test_octonion_rejected():
    from divalg import OCTONION

    rng = np.random.default_rng(71)
    o = Mat(OCTONION, rng.normal(size=(2, 2, 8)))
    s = o + conj_transpose(o)
    for fn in (lambda: eig_hermitian(s, 1), lambda: svd_rank_q(o, 1),
               lambda: qr_positive(o, 1), lambda: cholesky_rank_q(s, 1), lambda: pinv(o)):
        with pytest.raises(UnsupportedAlgebraError):
            fn()


def test_round_trip_grid():
    rng = np.random.default_rng(81)
    for kind in KINDS:
        for n, m, q in [(2, 2, 1), (3, 2, 2), (4, 5, 3), (5, 3, 2)]:
            d = np.sort(rng.uniform(0.5, 3.0, size=q))[::-1]
            d += 0.3 * np.arange(q)[::-1]  # keep gaps well clear of tolerance
            x = assemble_svd(rand_frame(kind, n, q, rng), d, rand_frame(kind, m, q, rng))
            parts = svd_rank_q(x, q)
            residual = frobenius_norm(x - assemble_svd(parts.v1, parts.d, parts.w1))
            assert residual <= 1e-8 * frobenius_norm(x)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_residual_check_fails_at_any_scale(scale):
    """A 50% residual is caught near 1e+-200 too, where the plain norms
    overflow to NaN or underflow to 0."""
    x = np.random.default_rng(31).normal(size=(2, 3, 2)) * scale
    with pytest.raises(InternalConsistencyError, match="SVD residual"):
        _assert_residual(x, 1.5 * x, "SVD")
    _assert_residual(x, x, "SVD")
