import math

import numpy as np
import pytest

from divalg import COMPLEX, OCTONION, QUATERNION, REAL, charts, verify
from divalg.charts import (
    ChartSpec,
    assemble_sd_batch,
    assemble_svd_batch,
    chart_at,
    choose_pivot,
    factorized_draw,
    factorized_mass_log,
    hausdorff_density_log_batch,
    psd_coord_count,
    rect_coord_count,
    sample_stiefel_batch,
    sd_density_log_batch,
    svd_density_log_batch,
)
from divalg.decomp import eig_hermitian, qr_positive
from divalg.errors import (
    ConfigurationError,
    NotPsdError,
    RankError,
    RegistryError,
    ShapeMismatchError,
    SingularBlockError,
    UnsupportedAlgebraError,
)
from divalg.linalg import Mat, conj_transpose, ct_raw, mul_raw, numerical_rank
from divalg.measures import FactorInput, decomposition_density_log, stiefel_volume_log

KINDS = [REAL, COMPLEX, QUATERNION]


def rand_mat(kind, n, m, rng):
    return Mat(kind, rng.normal(size=(n, m, kind.beta)))


def rand_rank_q(kind, n, m, q, rng):
    return rand_mat(kind, n, q, rng) @ rand_mat(kind, q, m, rng)


def _complete(spec, coords):
    """The matrix of one chart point."""
    return Mat(spec.kind, spec.complete_batch(np.asarray(coords, dtype=float)[None])[0])


def _density(spec, coords):
    """sqrt det(G^T G) at one chart point."""
    return float(np.exp(hausdorff_density_log_batch(spec, coords[None])[0]))


def _psd_coords(s11, s12):
    """psd chart coordinates of the blocks S11 (q x q, Hermitian) and S12:
    the q real diagonals, the entries above the diagonal, then S12."""
    q = s11.shape[0]
    parts = [s11[np.arange(q), np.arange(q), 0]]
    parts += [s11[i, j] for i in range(q) for j in range(i + 1, q)]
    parts.append(s12.ravel())
    return np.concatenate(parts)


class TestCompletion:
    def test_rect_example(self):
        spec = ChartSpec("rect", REAL, (2, 2, 1), ((0, 1), (0, 1)))
        x = _complete(spec, [2.0, 3.0, 4.0])
        assert x.data[1, 1, 0] == pytest.approx(6.0, abs=1e-12)

    def test_rect_full_rank_no_completion(self):
        rng = np.random.default_rng(0)
        a = rand_mat(COMPLEX, 3, 2, rng)
        spec, coords = chart_at(a, 2, "rect", ((0, 1, 2), (0, 1)))
        np.testing.assert_allclose(_complete(spec, coords).data, a.data, atol=1e-12)

    def test_rect_rank_property(self):
        rng = np.random.default_rng(1)
        for kind in KINDS:
            for _ in range(10):
                n, m, q = 4, 3, 2
                spec = ChartSpec(
                    "rect", kind, (n, m, q),
                    (tuple(rng.permutation(n)), tuple(rng.permutation(m))),
                )
                x11, x12, x21 = (
                    rng.normal(size=(q, q, kind.beta)),
                    rng.normal(size=(q, m - q, kind.beta)),
                    rng.normal(size=(n - q, q, kind.beta)),
                )
                coords = np.concatenate([x11.ravel(), x12.ravel(), x21.ravel()])
                assert numerical_rank(_complete(spec, coords)) == q
                np.testing.assert_array_equal(spec.leading_block(coords[None])[0], x11)

    def test_rect_singular_block_rejected(self):
        spec = ChartSpec("rect", REAL, (2, 2, 1), ((0, 1), (0, 1)))
        with pytest.raises(SingularBlockError):
            _complete(spec, [0.0, 3.0, 4.0])

    def test_psd_example(self):
        spec = ChartSpec("psd", REAL, (2, 1), (0, 1))
        s = _complete(spec, [1.0, 2.0])
        assert s.data[1, 1, 0] == pytest.approx(4.0, abs=1e-12)

    def test_psd_full_rank_returns_s11(self):
        rng = np.random.default_rng(2)
        a = rand_mat(QUATERNION, 2, 2, rng)
        s = a @ conj_transpose(a)
        spec, coords = chart_at(s, 2, "psd", (0, 1))
        np.testing.assert_allclose(_complete(spec, coords).data, s.data, atol=1e-10)

    def test_psd_rank_property(self):
        rng = np.random.default_rng(3)
        for kind in KINDS:
            m, q = 4, 2
            base = rand_mat(kind, q, q, rng)
            s11m = base @ conj_transpose(base) + 0.5 * Mat.eye(kind, q)
            spec = ChartSpec("psd", kind, (m, q), tuple(rng.permutation(m)))
            coords = _psd_coords(s11m.data, rng.normal(size=(q, m - q, kind.beta)))
            s = _complete(spec, coords)
            parts = eig_hermitian(s, q)
            assert parts.lam.size == q
            assert numerical_rank(s) == q
            np.testing.assert_allclose(
                spec.leading_block(coords[None])[0], s11m.data, rtol=0, atol=1e-14
            )

    def test_psd_not_pd_rejected(self):
        spec = ChartSpec("psd", REAL, (2, 1), (0, 1))
        with pytest.raises(NotPsdError):
            _complete(spec, [-1.0, 2.0])


class TestChartSpecValidation:
    def test_non_permutation_pivot_rejected(self):
        # a repeated row pivot used to complete to [[4, 6], [0, 0]] silently
        with pytest.raises(ShapeMismatchError):
            ChartSpec("rect", REAL, (2, 2, 1), ((0, 0), (0, 1)))
        with pytest.raises(ShapeMismatchError):
            ChartSpec("rect", REAL, (2, 3, 1), ((0, 1), (0, 1)))
        with pytest.raises(ShapeMismatchError):
            ChartSpec("rect", REAL, (2, 2, 1), (0, 1))
        with pytest.raises(ShapeMismatchError):
            ChartSpec("psd", REAL, (3, 1), (0, 1, 1))
        with pytest.raises(ShapeMismatchError):
            ChartSpec("tri", REAL, (1, 2), (0, 1))

    def test_rank_out_of_range_rejected(self):
        # q = 5 on a 2 x 2 psd chart used to fail later with an IndexError
        with pytest.raises(RankError):
            ChartSpec("psd", REAL, (2, 5), (0, 1))
        with pytest.raises(RankError):
            ChartSpec("psd", REAL, (2, 0), (0, 1))
        with pytest.raises(RankError):
            ChartSpec("rect", COMPLEX, (3, 2, 3), ((0, 1, 2), (0, 1)))
        with pytest.raises(RankError):
            ChartSpec("tri", REAL, (3, 2))

    def test_octonion_rejected(self):
        with pytest.raises(UnsupportedAlgebraError):
            ChartSpec("psd", OCTONION, (2, 1), (0, 1))
        with pytest.raises(UnsupportedAlgebraError):
            ChartSpec("tri", OCTONION, (1, 2))

    def test_bad_space_and_sizes_rejected(self):
        with pytest.raises(RegistryError):
            ChartSpec("band", REAL, (2, 1), (0, 1))
        with pytest.raises(ShapeMismatchError):
            ChartSpec("rect", REAL, (2, 2), ((0, 1), (0, 1)))
        with pytest.raises(RegistryError):
            ChartSpec("tri", REAL, (1, 2)).leading_block(np.ones((1, 2)))

    def test_sizes_and_pivots_are_int_tuples(self):
        spec = ChartSpec("psd", REAL, np.array([3, 1]), np.array([2, 0, 1]))
        assert spec.sizes == (3, 1) and spec.pivots == (2, 0, 1)
        assert all(type(v) is int for v in spec.sizes + spec.pivots)
        assert spec == ChartSpec("psd", REAL, (3, 1), (2, 0, 1))


class TestExtract:
    def test_round_trip_rect(self):
        rng = np.random.default_rng(4)
        for kind in KINDS:
            x = rand_rank_q(kind, 4, 3, 2, rng)
            spec, coords = chart_at(x, 2, "rect")
            back = _complete(spec, coords)
            np.testing.assert_allclose(back.data, x.data, atol=1e-9)
            spec2, coords2 = chart_at(back, 2, "rect", spec.pivots)
            assert spec2 == spec
            np.testing.assert_allclose(coords2, coords, atol=1e-10)

    def test_round_trip_psd(self):
        rng = np.random.default_rng(5)
        for kind in KINDS:
            base = rand_rank_q(kind, 4, 4, 2, rng)
            s = base @ conj_transpose(base)
            spec, coords = chart_at(s, 2, "psd")
            back = _complete(spec, coords)
            np.testing.assert_allclose(back.data, s.data, atol=1e-9)
            spec2, coords2 = chart_at(back, 2, "psd", spec.pivots)
            assert spec2 == spec
            np.testing.assert_allclose(coords2, coords, atol=1e-10)

    def test_full_rank_square_coords_are_whole_matrix(self):
        rng = np.random.default_rng(6)
        a = rand_mat(COMPLEX, 2, 2, rng)
        _, coords = chart_at(a, 2, "rect", ((0, 1), (0, 1)))
        np.testing.assert_allclose(
            coords, a.data[np.ix_((0, 1), (0, 1))].ravel(), atol=1e-12
        )

    def test_wrong_rank_rejected(self):
        rng = np.random.default_rng(8)
        a = rand_mat(REAL, 3, 3, rng)
        with pytest.raises(RankError):
            chart_at(a, 1, "rect")
        # given pivots skip choose_pivot's own rank check; completion catches it
        with pytest.raises(RankError):
            chart_at(a, 1, "rect", ((0, 1, 2), (0, 1, 2)))
        with pytest.raises(RankError):
            chart_at(a @ conj_transpose(a), 1, "psd", (0, 1, 2))

    def test_chart_at_checks_its_arguments(self):
        rng = np.random.default_rng(7)
        x = rand_rank_q(REAL, 3, 2, 1, rng)
        with pytest.raises(RegistryError):
            chart_at(x, 1, "tri")
        with pytest.raises(ShapeMismatchError):
            chart_at(x, 1, "psd", (0, 1, 2))
        with pytest.raises(ShapeMismatchError):
            chart_at(x, 1, "rect", ((0, 0, 1), (0, 1)))


class TestChoosePivot:
    def test_dominant_leading_block_identity(self):
        a = Mat.from_real(REAL, np.array([[4.0, 1.0], [1.0, 2.0]]))
        rows, cols = choose_pivot(a, 1, chart="rect")
        assert rows == (0, 1) and cols == (0, 1)
        assert choose_pivot(a, 1, chart="psd") == (0, 1)

    def test_offdiagonal_unit_swapped(self):
        a = Mat.from_real(REAL, np.array([[0.0, 1.0], [1.0, 0.0]]))
        rows, cols = choose_pivot(a, 1, chart="rect")
        assert rows == (0, 1) and cols == (1, 0)

    def test_rank_deficit_detected(self):
        a = Mat.from_real(REAL, np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(RankError):
            choose_pivot(a, 2, chart="rect")

    def test_psd_diagonal_pivot(self):
        a = Mat.from_real(REAL, np.array([[1.0, 0.0], [0.0, 5.0]]))
        assert choose_pivot(a, 1, chart="psd") == (1, 0)

    def test_pivoted_extraction_handles_zero_leading_entry(self):
        v = np.array([[0.0], [1.0], [2.0]])
        s = Mat.from_real(REAL, v @ v.T)
        spec, coords = chart_at(s, 1, "psd")
        assert spec.pivots[0] == 2  # largest diagonal first
        np.testing.assert_allclose(_complete(spec, coords).data, s.data, atol=1e-12)


def _fd_density_log(spec, coords, step=1e-5):
    """Oracle for the exact density: log sqrt(det G^T G) with G the central
    differences of the chart's completion, 2k completions per batch."""
    b, k = coords.shape
    h = np.maximum(step, step * np.abs(coords))
    columns = []
    for i in range(k):
        e = np.zeros_like(coords)
        e[:, i] = h[:, i]
        fp = spec.complete_batch(coords + e).reshape(b, -1)
        fm = spec.complete_batch(coords - e).reshape(b, -1)
        columns.append((fp - fm) / (2.0 * h[:, i])[:, None])
    g = np.stack(columns, axis=-1)
    sign, logdet = np.linalg.slogdet(np.swapaxes(g, -1, -2) @ g)
    assert np.all(sign > 0.0)
    return 0.5 * logdet


def _reversed_chart(space, kind, sizes):
    """A chart whose pivots reverse every index, so none is the identity."""
    if space == "psd":
        return ChartSpec(space, kind, sizes, tuple(range(sizes[0]))[::-1])
    n, m, _ = sizes
    return ChartSpec(space, kind, sizes, (tuple(range(n))[::-1], tuple(range(m))[::-1]))


def _well_conditioned_coords(spec, rng, rows):
    """Chart coordinates whose X11 (or S11) block is 3 I plus noise: the FD
    oracle's error grows as that block nears singularity."""
    q, beta = spec.sizes[-1], spec.kind.beta
    if spec.space == "psd":
        coords = 0.3 * rng.normal(size=(rows, spec.coord_count()))
        coords[:, :q] += 3.0
    else:
        coords = rng.normal(size=(rows, spec.coord_count()))
        coords[:, [(i * q + i) * beta for i in range(q)]] += 3.0
    return coords


class TestHausdorffDensity:
    def test_exact_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        cases = [("rect", s) for s in [(2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 2)]]
        cases += [("psd", s) for s in [(2, 1), (3, 2), (4, 2)]]
        for kind in KINDS:
            for space, sizes in cases:
                spec = _reversed_chart(space, kind, sizes)
                coords = _well_conditioned_coords(spec, rng, 16)
                np.testing.assert_allclose(
                    hausdorff_density_log_batch(spec, coords),
                    _fd_density_log(spec, coords),
                    rtol=1e-8, err_msg=str(spec),
                )

    def test_full_rank_charts_are_constants(self):
        # a full-rank rect chart permutes coordinates; a full-rank psd chart
        # writes each off-diagonal coordinate twice
        rng = np.random.default_rng(21)
        for kind in KINDS:
            for sizes in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 1, 1)]:
                spec = _reversed_chart("rect", kind, sizes)
                coords = rng.normal(size=(8, spec.coord_count()))
                assert np.all(hausdorff_density_log_batch(spec, coords) == 0.0)
                with pytest.raises(ShapeMismatchError):
                    hausdorff_density_log_batch(spec, coords[:, 1:])
            for q in (1, 2, 3):
                spec = _reversed_chart("psd", kind, (q, q))
                coords = rng.normal(size=(8, spec.coord_count()))
                expected = (kind.beta * q * (q - 1) / 4) * math.log(2.0)
                assert np.all(hausdorff_density_log_batch(spec, coords) == expected)
                with pytest.raises(ShapeMismatchError):
                    hausdorff_density_log_batch(spec, coords[:, 1:])

    def test_block_checks_reject_a_bad_row(self):
        rect = ChartSpec("rect", REAL, (2, 2, 1), ((0, 1), (0, 1)))
        with pytest.raises(SingularBlockError):
            hausdorff_density_log_batch(rect, np.array([[2.0, 3.0, 4.0], [0.0, 3.0, 4.0]]))
        psd = ChartSpec("psd", REAL, (2, 1), (0, 1))
        with pytest.raises(NotPsdError):
            hausdorff_density_log_batch(psd, np.array([[1.0, 2.0], [-1.0, 2.0]]))

    def test_no_completion_and_one_block_inverse(self, monkeypatch):
        """A rank-q chart inverts its leading block once per call, a full-rank
        chart not at all, and neither completes a matrix."""
        counts = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            ChartSpec, "complete_batch", counting("complete_batch", ChartSpec.complete_batch)
        )
        for name in ("_inv_general_block", "_inv_hermitian_block"):
            monkeypatch.setattr(charts, name, counting(name, getattr(charts, name)))
        rng = np.random.default_rng(22)
        for space, sizes, expected in [
            ("rect", (3, 2, 1), {"_inv_general_block": 1}),
            ("psd", (3, 2), {"_inv_hermitian_block": 1}),
            ("rect", (3, 2, 2), {}),
            ("psd", (2, 2), {}),
        ]:
            spec = _reversed_chart(space, COMPLEX, sizes)
            coords = _well_conditioned_coords(spec, rng, 64)
            counts.clear()
            hausdorff_density_log_batch(spec, coords)
            assert counts == expected, spec

    def test_full_rank_rect_is_one(self):
        rng = np.random.default_rng(10)
        for kind in KINDS:
            a = rand_mat(kind, 2, 3, rng)
            spec, coords = chart_at(a, 2, "rect", ((0, 1), (0, 1, 2)))
            assert _density(spec, coords) == pytest.approx(1.0, rel=1e-8)

    def test_psd_closed_form(self):
        spec = ChartSpec("psd", REAL, (2, 1), (0, 1))
        for s11, s12 in [(1.0, 0.0), (1.3, 0.7), (0.8, -1.1)]:
            g1 = -((s12 / s11) ** 2)
            g2 = 2 * s12 / s11
            expected = math.sqrt(2.0 + 2.0 * g1 * g1 + g2 * g2)
            assert _density(spec, np.array([s11, s12])) == pytest.approx(expected, rel=1e-7)

    def test_invariant_under_symmetric_relabeling(self):
        # permuting the ambient basis is an orthogonal map, so the density of
        # the correspondingly pivoted chart must be identical
        rng = np.random.default_rng(11)
        base = rand_rank_q(COMPLEX, 4, 4, 2, rng)
        s = base @ conj_transpose(base)
        spec, coords = chart_at(s, 2, "psd")
        perm = np.array([2, 0, 3, 1])
        s_rot = Mat(COMPLEX, s.data[np.ix_(perm, perm)])
        inv = tuple(int(np.argwhere(perm == spec.pivots[i])[0, 0]) for i in range(4))
        spec_rot, coords_rot = chart_at(s_rot, 2, "psd", inv)
        np.testing.assert_allclose(coords_rot, coords, atol=1e-12)
        assert _density(spec_rot, coords_rot) == pytest.approx(_density(spec, coords), rel=1e-8)


class TestStiefelSampling:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(12)
        for kind in KINDS:
            h = Mat(kind, sample_stiefel_batch(4, 2, kind, rng, 1)[0])
            gram = conj_transpose(h) @ h
            np.testing.assert_allclose(gram.data, Mat.eye(kind, 2).data, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_degenerate_first_draw_is_redrawn(self, kind):
        class ZeroColumnFirst:
            """Normal draws, except that frame 1 of the first draw has a
            zero second column."""

            def __init__(self):
                self.rng = np.random.default_rng(15)
                self.calls = []

            def standard_normal(self, size):
                self.calls.append(size)
                out = self.rng.standard_normal(size)
                if len(self.calls) == 1:
                    out[1, :, 1, :] = 0.0
                return out

        rng = ZeroColumnFirst()
        frames = sample_stiefel_batch(4, 2, kind, rng, 3)
        assert rng.calls == [(3, 4, 2, kind.beta), (1, 4, 2, kind.beta)]
        assert frames.shape == (3, 4, 2, kind.beta)
        gram = mul_raw(ct_raw(frames), frames, kind.beta)
        eye = np.broadcast_to(Mat.eye(kind, 2).data, gram.shape)
        np.testing.assert_allclose(gram, eye, atol=1e-10)

    def test_coordinate_exchangeability(self):
        rng = np.random.default_rng(13)
        n, draws = 3, 20000
        frames = sample_stiefel_batch(n, 2, COMPLEX, rng, draws)
        sq = np.sum(frames[:, 0, 0, :] ** 2, axis=1)
        se = sq.std(ddof=1) / math.sqrt(draws)
        assert abs(sq.mean() - 1.0 / n) <= 3 * se

    def test_left_invariance_ks(self):
        rng = np.random.default_rng(14)
        n, q, draws = 3, 2, 4000
        u = qr_positive(rand_mat(COMPLEX, n, n, np.random.default_rng(99)), n).h1
        a = sample_stiefel_batch(n, q, COMPLEX, rng, draws)
        b = sample_stiefel_batch(n, q, COMPLEX, rng, draws)
        rotated = mul_raw(np.broadcast_to(u.data, (draws, n, n, 2)), b, 2)
        x = np.sort(a[:, 0, 0, 0])
        y = np.sort(rotated[:, 0, 0, 0])
        grid = np.concatenate([x, y])
        cdf_x = np.searchsorted(x, grid, side="right") / draws
        cdf_y = np.searchsorted(y, grid, side="right") / draws
        d_stat = np.abs(cdf_x - cdf_y).max()
        # two-sample KS critical value at alpha = 0.01
        d_crit = 1.628 * math.sqrt(2.0 / draws)
        assert d_stat <= d_crit


def _sd_draws(kind, m, q, box, gap, rng, count):
    """Spectral-decomposition draws from the factorized sampler, weighted as
    the engines weigh them: (matrices, log-weights, log-mass)."""
    lam, (w1,) = factorized_draw(rng, box, q, (m,), kind, count)
    logw = sd_density_log_batch(lam, kind.beta, m)
    ok = verify._in_box_gap(lam, box[0], box[1], gap)
    const = factorized_mass_log(box, q, (m,), kind.beta)
    return assemble_sd_batch(w1, lam, kind.beta), np.where(ok, logw, -np.inf), const


class TestFactorizedSampling:
    def test_sd_scalar_matches_quadrature(self):
        # m = q = 1: the weighted average over the factorized measure must
        # reproduce the plain integral of f over the eigenvalue box
        for kind in (REAL, COMPLEX):
            rng = np.random.default_rng(15)
            data, logw, const = _sd_draws(kind, 1, 1, (1.0, 2.0), 1e-3, rng, 40000)
            f = data[:, 0, 0, 0] ** 2
            vals = f * np.exp(logw + const)
            est = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(est - 7.0 / 3.0) <= max(3 * se, 1e-3)

    def test_sd_round_trip(self):
        rng = np.random.default_rng(16)
        for kind in KINDS:
            data, logw, _ = _sd_draws(kind, 3, 2, (1.0, 2.0), 1e-2, rng, 256)
            i = int(np.nonzero(np.isfinite(logw))[0][0])
            parts = eig_hermitian(Mat(kind, data[i]), 2)
            assert np.all((parts.lam >= 0.99) & (parts.lam <= 2.01))

    def test_svd_plane_integral(self):
        # n=2, m=1, q=1, beta=1: the factorized measure with its Stiefel
        # masses integrates f over the annulus 1 <= |x| <= 2 in the plane
        rng = np.random.default_rng(17)
        d, (v1, w1) = factorized_draw(rng, (1.0, 2.0), 1, (2, 1), REAL, 40000)
        data = assemble_svd_batch(v1, d, w1, 1)
        logw = svd_density_log_batch(d, 1, 2, 1)
        const = factorized_mass_log((1.0, 2.0), 1, (2, 1), 1)
        r2 = np.sum(data[:, :, 0, 0] ** 2, axis=1)
        vals = np.exp(-r2) * np.exp(logw + const)
        est = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        expected = math.pi * (math.exp(-1.0) - math.exp(-4.0))
        assert abs(est - expected) <= 3 * se

    def test_gap_rejection_gives_zero_weight(self):
        rng = np.random.default_rng(18)
        data, logw, _ = _sd_draws(REAL, 2, 2, (1.0, 1.01), 0.5, rng, 32)
        assert np.all(np.isinf(logw) & (logw < 0))
        assert data.shape == (32, 2, 2, 1)
        with pytest.raises(ConfigurationError):
            verify._reference_samples(
                lambda rng, count: _sd_draws(REAL, 2, 2, (1.0, 1.01), 0.5, rng, count)[:2],
                seed=0, task_code=2,
            )

    def test_single_draw_api(self):
        rng = np.random.default_rng(19)
        d, frames = factorized_draw(rng, (1.0, 2.0), 2, (3, 2), QUATERNION, 1)
        assert d.shape == (1, 2) and d[0, 0] >= d[0, 1]
        assert [f.shape for f in frames] == [(1, 3, 2, 4), (1, 2, 2, 4)]
        assert isinstance(factorized_mass_log((1.0, 2.0), 2, (3, 2), 4), float)

    def test_draw_order_and_mass_order_follow_dims(self):
        # spectrum first, then one frame per dimension in the order given;
        # the mass adds the Stiefel volumes in that same order
        box, q, dims = (1.0, 2.0), 2, (3, 2)
        spec, frames = factorized_draw(np.random.default_rng(23), box, q, dims, COMPLEX, 5)
        rng = np.random.default_rng(23)
        x = rng.uniform(1.0, 2.0, size=(5, q))
        x.sort(axis=1)
        np.testing.assert_array_equal(spec, x[:, ::-1])
        for d, frame in zip(dims, frames):
            np.testing.assert_array_equal(frame, sample_stiefel_batch(d, q, COMPLEX, rng, 5))
        expected = (
            q * math.log(1.0) - math.lgamma(q + 1)
            + stiefel_volume_log(q, 3, 2) + stiefel_volume_log(q, 2, 2)
        )
        assert factorized_mass_log(box, q, dims, 2) == expected

    def test_batch_density_matches_measures(self):
        lam = np.array([[2.0, 1.0], [1.7, 0.4]])
        for beta, kind in ((1, REAL), (2, COMPLEX), (4, QUATERNION)):
            got = sd_density_log_batch(lam, beta, 3)
            expected = [
                decomposition_density_log(
                    "SD", FactorInput(beta=beta, m=3, q=2, lam=tuple(row))
                )
                for row in lam
            ]
            np.testing.assert_allclose(got, expected, rtol=1e-12)
            got_svd = svd_density_log_batch(lam, beta, 4, 3)
            expected_svd = [
                decomposition_density_log(
                    "SVD", FactorInput(beta=beta, n=4, m=3, q=2, d=tuple(row))
                )
                for row in lam
            ]
            np.testing.assert_allclose(got_svd, expected_svd, rtol=1e-12)

    def test_bad_box_rejected(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ConfigurationError):
            factorized_draw(rng, (2.0, 1.0), 1, (2,), REAL, 1)


def test_coordinate_counts():
    assert rect_coord_count(3, 2, 1, 2) == (3 + 2 - 1) * 2
    assert psd_coord_count(3, 2, 4) == 2 + 4 * 1 + 4 * 2
    rng = np.random.default_rng(21)
    for kind in KINDS:
        x = rand_rank_q(kind, 4, 3, 2, rng)
        spec, coords = chart_at(x, 2, "rect")
        assert coords.shape == (rect_coord_count(4, 3, 2, kind.beta),) == (spec.coord_count(),)
        s = x @ conj_transpose(x)
        spec, coords = chart_at(s, 2, "psd")
        assert coords.shape == (psd_coord_count(4, 2, kind.beta),) == (spec.coord_count(),)

