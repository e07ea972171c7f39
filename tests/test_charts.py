import dataclasses
import math
import warnings

import numpy as np
import pytest

from divalg import COMPLEX, OCTONION, QUATERNION, REAL, charts, linalg, verify
from divalg.charts import (
    ChartSpec,
    assemble,
    chart_at_batch,
    choose_pivot,
    factorized_draw,
    factorized_mass_log,
    hausdorff_density_log_batch,
    psd_coord_count,
    rect_coord_count,
    sample_stiefel_batch,
)
from divalg.decomp import eig_hermitian, gram_schmidt_batch, pinv_batch, qr_positive
from divalg.errors import (
    ConfigurationError,
    NotPsdError,
    RankError,
    RegistryError,
    ShapeMismatchError,
    SingularBlockError,
    UnsupportedAlgebraError,
)
from divalg.linalg import Mat, _abs_raw, conj_transpose, ct_raw, mul_raw, numerical_rank
from divalg.measures import FACTORS, stiefel_volume_log

KINDS = [REAL, COMPLEX, QUATERNION]


def rand_mat(kind, n, m, rng):
    return Mat(kind, rng.normal(size=(n, m, kind.beta)))


def rand_rank_q(kind, n, m, q, rng):
    return rand_mat(kind, n, q, rng) @ rand_mat(kind, q, m, rng)


def _per_row(pivots):
    """One point's pivot pair (row_pivot, col_pivot) as the per-row arrays
    of a batch of one; None stays None."""
    return None if pivots is None else tuple(np.asarray(p)[None] for p in pivots)


def _at(a, q, space, pivots=None):
    """chart_at_batch on the batch of the one matrix a, with its one pivot
    pair when given: (spec, per-row pivots, coords (k,))."""
    spec, piv, coords = chart_at_batch(a.data[None], q, space, _per_row(pivots))
    return spec, piv, coords[0]


def _complete(spec, coords, pivots=None):
    """The matrix of one chart point, in its pivoted chart when given the
    per-row pivots of a batch of one."""
    return Mat(spec.kind, spec.complete_batch(np.asarray(coords, dtype=float)[None], pivots)[0])


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
        spec = ChartSpec("rect", REAL, (2, 2, 1))
        x = _complete(spec, [2.0, 3.0, 4.0])
        assert x.data[1, 1, 0] == pytest.approx(6.0, abs=1e-12)

    def test_rect_full_rank_no_completion(self):
        rng = np.random.default_rng(0)
        a = rand_mat(COMPLEX, 3, 2, rng)
        spec, piv, coords = _at(a, 2, "rect", ((0, 1, 2), (0, 1)))
        np.testing.assert_allclose(_complete(spec, coords, piv).data, a.data, atol=1e-12)

    def test_rect_rank_property(self):
        rng = np.random.default_rng(1)
        for kind in KINDS:
            for _ in range(10):
                n, m, q = 4, 3, 2
                spec = ChartSpec("rect", kind, (n, m, q))
                piv = _per_row((rng.permutation(n), rng.permutation(m)))
                x11, x12, x21 = (
                    rng.normal(size=(q, q, kind.beta)),
                    rng.normal(size=(q, m - q, kind.beta)),
                    rng.normal(size=(n - q, q, kind.beta)),
                )
                coords = np.concatenate([x11.ravel(), x12.ravel(), x21.ravel()])
                assert numerical_rank(_complete(spec, coords, piv)) == q
                np.testing.assert_array_equal(spec.leading_block(coords[None])[0], x11)

    def test_rect_singular_block_rejected(self):
        spec = ChartSpec("rect", REAL, (2, 2, 1))
        with pytest.raises(SingularBlockError):
            _complete(spec, [0.0, 3.0, 4.0])

    def test_psd_example(self):
        spec = ChartSpec("psd", REAL, (2, 1))
        s = _complete(spec, [1.0, 2.0])
        assert s.data[1, 1, 0] == pytest.approx(4.0, abs=1e-12)

    def test_psd_full_rank_returns_s11(self):
        rng = np.random.default_rng(2)
        a = rand_mat(QUATERNION, 2, 2, rng)
        s = a @ conj_transpose(a)
        spec, piv, coords = _at(s, 2, "psd", ((0, 1), (0, 1)))
        np.testing.assert_allclose(_complete(spec, coords, piv).data, s.data, atol=1e-10)

    def test_psd_rank_property(self):
        rng = np.random.default_rng(3)
        for kind in KINDS:
            m, q = 4, 2
            base = rand_mat(kind, q, q, rng)
            s11m = base @ conj_transpose(base) + 0.5 * Mat.eye(kind, q)
            spec = ChartSpec("psd", kind, (m, q))
            perm = rng.permutation(m)
            coords = _psd_coords(s11m.data, rng.normal(size=(q, m - q, kind.beta)))
            s = _complete(spec, coords, _per_row((perm, perm)))
            parts = eig_hermitian(s, q)
            assert parts.lam.size == q
            assert numerical_rank(s) == q
            np.testing.assert_allclose(
                spec.leading_block(coords[None])[0], s11m.data, rtol=0, atol=1e-14
            )

    def test_psd_not_pd_rejected(self):
        spec = ChartSpec("psd", REAL, (2, 1))
        with pytest.raises(NotPsdError):
            _complete(spec, [-1.0, 2.0])


class TestChartSpecValidation:
    def test_non_permutation_pivot_rejected(self):
        # given pivots are checked where chart_at_batch takes them; a
        # repeated row pivot used to complete to [[4, 6], [0, 0]] silently
        ones = np.ones((1, 3, 3, 1))
        with pytest.raises(ShapeMismatchError, match=r"row pivot 0 .* got \[0, 0\]"):
            chart_at_batch(ones[:, :2, :2], 1, "rect", _per_row(((0, 0), (0, 1))))
        with pytest.raises(ShapeMismatchError):
            chart_at_batch(ones[:, :2], 1, "rect", _per_row(((0, 1), (0, 1))))
        with pytest.raises(ShapeMismatchError):
            chart_at_batch(ones[:, :2, :2], 1, "rect", (0, 1))
        with pytest.raises(ShapeMismatchError):
            chart_at_batch(ones, 1, "psd", _per_row(((0, 1, 1), (0, 1, 1))))
        with pytest.raises(ShapeMismatchError, match="one symmetric permutation"):
            chart_at_batch(ones, 1, "psd", _per_row(((0, 1, 2), (2, 1, 0))))
        with pytest.raises(ShapeMismatchError):
            ChartSpec("tri", REAL, (1, 2)).complete_batch(np.ones((1, 2)), _per_row(((0,), (0, 1))))

    def test_rank_out_of_range_rejected(self):
        # q = 5 on a 2 x 2 psd chart used to fail later with an IndexError
        with pytest.raises(RankError):
            ChartSpec("psd", REAL, (2, 5))
        with pytest.raises(RankError):
            ChartSpec("psd", REAL, (2, 0))
        with pytest.raises(RankError):
            ChartSpec("rect", COMPLEX, (3, 2, 3))
        with pytest.raises(RankError):
            ChartSpec("tri", REAL, (3, 2))

    def test_octonion_rejected(self):
        with pytest.raises(UnsupportedAlgebraError):
            ChartSpec("psd", OCTONION, (2, 1))
        with pytest.raises(UnsupportedAlgebraError):
            ChartSpec("tri", OCTONION, (1, 2))

    def test_bad_space_and_sizes_rejected(self):
        with pytest.raises(RegistryError):
            ChartSpec("band", REAL, (2, 1))
        with pytest.raises(ShapeMismatchError):
            ChartSpec("rect", REAL, (2, 2))
        with pytest.raises(RegistryError):
            ChartSpec("tri", REAL, (1, 2)).leading_block(np.ones((1, 2)))

    def test_sizes_are_int_tuples(self):
        spec = ChartSpec("psd", REAL, np.array([3, 1]))
        assert spec.sizes == (3, 1)
        assert all(type(v) is int for v in spec.sizes)
        assert spec == ChartSpec("psd", REAL, (3, 1))

    def test_a_spec_is_its_space_kind_and_sizes(self):
        assert [f.name for f in dataclasses.fields(ChartSpec)] == ["space", "kind", "sizes"]


class TestExtract:
    def test_round_trip_rect(self):
        rng = np.random.default_rng(4)
        for kind in KINDS:
            x = rand_rank_q(kind, 4, 3, 2, rng)
            spec, piv, coords = _at(x, 2, "rect")
            back = _complete(spec, coords, piv)
            np.testing.assert_allclose(back.data, x.data, atol=1e-9)
            spec2, _, coords2 = chart_at_batch(back.data[None], 2, "rect", piv)
            assert spec2 == spec
            np.testing.assert_allclose(coords2[0], coords, atol=1e-10)

    def test_round_trip_psd(self):
        rng = np.random.default_rng(5)
        for kind in KINDS:
            base = rand_rank_q(kind, 4, 4, 2, rng)
            s = base @ conj_transpose(base)
            spec, piv, coords = _at(s, 2, "psd")
            back = _complete(spec, coords, piv)
            np.testing.assert_allclose(back.data, s.data, atol=1e-9)
            spec2, _, coords2 = chart_at_batch(back.data[None], 2, "psd", piv)
            assert spec2 == spec
            np.testing.assert_allclose(coords2[0], coords, atol=1e-10)

    def test_full_rank_square_coords_are_whole_matrix(self):
        rng = np.random.default_rng(6)
        a = rand_mat(COMPLEX, 2, 2, rng)
        _, _, coords = _at(a, 2, "rect", ((0, 1), (0, 1)))
        np.testing.assert_allclose(
            coords, a.data[np.ix_((0, 1), (0, 1))].ravel(), atol=1e-12
        )

    def test_wrong_rank_rejected(self):
        rng = np.random.default_rng(8)
        a = rand_mat(REAL, 3, 3, rng)
        with pytest.raises(RankError):
            _at(a, 1, "rect")
        # given pivots skip choose_pivot's own rank check; completion catches it
        with pytest.raises(RankError):
            _at(a, 1, "rect", ((0, 1, 2), (0, 1, 2)))
        with pytest.raises(RankError):
            _at(a @ conj_transpose(a), 1, "psd", ((0, 1, 2), (0, 1, 2)))

    @pytest.mark.parametrize("scale", (1e-200, 1.0, 1e200))
    def test_completion_check_is_relative(self, scale):
        """The completion error is compared with the norm of the matrix, not
        with 1: a rank-3 matrix is not rank 1 at any scale, a rank-1 one is."""
        rng = np.random.default_rng(8)
        a = rand_mat(REAL, 3, 3, rng) * scale
        with pytest.raises(RankError):
            _at(a, 1, "rect", ((0, 1, 2), (0, 1, 2)))
        x = rand_rank_q(REAL, 3, 3, 1, rng)
        _, piv, coords = _at(x, 1, "rect")
        _, _, coords_s = chart_at_batch((x * scale).data[None], 1, "rect", piv)
        np.testing.assert_allclose(coords_s[0], coords * scale, rtol=1e-13, atol=0)

    def test_chart_at_checks_its_arguments(self):
        rng = np.random.default_rng(7)
        x = rand_rank_q(REAL, 3, 2, 1, rng)
        with pytest.raises(RegistryError):
            _at(x, 1, "tri")
        with pytest.raises(ShapeMismatchError, match="square"):
            _at(x, 1, "psd", ((0, 1, 2), (0, 1, 2)))
        with pytest.raises(ShapeMismatchError):
            _at(x, 1, "rect", ((0, 0, 1), (0, 1)))


def _tiled(pivot, rows):
    """One symmetric permutation for each of `rows` rows, as the per-row
    pair complete_batch takes; None for an empty one."""
    return (np.tile(pivot, (rows, 1)),) * 2 if len(pivot) else None


def _coded(entries, beta, rows, cols, hermitian):
    """A (rows, cols, beta) matrix whose listed (i, j) entries hold distinct
    codes (the real diagonal large, so a leading psd block is positive
    definite), their mirror the conjugate when hermitian, and the coordinate
    vector that lists those codes in the order given."""
    data = np.zeros((rows, cols, beta))
    coords = []
    for i, j in entries:
        if i == j:
            data[i, i, 0] = 10.0 + i
            coords.append(data[i, i, 0])
            continue
        data[i, j] = 0.01 * (10 * i + j + 1) + 0.001 * np.arange(beta)
        coords.extend(data[i, j])
        if hermitian and j < rows:
            data[j, i] = data[i, j] * np.r_[1.0, -np.ones(beta - 1)]
    return data, np.array(coords)


class TestUpperTriangleLayout:
    """psd and tri charts share one coordinate layout: the q real diagonals,
    the strict upper entries of the leading q x q block row by row, then the
    q x (m - q) block row-major."""

    PSD_4_3 = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    TRI = {
        (2, 3): [(0, 0), (1, 1), (0, 1), (0, 2), (1, 2)],
        (2, 2): [(0, 0), (1, 1), (0, 1)],
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_psd_order(self, kind):
        data, coords = _coded(self.PSD_4_3, kind.beta, 4, 4, hermitian=True)
        data[3, 3, 0] = 1.0
        spec = ChartSpec("psd", kind, (4, 3))
        np.testing.assert_array_equal(spec.extract_batch(data[None])[0], coords)
        np.testing.assert_array_equal(spec.complete_batch(coords[None])[0, :3], data[:3])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sizes", [(2, 3), (2, 2)])
    def test_tri_order(self, kind, sizes):
        q, m = sizes
        data, coords = _coded(self.TRI[sizes], kind.beta, q, m, hermitian=False)
        spec = ChartSpec("tri", kind, (q, m))
        np.testing.assert_array_equal(spec.extract_batch(data[None])[0], coords)
        np.testing.assert_array_equal(spec.complete_batch(coords[None])[0], data)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("space,sizes,pivots", [
        ("psd", (4, 3), (2, 0, 3, 1)),
        ("tri", (3, 4), ()),
    ])
    def test_round_trip_is_bit_exact(self, kind, space, sizes, pivots):
        spec = ChartSpec(space, kind, sizes)
        piv = _tiled(pivots, 16)
        rng = np.random.default_rng(12)
        coords = 0.3 * rng.normal(size=(16, spec.coord_count()))
        coords[:, :3] = rng.uniform(3.0, 4.0, size=(16, 3))
        np.testing.assert_array_equal(
            spec.extract_batch(spec.complete_batch(coords, piv), piv), coords
        )

    @pytest.mark.parametrize("space,sizes,pivots", [
        ("psd", (3, 2), (0, 1, 2)),
        ("tri", (2, 3), ()),
    ])
    def test_wrong_coordinate_count_rejected(self, space, sizes, pivots):
        spec = ChartSpec(space, REAL, sizes)
        k = spec.coord_count()
        for count in (k - 1, k + 1):
            coords = np.ones((2, count))
            with pytest.raises(ShapeMismatchError, match=f"expected {k} coordinates"):
                spec.complete_batch(coords, _tiled(pivots, 2))


class TestRectLayout:
    """rect coordinates are X11, X12 then X21, each row-major, in the
    pivoted matrix."""

    RECT_4_3_2 = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("pivots", [None, ((2, 0, 3, 1), (1, 2, 0))])
    def test_rect_order(self, kind, pivots):
        beta = kind.beta
        xp = np.zeros((4, 3, beta))  # the pivoted matrix, X22 left zero
        for t, (i, j) in enumerate(self.RECT_4_3_2):
            xp[i, j] = 1.0 + t + 0.25 * np.arange(beta)
        xp[[0, 1], [0, 1], 0] += 10.0  # a well-conditioned X11
        coords = np.concatenate([xp[i, j] for i, j in self.RECT_4_3_2])
        rp, cp = pivots or (range(4), range(3))
        data = np.zeros_like(xp)
        data[np.ix_(rp, cp)] = xp
        spec = ChartSpec("rect", kind, (4, 3, 2))
        piv = _per_row(pivots)
        np.testing.assert_array_equal(spec.extract_batch(data[None], piv)[0], coords)
        back = spec.complete_batch(coords[None], piv)[0][np.ix_(rp, cp)]
        for i, j in self.RECT_4_3_2:
            np.testing.assert_array_equal(back[i, j], xp[i, j])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", [(4, 2), (3, 3), (3, 1)])
def test_psd_completion_mirrors_its_coordinates_exactly(kind, sizes):
    """A psd completion is Hermitian bit for bit: S21 = S12* and the lower
    triangle of S11 are the conjugates of its coordinates, and S22 is
    symmetrized."""
    spec = ChartSpec("psd", kind, sizes)
    m, q = sizes
    rng = np.random.default_rng(13)
    coords = 0.3 * rng.normal(size=(8, spec.coord_count()))
    coords[:, :q] += 3.0
    perm = rng.permutation(m)
    full = spec.complete_batch(coords, _tiled(perm, 8))[:, perm][:, :, perm]
    np.testing.assert_array_equal(full[:, q:, :q], ct_raw(full[:, :q, q:]))
    np.testing.assert_array_equal(full[:, :q, :q], ct_raw(full[:, :q, :q]))
    np.testing.assert_array_equal(full, ct_raw(full))


def _loop_pivot(a: Mat, q: int, chart: str):
    """choose_pivot's greedy elimination on one matrix, with the entry
    inverse in Python floats: the form choose_pivot runs on whole batches."""
    beta, n, m = a.kind.beta, a.rows, a.cols
    work = a.data.copy()
    rows, cols = [], []
    for _ in range(q):
        if chart == "rect":
            score = _abs_raw(work)
        else:
            score = np.where(np.eye(m, dtype=bool), work[..., 0], -np.inf)
        score[rows, :] = -np.inf
        score[:, cols] = -np.inf
        i, j = np.unravel_index(int(np.argmax(score)), score.shape)
        c = work[i, j].tolist()
        top = max(map(abs, c))
        c = [x / top for x in c]
        n2 = sum(x * x for x in c) * top
        inv = np.array([c[0] / n2] + [-x / n2 for x in c[1:]])
        colv = mul_raw(work[:, j].reshape(n, 1, beta), inv.reshape(1, 1, beta), beta)
        work = work - mul_raw(colv, work[i].reshape(1, m, beta), beta)
        rows.append(int(i))
        cols.append(int(j))
    row_pivot = tuple(rows + [i for i in range(n) if i not in rows])
    if chart == "psd":
        return row_pivot
    return row_pivot, tuple(cols + [j for j in range(m) if j not in cols])


def _as_tuples(pivots, space, row=0):
    """Row `row` of per-row pivots as tuples: (row_pivot, col_pivot), or the
    one symmetric permutation for psd."""
    rows, cols = (tuple(int(v) for v in p[row]) for p in pivots)
    return rows if space == "psd" else (rows, cols)


def _pivot_one(a: Mat, q: int, chart: str):
    """choose_pivot on the batch of the one matrix a, as tuples."""
    return _as_tuples(choose_pivot(a.data[None], q, chart=chart), chart)


class TestChoosePivot:
    def test_dominant_leading_block_identity(self):
        a = Mat.from_real(REAL, np.array([[4.0, 1.0], [1.0, 2.0]]))
        rows, cols = _pivot_one(a, 1, chart="rect")
        assert rows == (0, 1) and cols == (0, 1)
        assert _pivot_one(a, 1, chart="psd") == (0, 1)

    def test_offdiagonal_unit_swapped(self):
        a = Mat.from_real(REAL, np.array([[0.0, 1.0], [1.0, 0.0]]))
        rows, cols = _pivot_one(a, 1, chart="rect")
        assert rows == (0, 1) and cols == (1, 0)

    def test_rank_deficit_detected(self):
        a = Mat.from_real(REAL, np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(RankError, match="matrix rank is below q=2"):
            _pivot_one(a, 2, chart="rect")
        with pytest.raises(RankError, match="PSD rank is below q=2"):
            _pivot_one(a, 2, chart="psd")

    def test_only_a_batch_is_pivoted(self):
        a = Mat.from_real(REAL, np.array([[4.0, 1.0], [1.0, 2.0]]))
        for one in (a, a.data):
            with pytest.raises(ShapeMismatchError, match=r"\(B, n, m, beta\) batch"):
                choose_pivot(one, 1, chart="rect")

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"beta{k.beta}")
    def test_pivots_are_scale_invariant(self, kind):
        """Rect scores are magnitudes scaled by the largest coefficient, so
        entries near 1e+-200 neither overflow nor underflow to a zero pivot."""
        rng = np.random.default_rng(30 + kind.beta)
        x = rand_mat(kind, 4, 3, rng)
        s = rand_mat(kind, 4, 4, rng)
        s = s @ conj_transpose(s)
        expected = _pivot_one(x, 3, chart="rect"), _pivot_one(s, 3, chart="psd")
        for scale in (1e200, 1e-200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = (_pivot_one(x * scale, 3, chart="rect"),
                       _pivot_one(s * scale, 3, chart="psd"))
            assert got == expected, scale

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"beta{k.beta}")
    @pytest.mark.parametrize("space", ["rect", "psd"])
    def test_a_batch_pivots_and_charts_each_matrix_alone(self, kind, space):
        """choose_pivot and chart_at_batch on a batch give each row, bit for
        bit, the pivots of the per-matrix elimination and the chart and
        completion of chart_at_batch on that matrix alone, ties and extreme
        scales included."""
        rng = np.random.default_rng(60 + kind.beta)
        tie = np.zeros((4, 3, kind.beta))
        tie[0, 0, 0] = tie[1, 1, 0] = tie[2, 0, 0] = 1.0  # equal magnitudes
        base = [rand_rank_q(kind, 4, 3, 2, rng) for _ in range(4)] + [Mat(kind, tie)]
        if space == "psd":
            base = [x @ conj_transpose(x) for x in base]
        # one scale per batch (test_mixed_scales_chart_each_row_alone mixes them)
        for scale in (1.0, 1e200, 1e-200):
            mats = [x * scale for x in base]
            batch = np.stack([x.data for x in mats])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows, cols = choose_pivot(batch, 2, chart=space)
                spec, pivots, coords = chart_at_batch(batch, 2, space)
                full = spec.complete_batch(coords, pivots)
            for b, x in enumerate(mats):
                want = _loop_pivot(x, 2, space)
                got = (tuple(rows[b]), tuple(cols[b]))
                assert (got[0] if space == "psd" else got) == want, (scale, b)
                one_spec, one_piv, one_coords = chart_at_batch(x.data[None], 2, space)
                assert _as_tuples(one_piv, space) == want, (scale, b)
                assert np.array_equal(coords[b], one_coords[0]), (scale, b)
                assert np.array_equal(full[b], one_spec.complete_batch(one_coords, one_piv)[0])
                assert np.array_equal(spec.extract_batch(full, pivots)[b],
                                      one_spec.extract_batch(full[b][None], one_piv)[0])

    def test_mixed_scales_chart_each_row_alone(self):
        """S11's positivity check is relative to each row's own largest
        eigenvalue: a rank-2 psd batch at scales 1, 1e200 and 1e-200 charts
        and completes row by row as each row does alone."""
        rng = np.random.default_rng(64)
        base = rand_rank_q(REAL, 4, 4, 2, rng)
        mats = [base @ conj_transpose(base) * scale for scale in (1.0, 1e200, 1e-200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec, pivots, coords = chart_at_batch(np.stack([x.data for x in mats]), 2, "psd")
            full = spec.complete_batch(coords, pivots)
            for b, x in enumerate(mats):
                one_spec, one_piv, one_coords = chart_at_batch(x.data[None], 2, "psd")
                assert _as_tuples(pivots, "psd", b) == _as_tuples(one_piv, "psd")
                assert np.array_equal(coords[b], one_coords[0]), b
                assert np.array_equal(full[b], one_spec.complete_batch(one_coords, one_piv)[0])

    def test_a_positivity_error_names_its_first_failing_row(self):
        s11 = np.zeros((3, 1, 1, 1))
        s11[:, 0, 0, 0] = (1e-200, -2.0, -3.0)
        with pytest.raises(NotPsdError, match=r"min eigenvalue -2\.000e\+00"):
            charts._inv_hermitian_block(s11, 1)

    def test_a_batch_rank_error_names_its_first_failing_row(self):
        rng = np.random.default_rng(70)
        u = rand_mat(REAL, 3, 1, rng)
        near = [u @ conj_transpose(u) + Mat.from_real(REAL, eps * np.eye(3)) for eps in (1e-12, 1e-13)]
        batch = np.stack([rand_rank_q(REAL, 3, 3, 2, rng).data] + [x.data for x in near])
        with pytest.raises(RankError) as alone:
            choose_pivot(near[0].data[None], 2, chart="rect")
        with pytest.raises(RankError) as batched:
            choose_pivot(batch, 2, chart="rect")
        assert str(batched.value) == str(alone.value)

    def test_psd_diagonal_pivot(self):
        a = Mat.from_real(REAL, np.array([[1.0, 0.0], [0.0, 5.0]]))
        assert _pivot_one(a, 1, chart="psd") == (1, 0)

    def test_pivoted_extraction_handles_zero_leading_entry(self):
        v = np.array([[0.0], [1.0], [2.0]])
        s = Mat.from_real(REAL, v @ v.T)
        spec, piv, coords = _at(s, 1, "psd")
        assert piv[0][0, 0] == 2  # largest diagonal first
        np.testing.assert_allclose(_complete(spec, coords, piv).data, s.data, atol=1e-12)


def _fd_density_log(spec, coords, pivots=None, step=1e-5):
    """Oracle for the exact density: log sqrt(det G^T G) with G the central
    differences of the chart's completion (in the per-row pivoted charts
    when given), 2k completions per batch."""
    b, k = coords.shape
    h = np.maximum(step, step * np.abs(coords))
    columns = []
    for i in range(k):
        e = np.zeros_like(coords)
        e[:, i] = h[:, i]
        fp = spec.complete_batch(coords + e, pivots).reshape(b, -1)
        fm = spec.complete_batch(coords - e, pivots).reshape(b, -1)
        columns.append((fp - fm) / (2.0 * h[:, i])[:, None])
    g = np.stack(columns, axis=-1)
    sign, logdet = np.linalg.slogdet(np.swapaxes(g, -1, -2) @ g)
    assert np.all(sign > 0.0)
    return 0.5 * logdet


def _reversed_pivots(spec, rows):
    """Per-row pivots for `rows` rows that reverse every index, so none is
    the identity (a psd pair is one permutation twice)."""
    return tuple(np.tile(np.arange(size)[::-1], (rows, 1)) for size in spec.shape)


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
                # the density takes no pivots: a pivot permutes the ambient
                # basis, an isometry, so the pivoted charts' density is the same
                spec = ChartSpec(space, kind, sizes)
                coords = _well_conditioned_coords(spec, rng, 16)
                np.testing.assert_allclose(
                    hausdorff_density_log_batch(spec, coords),
                    _fd_density_log(spec, coords, _reversed_pivots(spec, 16)),
                    rtol=1e-8, err_msg=str(spec),
                )

    def test_full_rank_charts_are_constants(self):
        # a full-rank rect chart permutes coordinates; a full-rank psd chart
        # writes each off-diagonal coordinate twice
        rng = np.random.default_rng(21)
        for kind in KINDS:
            for sizes in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 1, 1)]:
                spec = ChartSpec("rect", kind, sizes)
                coords = rng.normal(size=(8, spec.coord_count()))
                assert np.all(hausdorff_density_log_batch(spec, coords) == 0.0)
                with pytest.raises(ShapeMismatchError):
                    hausdorff_density_log_batch(spec, coords[:, 1:])
            for q in (1, 2, 3):
                spec = ChartSpec("psd", kind, (q, q))
                coords = rng.normal(size=(8, spec.coord_count()))
                expected = (kind.beta * q * (q - 1) / 4) * math.log(2.0)
                assert np.all(hausdorff_density_log_batch(spec, coords) == expected)
                with pytest.raises(ShapeMismatchError):
                    hausdorff_density_log_batch(spec, coords[:, 1:])

    def test_block_checks_reject_a_bad_row(self):
        rect = ChartSpec("rect", REAL, (2, 2, 1))
        with pytest.raises(SingularBlockError):
            hausdorff_density_log_batch(rect, np.array([[2.0, 3.0, 4.0], [0.0, 3.0, 4.0]]))
        psd = ChartSpec("psd", REAL, (2, 1))
        with pytest.raises(NotPsdError):
            hausdorff_density_log_batch(psd, np.array([[1.0, 2.0], [-1.0, 2.0]]))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("space,sizes", [
        ("rect", (3, 3, 2)), ("rect", (2, 2, 1)), ("rect", (3, 2, 2)),
        ("psd", (3, 1)), ("psd", (2, 2)), ("tri", (2, 3)),
    ])
    def test_an_empty_batch_completes_and_weighs_to_empty_arrays(self, kind, space, sizes):
        """Zero rows in every chart space, rank-deficient or full: a
        Monte-Carlo block may keep no draw."""
        spec = ChartSpec(space, kind, sizes)
        coords = np.zeros((0, spec.coord_count()))
        assert spec.complete_batch(coords).shape == (0, *spec.shape, kind.beta)
        assert hausdorff_density_log_batch(spec, coords).shape == (0,)

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
            spec = ChartSpec(space, COMPLEX, sizes)
            coords = _well_conditioned_coords(spec, rng, 64)
            counts.clear()
            hausdorff_density_log_batch(spec, coords)
            assert counts == expected, spec

    def test_full_rank_rect_is_one(self):
        rng = np.random.default_rng(10)
        for kind in KINDS:
            a = rand_mat(kind, 2, 3, rng)
            spec, _, coords = _at(a, 2, "rect", ((0, 1), (0, 1, 2)))
            assert _density(spec, coords) == pytest.approx(1.0, rel=1e-8)

    def test_psd_closed_form(self):
        spec = ChartSpec("psd", REAL, (2, 1))
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
        spec, piv, coords = _at(s, 2, "psd")
        perm = np.array([2, 0, 3, 1])
        s_rot = Mat(COMPLEX, s.data[np.ix_(perm, perm)])
        inv = tuple(int(np.argwhere(perm == piv[0][0, i])[0, 0]) for i in range(4))
        spec_rot, _, coords_rot = _at(s_rot, 2, "psd", (inv, inv))
        np.testing.assert_allclose(coords_rot, coords, atol=1e-12)
        assert _density(spec_rot, coords_rot) == pytest.approx(_density(spec, coords), rel=1e-8)


class TestStiefelSampling:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(12)
        for kind in KINDS:
            h = Mat(kind, sample_stiefel_batch(4, 2, kind, (rng,), 1)[0])
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
        frames = sample_stiefel_batch(4, 2, kind, (rng,), 3)
        assert rng.calls == [(3, 4, 2, kind.beta), (1, 4, 2, kind.beta)]
        assert frames.shape == (3, 4, 2, kind.beta)
        gram = mul_raw(ct_raw(frames), frames, kind.beta)
        eye = np.broadcast_to(Mat.eye(kind, 2).data, gram.shape)
        np.testing.assert_allclose(gram, eye, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_blocks_are_each_generators_own_draw(self, kind):
        """With two generators, each block of rows is its generator's own
        draw; a degenerate frame of one block is drawn again from its own
        generator, the other making an empty call."""
        class ZeroColumnFirst:
            def __init__(self, seed, zero):
                self.rng = np.random.default_rng(seed)
                self.zero = zero
                self.calls = []

            def standard_normal(self, size):
                self.calls.append(size)
                out = self.rng.standard_normal(size)
                if self.zero and len(self.calls) == 1:
                    out[1, :, 1, :] = 0.0
                return out

        rngs = [ZeroColumnFirst(16, True), ZeroColumnFirst(17, False)]
        got = sample_stiefel_batch(4, 2, kind, rngs, 6)
        assert rngs[0].calls == [(3, 4, 2, kind.beta), (1, 4, 2, kind.beta)]
        assert rngs[1].calls == [(3, 4, 2, kind.beta), (0, 4, 2, kind.beta)]
        alone = [ZeroColumnFirst(16, True), ZeroColumnFirst(17, False)]
        want = np.concatenate([sample_stiefel_batch(4, 2, kind, (rng,), 3) for rng in alone])
        np.testing.assert_array_equal(got, want)
        with pytest.raises(ShapeMismatchError):
            sample_stiefel_batch(4, 2, kind, rngs, 5)

    def test_coordinate_exchangeability(self):
        rng = np.random.default_rng(13)
        n, draws = 3, 20000
        frames = sample_stiefel_batch(n, 2, COMPLEX, (rng,), draws)
        sq = np.sum(frames[:, 0, 0, :] ** 2, axis=1)
        se = sq.std(ddof=1) / math.sqrt(draws)
        assert abs(sq.mean() - 1.0 / n) <= 3 * se

    def test_left_invariance_ks(self):
        rng = np.random.default_rng(14)
        n, q, draws = 3, 2, 4000
        u = qr_positive(rand_mat(COMPLEX, n, n, np.random.default_rng(99)), n).h1
        a = sample_stiefel_batch(n, q, COMPLEX, (rng,), draws)
        b = sample_stiefel_batch(n, q, COMPLEX, (rng,), draws)
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
    lam, (w1,) = factorized_draw((rng,), box, q, (m,), kind, count)
    logw = FACTORS["SD"].log(kind.beta, m, 0, q, lam=lam)
    ok = verify._in_box_gap(lam, box[0], box[1], gap)
    const = factorized_mass_log(box, q, (m,), kind.beta)
    return assemble(lam, (w1,), kind.beta), np.where(ok, logw, -np.inf), const


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
        d, (v1, w1) = factorized_draw((rng,), (1.0, 2.0), 1, (2, 1), REAL, 40000)
        data = assemble(d, (v1, w1), 1)
        logw = FACTORS["SVD"].log(1, 1, 2, 1, d=d)
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
        d, frames = factorized_draw((rng,), (1.0, 2.0), 2, (3, 2), QUATERNION, 1)
        assert d.shape == (1, 2) and d[0, 0] >= d[0, 1]
        assert [f.shape for f in frames] == [(1, 3, 2, 4), (1, 2, 2, 4)]
        assert isinstance(factorized_mass_log((1.0, 2.0), 2, (3, 2), 4), float)

    def test_draw_order_and_mass_order_follow_dims(self):
        # spectrum first, then one frame per dimension in the order given;
        # the mass adds the Stiefel volumes in that same order
        box, q, dims = (1.0, 2.0), 2, (3, 2)
        spec, frames = factorized_draw((np.random.default_rng(23),), box, q, dims, COMPLEX, 5)
        rng = np.random.default_rng(23)
        x = rng.uniform(1.0, 2.0, size=(5, q))
        x.sort(axis=1)
        np.testing.assert_array_equal(spec, x[:, ::-1])
        for d, frame in zip(dims, frames):
            np.testing.assert_array_equal(frame, sample_stiefel_batch(d, q, COMPLEX, (rng,), 5))
        expected = (
            q * math.log(1.0) - math.lgamma(q + 1)
            + stiefel_volume_log(q, 3, 2) + stiefel_volume_log(q, 2, 2)
        )
        assert factorized_mass_log(box, q, dims, 2) == expected

    def test_bad_box_rejected(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ConfigurationError):
            factorized_draw((rng,), (2.0, 1.0), 1, (2,), REAL, 1)


class TestAssemble:
    """charts.assemble on factorized_draw's output: one frame for psd, two
    for rect."""

    @staticmethod
    def _draw(kind, q, dims, count=16):
        return factorized_draw((np.random.default_rng(31),), (1.0, 2.0), q, dims, kind, count)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_frame_is_exactly_hermitian(self, kind):
        s, frames = self._draw(kind, 2, (3,))
        out = assemble(s, frames, kind.beta)
        assert out.shape == (16, 3, 3, kind.beta)
        np.testing.assert_array_equal(out, ct_raw(out))

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_frames_are_one_product(self, kind):
        s, frames = self._draw(kind, 2, (3, 2))
        want = mul_raw(frames[0] * s[:, None, :, None], ct_raw(frames[1]), kind.beta)
        np.testing.assert_array_equal(assemble(s, frames, kind.beta), want)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("q, dims", [(2, (3,)), (2, (3, 2))], ids=["psd", "rect"])
    def test_inverse_spectrum_on_reversed_frames_is_the_pseudo_inverse(self, kind, q, dims):
        # the identity the MP_HERM and MP_RECT right sides place their draws by
        s, frames = self._draw(kind, q, dims)
        got = assemble(1.0 / s, frames[::-1], kind.beta)
        want = pinv_batch(assemble(s, frames, kind.beta), kind.beta)
        assert got.shape == want.shape
        err = np.linalg.norm((got - want).reshape(len(s), -1), axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want.reshape(len(s), -1), axis=1))


# (q, dims) of the CHART builders that draw spectra and frames, two sizes
# each: MP_HERM (q, (m,)), MP_RECT (q, (n, m)), UHLIG_QR (n, (m,)) and
# CONGRUENCE_NS (m, (m,))
CHART_DRAWS = [
    ("MP_HERM", 1, (2,)), ("MP_HERM", 2, (3,)),
    ("MP_RECT", 1, (3, 2)), ("MP_RECT", 2, (3, 3)),
    ("UHLIG_QR", 1, (2,)), ("UHLIG_QR", 2, (3,)),
    ("CONGRUENCE_NS", 2, (2,)), ("CONGRUENCE_NS", 3, (3,)),
]


def _point_rngs(points, seed=42):
    """Fresh point substreams, as the CHART engine builds them."""
    return [verify._substream(seed, 7, verify._SIDE_POINTS, i) for i in range(points)]


def _stacked_draws(rngs, box, q, dims, kind, count=1):
    """factorized_draw of `count` rows from each generator alone, stacked."""
    draws = [factorized_draw((rng,), box, q, dims, kind, count) for rng in rngs]
    spectra = np.concatenate([spectrum for spectrum, _ in draws])
    return spectra, tuple(np.concatenate(f) for f in zip(*(frames for _, frames in draws)))


def _assert_same_draws(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for frame, expected in zip(got[1], want[1]):
        np.testing.assert_array_equal(frame, expected)


def _degenerate_first_frames(rngs, box, q, d, beta, count=1):
    """How many rows of the generators' `count`-row draws miss FRAME_NORM_TOL
    on their first (d, q, beta) frame."""
    missed = 0
    for rng in rngs:
        rng.uniform(*box, size=(count, q))
        first = rng.standard_normal((count, d, q, beta))
        norms = gram_schmidt_batch(first, beta)[1]
        missed += int((~(norms > charts.FRAME_NORM_TOL).all(axis=1)).sum())
    return missed


class TestFactorizedRows:
    @pytest.mark.parametrize("points", [1, 20, 600])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"beta{k.beta}")
    @pytest.mark.parametrize("theorem,q,dims", CHART_DRAWS,
                             ids=[f"{t}-q{q}-{dims}" for t, q, dims in CHART_DRAWS])
    def test_rows_are_the_one_point_draws_bit_for_bit(self, monkeypatch, theorem, q, dims,
                                                       kind, points):
        """From linalg._ENTRY_ROWS points on, the chunk's Gram-Schmidt takes
        the entry loop of mul_raw; the bits are those of one point alone."""
        entry_calls = []
        entries = linalg._mul_entries

        def spy_entries(x, y):
            entry_calls.append(x.shape)
            return entries(x, y)

        monkeypatch.setattr(linalg, "_mul_entries", spy_entries)
        box = (1.0, 2.0)
        got = factorized_draw(_point_rngs(points), box, q, dims, kind, 1)
        big = bool(entry_calls)
        _assert_same_draws(got, _stacked_draws(_point_rngs(points), box, q, dims, kind))
        assert got[0].shape == (points, q)
        assert [f.shape for f in got[1]] == [(points, d, q, kind.beta) for d in dims]
        assert big == (q > 1 and points >= linalg._ENTRY_ROWS)

    def test_a_degenerate_frame_is_redrawn_from_its_points_generator(self, monkeypatch):
        """With a frame-norm threshold that some of the chunk's first frames
        miss, the rows are still each point's own one-point draw, which
        redraws a degenerate frame from the same generator."""
        monkeypatch.setattr(charts, "FRAME_NORM_TOL", 0.6)
        box, q, dims, points = (1.0, 2.0), 2, (3, 2), 8
        assert 1 <= _degenerate_first_frames(_point_rngs(points), box, q, dims[0], 1) < points
        got = factorized_draw(_point_rngs(points), box, q, dims, REAL, 1)
        _assert_same_draws(got, _stacked_draws(_point_rngs(points), box, q, dims, REAL))

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"beta{k.beta}")
    def test_used_generators_keep_their_own_draws(self, monkeypatch, kind):
        """Generators that have already drawn give the rows of their one-point
        draws from where they stand, a degenerate frame included."""
        # about half of the first frames miss these thresholds
        monkeypatch.setattr(charts, "FRAME_NORM_TOL", {1: 1.0, 2: 1.2, 4: 2.4}[kind.beta])
        box, q, dims, points = (1.0, 2.0), 2, (3, 2), 8

        def used_rngs():
            rngs = _point_rngs(points)
            for rng in rngs:
                rng.standard_normal(3)
            return rngs

        assert 1 <= _degenerate_first_frames(used_rngs(), box, q, dims[0], kind.beta) < points
        got = factorized_draw(used_rngs(), box, q, dims, kind, 1)
        _assert_same_draws(got, _stacked_draws(used_rngs(), box, q, dims, kind))

    @pytest.mark.parametrize("tol", [None, 1.2], ids=["default-tol", "raised-tol"])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"beta{k.beta}")
    def test_blocks_of_rows_are_each_generators_own_draw(self, monkeypatch, kind, tol):
        """Two generators x 3 rows are each generator's own 3-row draw,
        stacked; at the raised threshold some first frames are degenerate
        and are drawn again from their own generator."""
        if tol is not None:
            monkeypatch.setattr(charts, "FRAME_NORM_TOL", tol * math.sqrt(kind.beta))
        box, q, dims, count = (1.0, 2.0), 2, (3, 2), 3
        missed = _degenerate_first_frames(_point_rngs(2), box, q, dims[0], kind.beta, count)
        assert (missed == 0) if tol is None else (1 <= missed < 2 * count)
        got = factorized_draw(_point_rngs(2), box, q, dims, kind, count)
        _assert_same_draws(got, _stacked_draws(_point_rngs(2), box, q, dims, kind, count))
        assert got[0].shape == (2 * count, q)
        assert [f.shape for f in got[1]] == [(2 * count, d, q, kind.beta) for d in dims]

    def test_frames_are_drawn_through_sample_stiefel_batch(self, monkeypatch):
        """Every frame dimension is one call of the module's
        sample_stiefel_batch for all the rows, so a wrapper of that binding
        (perfbench's layer trace) sees every frame."""
        calls = []
        sample = charts.sample_stiefel_batch

        def spy(n, q, kind, rngs, count):
            calls.append((n, len(rngs), count))
            return sample(n, q, kind, rngs, count)

        monkeypatch.setattr(charts, "sample_stiefel_batch", spy)
        factorized_draw(_point_rngs(4), (1.0, 2.0), 2, (3, 2), REAL, 5)
        assert calls == [(3, 4, 20), (2, 4, 20)]

    def test_bad_box_rejected(self):
        with pytest.raises(ConfigurationError):
            factorized_draw(_point_rngs(2), (2.0, 1.0), 1, (2,), REAL, 1)
        with pytest.raises(ConfigurationError):
            factorized_draw(_point_rngs(2), (0.0, math.inf), 1, (2,), REAL, 1)

    def test_frame_checks_match_the_one_point_draw(self):
        with pytest.raises(ShapeMismatchError):
            factorized_draw(_point_rngs(2), (1.0, 2.0), 3, (2,), REAL, 1)
        with pytest.raises(ShapeMismatchError):
            factorized_draw(_point_rngs(1), (1.0, 2.0), 3, (2,), REAL, 1)


def test_coordinate_counts():
    assert rect_coord_count(3, 2, 1, 2) == (3 + 2 - 1) * 2
    assert psd_coord_count(3, 2, 4) == 2 + 4 * 1 + 4 * 2
    rng = np.random.default_rng(21)
    for kind in KINDS:
        x = rand_rank_q(kind, 4, 3, 2, rng)
        spec, _, coords = _at(x, 2, "rect")
        assert coords.shape == (rect_coord_count(4, 3, 2, kind.beta),) == (spec.coord_count(),)
        s = x @ conj_transpose(x)
        spec, _, coords = _at(s, 2, "psd")
        assert coords.shape == (psd_coord_count(4, 2, kind.beta),) == (spec.coord_count(),)

