"""Coordinate charts for rank-q matrix manifolds, densities, and samplers.

A rank-q matrix is parameterized by the independent entries of its pivoted
leading blocks: X11, X12, X21 for rectangular matrices (X22 is determined as
X21 X11^{-1} X12) and S11, S12 for Hermitian PSD matrices (S22 = S12* S11^{-1}
S12).  The modules that integrate over these manifolds need three things
built here: completion/extraction between chart coordinates and full
matrices, the density of the chart's Lebesgue measure against the Hausdorff
surface measure (the Gram determinant of the exact differential of
completion in the ambient inner product Re tr(A*B): a constant for a
full-rank chart, one block inverse per batch for a rank-q chart), and
the one sampler for the factorized measures (spectrum box x uniform Stiefel
frames): factorized_draw draws a block of rows from each of a sequence of
generators (one generator and a Monte-Carlo block, or one generator per
CHART point and one row), each block with the bits of its own generator's
draw, while the sort and Gram-Schmidt run on all the rows.  Its frames
come from sample_stiefel_batch, the one retry loop, which takes the same
sequence of generators and redraws a degenerate frame from the generator
that drew it.  assemble, the one assembler, places a draw as it comes:
frames[0] diag(spectrum) frames[-1]*, Hermitian for the one frame of psd S
= W diag(lam) W*, and X = V diag(d) W* for the two of rect.

A chart is a ChartSpec, which validates its sizes; a chart point is a
(spec, coords) pair.  Pivots are per-row arrays, never part of a spec: a
pivot only scatters a completed matrix (and gathers one for extraction), so
completion and extraction take one pivot pair per batch row, or none for
the unpivoted chart, and a batch of points in different pivoted charts of
the same sizes completes in one call.  chart_at_batch gives each matrix of
a batch its own chart, from given pivots or from choose_pivot, which pivots
a whole batch in one elimination loop for both spaces.  Everything is
written batch-first on raw coefficient arrays.  psd and tri charts share
one upper-triangle coordinate layout (the q real diagonals, the strict
upper entries of the leading q x q block row by row, then the q x (m - q)
block row-major): psd fills S11's lower triangle by conjugation and tri
completes to the upper trapezoid.  psd and rect charts share one kernel:
one helper unpacks the pivoted leading blocks (A11, A12, A21; A21 = A12*
for psd), which completion, the leading block and the Hausdorff density
all read, and one completion body fills A22 = (A21 A11^{-1}) A12.  The
block inverses (S11^{-1}, X11^{-1}) and their positivity and conditioning
checks, each relative to its own row, run on the small-block kernels of
linalg: closed forms for q = 1 (and q = 2 for S11), LAPACK on the blocks'
complex form (linalg.complex_raw) otherwise.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraKind
from .errors import (
    ConditioningError,
    ConfigurationError,
    NotPsdError,
    RankError,
    RegistryError,
    ShapeMismatchError,
    SingularBlockError,
)
from .decomp import gram_schmidt_batch
from .linalg import (
    _abs_raw,
    _require_assoc,
    ct_raw,
    eigvalsh_raw,
    frobenius_raw,
    inv_hermitian_raw,
    inv_raw,
    mul_raw,
    svdvals_raw,
)
from .measures import LOG2, stiefel_volume_log

PIVOT_TOL = 1e-10
BLOCK_COND_TOL = 1e-10


def rect_coord_count(n: int, m: int, q: int, beta: int) -> int:
    return (n * q + m * q - q * q) * beta


def psd_coord_count(m: int, q: int, beta: int) -> int:
    # q real diagonals, full off-diagonals above them, and the S12 block
    return q + beta * q * (q - 1) // 2 + beta * q * (m - q)


# ---------------------------------------------------------------------------
# batch packing / completion


def _rect_unpack(coords: np.ndarray, kind: AlgebraKind, n: int, m: int, q: int):
    beta = kind.beta
    k = rect_coord_count(n, m, q, beta)
    if coords.shape[1] != k:
        raise ShapeMismatchError(f"expected {k} coordinates, got {coords.shape[1]}")
    b = coords.shape[0]
    a = q * q * beta
    c = q * (m - q) * beta
    x11 = coords[:, :a].reshape(b, q, q, beta)
    x12 = coords[:, a : a + c].reshape(b, q, m - q, beta)
    x21 = coords[:, a + c :].reshape(b, n - q, q, beta)
    return x11, x12, x21


def _upper_unpack(coords: np.ndarray, kind: AlgebraKind, m: int, q: int):
    """(B, k) coordinates in the upper-triangle layout psd and tri charts
    share -> (U11, U12), the leading q rows of an m-column matrix.  The
    layout: the q real diagonals, then the strict upper entries of the
    leading q x q block row by row, then the q x (m - q) block row-major.
    U11 (B, q, q, beta) is zero below its diagonal."""
    beta = kind.beta
    k = psd_coord_count(m, q, beta)
    if coords.shape[1] != k:
        raise ShapeMismatchError(f"expected {k} coordinates, got {coords.shape[1]}")
    b = coords.shape[0]
    u11 = np.zeros((b, q, q, beta))
    pos = 0
    for i in range(q):
        u11[:, i, i, 0] = coords[:, pos]
        pos += 1
    for i in range(q):
        for j in range(i + 1, q):
            u11[:, i, j, :] = coords[:, pos : pos + beta]
            pos += beta
    return u11, coords[:, pos:].reshape(b, q, m - q, beta)


def _upper_pack(u11: np.ndarray, u12: np.ndarray) -> np.ndarray:
    """The inverse of _upper_unpack: (B, k) coordinates of the diagonal and
    strict upper entries of U11 (B, q, q, beta) and of U12."""
    b, q = u11.shape[:2]
    parts = [u11[:, i, i, 0][:, None] for i in range(q)]
    for i in range(q):
        for j in range(i + 1, q):
            parts.append(u11[:, i, j, :])
    parts.append(u12.reshape(b, -1))
    return np.concatenate(parts, axis=1)


def _inv_hermitian_block(s11: np.ndarray, beta: int) -> np.ndarray:
    """Batched inverse of Hermitian PD blocks, with a positivity check of
    each block relative to its own largest eigenvalue (1 for a zero block);
    NotPsdError names the first failing block's smallest eigenvalue."""
    eig = eigvalsh_raw(s11, beta)
    top = np.abs(eig).max(axis=-1)
    low = eig.min(axis=-1)
    bad = low <= 1e-12 * np.where(top > 0.0, top, 1.0)
    if bad.any():
        raise NotPsdError(
            f"S11 block is not positive definite (min eigenvalue {low[np.argmax(bad)]:.3e})"
        )
    return inv_hermitian_raw(s11, beta)


def _inv_general_block(x11: np.ndarray, beta: int) -> np.ndarray:
    sv = svdvals_raw(x11, beta)
    top = np.maximum(sv[..., 0], 1e-300)
    if float((sv[..., -1] / top).min()) <= BLOCK_COND_TOL:
        raise SingularBlockError("X11 block is numerically singular")
    return inv_raw(x11, beta)


def _blocks(spec: ChartSpec, coords: np.ndarray):
    """(A11, A12, A21) pivoted leading blocks of (B, k) coordinates of a psd
    chart (S11, S12 and S12*) or a rect chart (X11, X12, X21)."""
    if spec.space == "psd":
        s11, s12 = _upper_unpack(coords, spec.kind, *spec.sizes)
        q = spec.sizes[1]
        for i in range(q):  # the lower triangle of S11 by conjugation
            for j in range(i + 1, q):
                s11[:, j, i, 0] = s11[:, i, j, 0]
                s11[:, j, i, 1:] = -s11[:, i, j, 1:]
        return s11, s12, ct_raw(s12)
    if spec.space == "rect":
        return _rect_unpack(coords, spec.kind, *spec.sizes)
    raise RegistryError("a tri chart has no pivoted leading block")


def _inv_leading(spec: ChartSpec, a11: np.ndarray) -> np.ndarray:
    if spec.space == "psd":
        return _inv_hermitian_block(a11, spec.kind.beta)
    return _inv_general_block(a11, spec.kind.beta)


def _pivot_index(spec: ChartSpec, pivots, rows: int):
    """Index of the pivoted layout of `rows` matrices: x[index] puts the
    pivoted rows and columns first.  pivots are each row's own,
    (row_pivots (B, rows), col_pivots (B, cols)) int arrays, a psd pair
    being one symmetric permutation twice; None (no permutation) gives
    None.  Only their shapes are checked here (chart_at_batch checks that
    given pivots are permutations)."""
    if pivots is None:
        return None
    if spec.space == "tri":
        raise ShapeMismatchError("a tri chart takes no pivots")
    rp, cp = (np.asarray(p, dtype=int) for p in pivots)
    if rp.shape != (rows, spec.shape[0]) or cp.shape != (rows, spec.shape[1]):
        raise ShapeMismatchError(
            f"per-row pivots must be ({rows}, {spec.shape[0]}) and ({rows}, "
            f"{spec.shape[1]}), got {rp.shape} and {cp.shape}"
        )
    return np.arange(rows)[:, None, None], rp[:, :, None], cp[:, None, :]


def _complete(spec: ChartSpec, coords: np.ndarray, pivots=None) -> np.ndarray:
    """(B, k) coordinates of a psd or rect chart -> (B, rows, cols, beta)
    matrices: the leading blocks, A22 = (A21 A11^{-1}) A12 (symmetrized for
    psd), then the pivots (_pivot_index), if any, undone."""
    beta, q = spec.kind.beta, spec.sizes[-1]
    rows, cols = spec.shape
    index = _pivot_index(spec, pivots, coords.shape[0])
    a11, a12, a21 = _blocks(spec, coords)
    xp = np.empty((coords.shape[0], rows, cols, beta))
    xp[:, :q, :q] = a11
    xp[:, :q, q:] = a12
    xp[:, q:, :q] = a21
    if rows > q and cols > q:
        a22 = mul_raw(mul_raw(a21, _inv_leading(spec, a11), beta), a12, beta)
        if spec.space == "psd":
            a22 = (a22 + ct_raw(a22)) / 2.0
        xp[:, q:, q:] = a22
    if index is None:
        return xp
    out = np.empty_like(xp)
    out[index] = xp
    return out


# sizes each chart space takes
_SIZE_COUNT = {"psd": 2, "rect": 3, "tri": 2}


@dataclass(frozen=True)
class ChartSpec:
    """A chart of a rank-q manifold, the package's one chart type; a chart
    point is a (spec, coords) pair, and chart_at_batch gives the charts at a
    batch of matrices.

    space 'psd': sizes (m, q); 'rect': sizes (n, m, q); 'tri': sizes (q, m),
    q x m upper-triangular-leading factors with real positive diagonal.  A
    spec has no pivots: completion and extraction take each row's own (see
    complete_batch).  Construction checks beta <= 4 and 1 <= q <= the size
    limit (RankError), and stores sizes as a tuple of ints.
    """

    space: str
    kind: AlgebraKind
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.space not in _SIZE_COUNT:
            raise RegistryError(f"unknown chart space {self.space!r}")
        _require_assoc(self.kind.beta, "a chart")
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) != _SIZE_COUNT[self.space]:
            raise ShapeMismatchError(
                f"a {self.space} chart takes {_SIZE_COUNT[self.space]} sizes, got {sizes}"
            )
        q, limit = sizes if self.space == "tri" else (sizes[-1], min(sizes[:-1]))
        if not 1 <= q <= limit:
            raise RankError(f"q must lie in [1, {limit}], got {q}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the matrices the chart completes."""
        return (self.sizes[0],) * 2 if self.space == "psd" else self.sizes[:2]

    def coord_count(self) -> int:
        if self.space == "rect":
            return rect_coord_count(*self.sizes, self.kind.beta)
        return psd_coord_count(*self._upper_sizes, self.kind.beta)

    @property
    def _upper_sizes(self) -> tuple[int, int]:
        """(m, q) of the upper-triangle layout of a psd or tri chart."""
        return self.sizes if self.space == "psd" else self.sizes[::-1]

    def complete_batch(self, coords: np.ndarray, pivots=None) -> np.ndarray:
        """(B, k) chart coordinates -> (B, rows, cols, beta) matrices.  With
        pivots, each row completes in its own pivoted chart of these sizes:
        (row_pivots (B, rows), col_pivots (B, cols)) int arrays, as
        choose_pivot gives them (a pivot only scatters the completed
        matrix); without, in the unpivoted chart."""
        if self.space == "tri":
            _pivot_index(self, pivots, coords.shape[0])
            return np.concatenate(_upper_unpack(coords, self.kind, *self._upper_sizes), axis=2)
        return _complete(self, coords, pivots)

    def extract_batch(self, data: np.ndarray, pivots=None) -> np.ndarray:
        """(B, rows, cols, beta) matrices -> (B, k) chart coordinates: the
        independent entries of the pivoted leading rows and columns, with
        each row's own pivots when given (as in complete_batch)."""
        index = _pivot_index(self, pivots, data.shape[0])
        if self.space == "tri":
            q = self.sizes[0]
            return _upper_pack(data[:, :, :q], data[:, :, q:])
        q = self.sizes[-1]
        xp = data if index is None else data[index]
        if self.space == "psd":
            s11 = (xp[:, :q, :q] + ct_raw(xp[:, :q, :q])) / 2.0
            return _upper_pack(s11, xp[:, :q, q:])
        blocks = (xp[:, :q, :q], xp[:, :q, q:], xp[:, q:, :q])
        return np.concatenate([x.reshape(data.shape[0], -1) for x in blocks], axis=1)

    def leading_block(self, coords: np.ndarray) -> np.ndarray:
        """(B, k) chart coordinates -> (B, q, q, beta) pivoted leading blocks,
        the blocks completion inverts: S11 (psd, Hermitian) or X11 (rect)."""
        return _blocks(self, coords)[0]


def choose_pivot(data: np.ndarray, q: int, chart: str = "rect"):
    """Greedy max-magnitude pivoting on successive Schur complements, each
    matrix of a (B, n, m, beta) batch on its own.

    Returns (row_pivots (B, n), col_pivots (B, m)) int arrays: chart='rect'
    pivots completely on the entries' magnitudes, chart='psd' symmetrically
    on the real diagonal (one array twice).  Deterministic: ties break at
    the lowest flat index.  RankError names the first row whose pivot falls
    below PIVOT_TOL times its first.
    """
    data = np.asarray(data)
    if data.ndim != 4:
        raise ShapeMismatchError(f"choose_pivot takes a (B, n, m, beta) batch, got {data.shape}")
    beta = data.shape[-1]
    _require_assoc(beta, "choose_pivot")
    if chart not in ("rect", "psd"):
        raise RegistryError(f"unknown chart {chart!r}; expected 'rect' or 'psd'")
    count, n, m = data.shape[:3]
    if chart == "psd" and n != m:
        raise ShapeMismatchError("psd pivoting requires a square matrix")
    if not 1 <= q <= min(n, m):
        raise RankError(f"q must lie in [1, {min(n, m)}], got {q}")
    work = data.astype(float)
    batch = np.arange(count)
    order = (np.empty((count, q), dtype=int), np.empty((count, q), dtype=int))
    initial = None
    for t in range(q):
        if chart == "rect":
            score = _abs_raw(work)
        else:
            score = np.where(np.eye(m, dtype=bool), work[..., 0], -np.inf)
        for b in range(t):  # the rows and columns taken so far
            score[batch, order[0][:, b], :] = -np.inf
            score[batch, :, order[1][:, b]] = -np.inf
        i, j = np.divmod(np.argmax(score.reshape(count, -1), axis=1), m)
        best = score[batch, i, j]
        if initial is None:
            initial = best
        low = ~(best > PIVOT_TOL * np.maximum(initial, 1e-300))
        if low.any():
            what = "matrix rank" if chart == "rect" else "PSD rank"
            raise RankError(f"{what} is below q={q} (pivot {best[np.argmax(low)]:.3e})")
        piv_inv = inv_raw(work[batch, i, j][:, None, None], beta)
        colv = mul_raw(work[batch, :, j][:, :, None], piv_inv, beta)
        work = work - mul_raw(colv, work[batch, i][:, None], beta)
        order[0][:, t], order[1][:, t] = i, j
    pivots = []
    for taken, size in zip(order, (n, m)):  # taken in order, then the rest ascending
        rest = np.ones((count, size), dtype=bool)
        rest[batch[:, None], taken] = False
        pivots.append(np.concatenate([taken, np.nonzero(rest)[1].reshape(count, -1)], axis=1))
    if chart == "psd":
        pivots[1] = pivots[0]
    return tuple(pivots)


def chart_at_batch(data: np.ndarray, q: int, space: str, pivots=None):
    """The rank-q charts of `space` ('psd' or 'rect') at each of a batch of
    (B, rows, cols, beta) matrices: (spec, pivots, coords) with spec the
    chart of their sizes, pivots each row's own, as complete_batch and
    extract_batch take them, and coords (B, k) each row's coordinates in
    its pivoted chart.  pivots default to choose_pivot's; given ones skip
    it, and ShapeMismatchError names the first row whose pivots are not
    permutations of its rows and columns (one permutation twice for psd).
    ValueError for a non-finite coefficient, and RankError when a row's
    completion misses it by more than 1e-9 relative.  As in every
    completion, a psd chart's S11 positivity check is relative to each
    row's own largest eigenvalue, so a row charts as it does alone."""
    if space not in ("psd", "rect"):
        raise RegistryError(f"unknown chart {space!r}; expected 'rect' or 'psd'")
    data = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("matrix coefficients must be finite")
    count, rows, cols, beta = data.shape
    if space == "psd" and rows != cols:
        raise ShapeMismatchError("a psd chart needs a square matrix")
    sizes = (rows, q) if space == "psd" else (rows, cols, q)
    spec = ChartSpec(space, AlgebraKind.from_beta(beta), sizes)
    if pivots is None:
        pivots = choose_pivot(data, q, chart=space)
    else:
        pivots = tuple(np.asarray(p, dtype=int) for p in pivots)
        _pivot_index(spec, pivots, count)  # their shapes
        for label, p in zip(("row", "column"), pivots):
            bad = np.any(np.sort(p, axis=1) != np.arange(p.shape[1]), axis=1)
            if bad.any():
                i = int(np.argmax(bad))
                raise ShapeMismatchError(f"{label} pivot {i} must be a permutation of "
                                         f"range({p.shape[1]}), got {p[i].tolist()}")
        if space == "psd" and not np.array_equal(*pivots):
            raise ShapeMismatchError("a psd chart takes one symmetric permutation per row")
    return spec, pivots, _coords_at(spec, data, pivots)


def _coords_at(spec: ChartSpec, data: np.ndarray, pivots) -> np.ndarray:
    """(B, k) coordinates of the matrices data in spec's chart (each row's
    own pivoted chart with pivots); RankError at the first row whose
    completion misses it by more than 1e-9 relative."""
    coords = spec.extract_batch(data, pivots)
    for full, x in zip(_complete(spec, coords, pivots), data):
        err = frobenius_raw(full - x)
        if err > 1e-9 * frobenius_raw(x):
            raise RankError(
                f"matrix is not rank {spec.sizes[-1]} in this {spec.space} chart "
                f"(completion error {err:.3e})"
            )
    return coords


# ---------------------------------------------------------------------------
# Hausdorff density


def hausdorff_density_log_batch(spec: ChartSpec, coords: np.ndarray) -> np.ndarray:
    """log sqrt(det G^T G) per batch row of a chart: the log density of its
    Lebesgue measure against the Hausdorff measure (the area formula), with G
    the exact differential of the chart's completion.

    Completion writes each coordinate into the matrix once, or twice for the
    off-diagonal S11 entries and S12 of a psd chart (their conjugates fill
    the lower blocks), and fills X22 = X21 X11^{-1} X12, whose differential is
        dX22 = dX21 K - L dX11 K + L dX12,  K = X11^{-1} X12,  L = X21 X11^{-1}
    (S12* for X21 and L = K* for a psd chart).  So G^T G = D + J^T J with D
    the multiplicity of each coordinate and J the p columns of dX22, and by
    Sylvester's identity log det G^T G = sum log D + log det(I_p + J D^{-1} J^T).
    A full-rank chart completes nothing: its density is the constant
    (1/2) sum log D.
    """
    b, k = coords.shape
    if k != spec.coord_count():
        raise ShapeMismatchError(f"expected {spec.coord_count()} coordinates, got {k}")
    beta = spec.kind.beta
    if spec.space == "tri":  # the coordinates are the matrix entries
        once, p = k, 0
    else:
        q, (rows, cols) = spec.sizes[-1], spec.shape
        once, p = (q if spec.space == "psd" else k), (rows - q) * (cols - q) * beta
    base = 0.5 * (k - once) * LOG2
    if p == 0:
        return np.full(b, base)
    unit = np.eye(k)
    a11, a12, a21 = _blocks(spec, coords)
    a11_inv = _inv_leading(spec, a11)
    right = mul_raw(a11_inv, a12, beta)
    left = ct_raw(right) if spec.space == "psd" else mul_raw(a21, a11_inv, beta)
    d11, d12, d21 = _blocks(spec, unit)
    right, left = right[:, None], left[:, None]
    d22 = mul_raw(d21 - mul_raw(left, d11, beta), right, beta) + mul_raw(left, d12, beta)
    jt = d22.reshape(b, k, p)
    inv_mult = np.ones(k)
    inv_mult[once:] = 0.5
    gram = np.eye(p) + np.swapaxes(jt, 1, 2) @ (jt * inv_mult[:, None])
    sign, logdet = np.linalg.slogdet(gram)
    if np.any(sign <= 0.0):
        raise ConditioningError("chart Gram matrix is numerically singular")
    return base + 0.5 * logdet


# ---------------------------------------------------------------------------
# samplers


# a frame column this short before normalization is taken as dependent, and
# the frame is drawn again
FRAME_NORM_TOL = 1e-12


def sample_stiefel_batch(
    n: int, q: int, kind: AlgebraKind, rngs, count: int
) -> np.ndarray:
    """(count, n, q, beta) frames drawn from the invariant measure on V_{q,n},
    in len(rngs) equal blocks of consecutive rows, block g from rngs[g].

    The one degenerate-frame rule: a row whose Gram-Schmidt leaves a column
    norm at or below FRAME_NORM_TOL has its frame drawn again, for at most
    100 rounds.  Each round every generator, in order, makes one
    standard_normal((k, n, q, beta)) call for the k rows of its block still
    to draw (k = 0 draws nothing), so each block is its generator's own
    draw bit for bit; gram_schmidt_batch treats each row alone."""
    _require_assoc(kind.beta, "Stiefel sampling")
    if q > n:
        raise ShapeMismatchError(f"need q <= n, got q={q} n={n}")
    per, left = divmod(count, len(rngs))
    if left:
        raise ShapeMismatchError(f"need count a multiple of {len(rngs)}, got {count}")
    shape = (n, q, kind.beta)
    frames = None
    remaining = np.arange(count)
    for _ in range(100):
        owned = np.bincount(remaining // per, minlength=len(rngs))
        normals = np.concatenate([rng.standard_normal((k, *shape)) for rng, k in zip(rngs, owned)])
        got, norms = gram_schmidt_batch(normals, kind.beta)
        ok = (norms > FRAME_NORM_TOL).all(axis=1)
        if frames is None:
            if ok.all():
                return got
            frames = np.empty((count, *shape))
        frames[remaining[ok]] = got[ok]
        remaining = remaining[~ok]
        if remaining.size == 0:
            return frames
    raise ConfigurationError("Stiefel sampling kept drawing degenerate frames")


def _check_box(box) -> tuple[float, float]:
    lo, hi = float(box[0]), float(box[1])
    # a subnormal lo loses the precision every spectrum and factor needs
    if not sys.float_info.min <= lo < hi < math.inf:
        raise ConfigurationError(
            f"eigenvalue box must be finite with 0 < lo < hi and lo normal "
            f"(>= {sys.float_info.min}), got ({lo}, {hi})"
        )
    return lo, hi


def factorized_draw(
    rngs,
    box: tuple[float, float],
    q: int,
    dims: tuple[int, ...],
    kind: AlgebraKind,
    count: int,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """A draw from a factorized measure, `count` rows from each of a sequence
    of P generators rngs, stacked in order: a (P*count, q) spectrum, uniform
    on the box [lo, hi) and sorted descending, then one uniform Stiefel frame
    (P*count, d, q, beta) per d in dims, drawn in the order given.

    Each generator makes the calls of its own draw, in order: its
    uniform((count, q)) spectrum, then one standard normal batch per frame,
    a degenerate frame drawn again (sample_stiefel_batch, one call per d
    for all the rows) before the next.  So its rows are those of its own
    draw bit for bit, whatever the other generators: the sort and each
    round's gram_schmidt_batch run on all the rows, which treat each row
    alone.

    The measure's total mass is exp(factorized_mass_log(box, q, dims, beta)).
    """
    lo, hi = _check_box(box)
    spectrum = np.concatenate([rng.uniform(lo, hi, size=(count, q)) for rng in rngs])
    spectrum.sort(axis=1)
    frames = tuple(sample_stiefel_batch(d, q, kind, rngs, len(rngs) * count) for d in dims)
    return spectrum[:, ::-1].copy(), frames


def factorized_mass_log(
    box: tuple[float, float], q: int, dims: tuple[int, ...], beta: int
) -> float:
    """log total mass of the measure factorized_draw samples: the sorted
    spectra of the box, (hi - lo)^q / q!, times the Stiefel volumes of dims,
    added in the order given."""
    lo, hi = box
    out = q * math.log(hi - lo) - math.lgamma(q + 1)
    for d in dims:
        out += stiefel_volume_log(q, d, beta)
    return out


def assemble(spectrum: np.ndarray, frames: tuple[np.ndarray, ...], beta: int) -> np.ndarray:
    """The matrices frames[0] diag(spectrum) frames[-1]* of a factorized_draw
    output as it comes: spectrum (B, q), each frame (B, d, q, beta).  One
    frame gives the psd S = W diag(lam) W*, made exactly Hermitian; two give
    the rect X = V diag(d) W*, and reversed frames W diag(d) V*, X*'s shape."""
    out = mul_raw(frames[0] * spectrum[:, None, :, None], ct_raw(frames[-1]), beta)
    return (out + ct_raw(out)) / 2.0 if len(frames) == 1 else out
