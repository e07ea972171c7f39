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
samplers for the factorized measures (spectrum box x uniform Stiefel frames).

A chart is a ChartSpec, which validates its sizes and pivots; a chart point
is a (spec, coords) pair, and chart_at gives the chart at one matrix.
Everything is written batch-first on raw coefficient arrays.  The block
inverses of completion (S11^{-1}, X11^{-1}) and their positivity and
conditioning checks run on the small-block kernels of linalg: closed forms
for q = 1 (and q = 2 for S11), LAPACK on the blocks' complex form
(linalg.complex_raw) otherwise.
"""
from __future__ import annotations

import math
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
    Mat,
    _require_assoc,
    ct_raw,
    eigvalsh_raw,
    inv_hermitian_raw,
    inv_raw,
    mul_raw,
    svdvals_raw,
)
from .measures import LOG2, LOGPI, stiefel_volume_log, tau

PIVOT_TOL = 1e-10
BLOCK_COND_TOL = 1e-10


def rect_coord_count(n: int, m: int, q: int, beta: int) -> int:
    return (n * q + m * q - q * q) * beta


def psd_coord_count(m: int, q: int, beta: int) -> int:
    # q real diagonals, full off-diagonals above them, and the S12 block
    return q + beta * q * (q - 1) // 2 + beta * q * (m - q)


def _check_perm(perm, size: int, label: str) -> tuple[int, ...]:
    perm = tuple(int(p) for p in np.ravel(perm))
    if sorted(perm) != list(range(size)):
        raise ShapeMismatchError(f"{label} must be a permutation of range({size}), got {perm}")
    return perm


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


def _psd_unpack(coords: np.ndarray, kind: AlgebraKind, m: int, q: int):
    beta = kind.beta
    k = psd_coord_count(m, q, beta)
    if coords.shape[1] != k:
        raise ShapeMismatchError(f"expected {k} coordinates, got {coords.shape[1]}")
    b = coords.shape[0]
    s11 = np.zeros((b, q, q, beta))
    pos = 0
    for i in range(q):
        s11[:, i, i, 0] = coords[:, pos]
        pos += 1
    for i in range(q):
        for j in range(i + 1, q):
            v = coords[:, pos : pos + beta]
            s11[:, i, j, :] = v
            s11[:, j, i, 0] = v[:, 0]
            s11[:, j, i, 1:] = -v[:, 1:]
            pos += beta
    s12 = coords[:, pos:].reshape(b, q, m - q, beta)
    return s11, s12


def _psd_pack(s11: np.ndarray, s12: np.ndarray) -> np.ndarray:
    b, q = s11.shape[:2]
    parts = [s11[:, i, i, 0][:, None] for i in range(q)]
    for i in range(q):
        for j in range(i + 1, q):
            parts.append(s11[:, i, j, :])
    parts.append(s12.reshape(b, -1))
    return np.concatenate(parts, axis=1)


def _inv_hermitian_block(s11: np.ndarray, beta: int) -> np.ndarray:
    """Batched inverse of Hermitian PD blocks, with a positivity check
    relative to the largest eigenvalue (1 for an all-zero batch)."""
    eig = eigvalsh_raw(s11, beta)
    top = float(np.abs(eig).max()) if eig.size else 0.0
    if float(eig.min()) <= 1e-12 * (top if top > 0.0 else 1.0):
        raise NotPsdError(
            f"S11 block is not positive definite (min eigenvalue {eig.min():.3e})"
        )
    return inv_hermitian_raw(s11, beta)


def _inv_general_block(x11: np.ndarray, beta: int) -> np.ndarray:
    sv = svdvals_raw(x11, beta)
    top = np.maximum(sv[..., 0], 1e-300)
    if float((sv[..., -1] / top).min()) <= BLOCK_COND_TOL:
        raise SingularBlockError("X11 block is numerically singular")
    return inv_raw(x11, beta)


def complete_psd_batch(
    coords: np.ndarray, kind: AlgebraKind, m: int, q: int, pivot
) -> np.ndarray:
    """(B, k) chart coordinates -> (B, m, m, beta) full PSD matrices."""
    beta = kind.beta
    s11, s12 = _psd_unpack(coords, kind, m, q)
    b = coords.shape[0]
    if m == q:
        sp = s11
    else:
        s11_inv = _inv_hermitian_block(s11, beta)
        s21 = ct_raw(s12)
        s22 = mul_raw(mul_raw(s21, s11_inv, beta), s12, beta)
        s22 = (s22 + ct_raw(s22)) / 2.0
        sp = np.empty((b, m, m, beta))
        sp[:, :q, :q] = s11
        sp[:, :q, q:] = s12
        sp[:, q:, :q] = s21
        sp[:, q:, q:] = s22
    pv = np.asarray(pivot, dtype=int)
    out = np.empty_like(sp)
    out[:, pv[:, None], pv[None, :], :] = sp
    return out


def complete_rect_batch(
    coords: np.ndarray, kind: AlgebraKind, n: int, m: int, q: int, row_pivot, col_pivot
) -> np.ndarray:
    """(B, k) chart coordinates -> (B, n, m, beta) full rank-q matrices."""
    beta = kind.beta
    x11, x12, x21 = _rect_unpack(coords, kind, n, m, q)
    b = coords.shape[0]
    xp = np.empty((b, n, m, beta))
    xp[:, :q, :q] = x11
    xp[:, :q, q:] = x12
    xp[:, q:, :q] = x21
    if n > q and m > q:
        x11_inv = _inv_general_block(x11, beta)
        xp[:, q:, q:] = mul_raw(mul_raw(x21, x11_inv, beta), x12, beta)
    rp = np.asarray(row_pivot, dtype=int)
    cp = np.asarray(col_pivot, dtype=int)
    out = np.empty_like(xp)
    out[:, rp[:, None], cp[None, :], :] = xp
    return out


def _tri_unpack(coords: np.ndarray, kind: AlgebraKind, q: int, m: int) -> np.ndarray:
    beta = kind.beta
    b = coords.shape[0]
    t = np.zeros((b, q, m, beta))
    pos = 0
    for i in range(q):
        t[:, i, i, 0] = coords[:, pos]
        pos += 1
    for i in range(q):
        for j in range(i + 1, m):
            t[:, i, j, :] = coords[:, pos : pos + beta]
            pos += beta
    return t


def _tri_pack(t: np.ndarray, kind: AlgebraKind, q: int, m: int) -> np.ndarray:
    parts = [t[:, i, i, 0][:, None] for i in range(q)]
    for i in range(q):
        for j in range(i + 1, m):
            parts.append(t[:, i, j, :])
    return np.concatenate(parts, axis=1)


# sizes each chart space takes
_SIZE_COUNT = {"psd": 2, "rect": 3, "tri": 2}


@dataclass(frozen=True)
class ChartSpec:
    """A chart of a rank-q manifold, the package's one chart type; a chart
    point is a (spec, coords) pair, and chart_at gives the chart at a matrix.

    space 'psd': sizes (m, q), pivots one symmetric permutation of range(m);
    'rect': sizes (n, m, q), pivots (row_pivot, col_pivot);
    'tri': sizes (q, m), q x m upper-triangular-leading factors with real
    positive diagonal, no pivots.  Construction checks beta <= 4, 1 <= q <=
    the size limit (RankError) and that each pivot is a permutation
    (ShapeMismatchError), and stores sizes and pivots as tuples of ints.
    """

    space: str
    kind: AlgebraKind
    sizes: tuple[int, ...]
    pivots: tuple = ()

    def __post_init__(self) -> None:
        if self.space not in _SIZE_COUNT:
            raise RegistryError(f"unknown chart space {self.space!r}")
        _require_assoc(self.kind.beta, "a chart")
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) != _SIZE_COUNT[self.space]:
            raise ShapeMismatchError(
                f"a {self.space} chart takes {_SIZE_COUNT[self.space]} sizes, got {sizes}"
            )
        if self.space == "psd":
            m, q = sizes
            limit, pivots = m, _check_perm(self.pivots, m, "pivot")
        elif self.space == "rect":
            n, m, q = sizes
            if len(self.pivots) != 2:
                raise ShapeMismatchError("a rect chart takes pivots (row_pivot, col_pivot)")
            limit = min(n, m)
            pivots = (
                _check_perm(self.pivots[0], n, "row_pivot"),
                _check_perm(self.pivots[1], m, "col_pivot"),
            )
        else:
            q, limit = sizes
            if len(self.pivots):
                raise ShapeMismatchError("a tri chart takes no pivots")
            pivots = ()
        if not 1 <= q <= limit:
            raise RankError(f"q must lie in [1, {limit}], got {q}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "pivots", pivots)

    def coord_count(self) -> int:
        beta = self.kind.beta
        if self.space == "psd":
            return psd_coord_count(*self.sizes, beta)
        if self.space == "rect":
            return rect_coord_count(*self.sizes, beta)
        q, m = self.sizes
        return q + beta * (q * (q - 1) // 2 + q * (m - q))

    def complete_batch(self, coords: np.ndarray) -> np.ndarray:
        """(B, k) chart coordinates -> (B, rows, cols, beta) matrices."""
        if self.space == "psd":
            m, q = self.sizes
            return complete_psd_batch(coords, self.kind, m, q, self.pivots)
        if self.space == "rect":
            n, m, q = self.sizes
            rp, cp = self.pivots
            return complete_rect_batch(coords, self.kind, n, m, q, rp, cp)
        return _tri_unpack(coords, self.kind, *self.sizes)

    def extract_batch(self, data: np.ndarray) -> np.ndarray:
        """(B, rows, cols, beta) matrices -> (B, k) chart coordinates: the
        independent entries of the pivoted leading rows and columns."""
        if self.space == "tri":
            return _tri_pack(data, self.kind, *self.sizes)
        q = self.sizes[-1]
        if self.space == "psd":
            pv = np.asarray(self.pivots, dtype=int)
            sp = data[:, pv[:, None], pv[None, :], :]
            s11 = (sp[:, :q, :q] + ct_raw(sp[:, :q, :q])) / 2.0
            return _psd_pack(s11, sp[:, :q, q:])
        rp, cp = (np.asarray(p, dtype=int) for p in self.pivots)
        xp = data[:, rp[:, None], cp[None, :], :]
        blocks = (xp[:, :q, :q], xp[:, :q, q:], xp[:, q:, :q])
        return np.concatenate([x.reshape(data.shape[0], -1) for x in blocks], axis=1)

    def leading_block(self, coords: np.ndarray) -> np.ndarray:
        """(B, k) chart coordinates -> (B, q, q, beta) pivoted leading blocks,
        the blocks completion inverts: S11 (psd, Hermitian) or X11 (rect)."""
        if self.space == "psd":
            return _psd_unpack(coords, self.kind, *self.sizes)[0]
        if self.space == "rect":
            return _rect_unpack(coords, self.kind, *self.sizes)[0]
        raise RegistryError("a tri chart has no pivoted leading block")


def _entry_inv(p: np.ndarray) -> np.ndarray:
    n2 = float(np.dot(p, p))
    out = p.copy()
    out[1:] = -out[1:]
    return out / n2


def choose_pivot(a: Mat, q: int, chart: str = "rect"):
    """Greedy max-magnitude pivoting on successive Schur complements.

    chart='rect' returns (row_pivot, col_pivot) from complete pivoting;
    chart='psd' returns a single symmetric permutation from diagonal pivoting.
    Deterministic: ties break at the lowest flat index.
    """
    _require_assoc(a.kind.beta, "choose_pivot")
    beta = a.kind.beta
    if chart == "rect":
        n, m = a.rows, a.cols
        if not 1 <= q <= min(n, m):
            raise RankError(f"q must lie in [1, {min(n, m)}], got {q}")
        work = a.data.copy()
        rows: list[int] = []
        cols: list[int] = []
        initial = None
        for _ in range(q):
            norms = np.linalg.norm(work, axis=2)
            norms[rows, :] = -1.0
            norms[:, cols] = -1.0
            i, j = np.unravel_index(int(np.argmax(norms)), norms.shape)
            best = norms[i, j]
            if initial is None:
                initial = best
            if best <= PIVOT_TOL * max(initial, 1e-300):
                raise RankError(f"matrix rank is below q={q} (pivot {best:.3e})")
            piv_inv = _entry_inv(work[i, j])
            colv = mul_raw(
                work[:, j].reshape(n, 1, beta), piv_inv.reshape(1, 1, beta), beta
            )
            work = work - mul_raw(colv, work[i].reshape(1, m, beta), beta)
            rows.append(int(i))
            cols.append(int(j))
        row_pivot = tuple(rows + [i for i in range(n) if i not in rows])
        col_pivot = tuple(cols + [j for j in range(m) if j not in cols])
        return row_pivot, col_pivot
    if chart == "psd":
        m = a.rows
        if a.rows != a.cols:
            raise ShapeMismatchError("psd pivoting requires a square matrix")
        if not 1 <= q <= m:
            raise RankError(f"q must lie in [1, {m}], got {q}")
        work = a.data.copy()
        sel: list[int] = []
        initial = None
        for _ in range(q):
            diag = work[np.arange(m), np.arange(m), 0].copy()
            diag[sel] = -np.inf
            i = int(np.argmax(diag))
            best = diag[i]
            if initial is None:
                initial = best
            if not best > PIVOT_TOL * max(initial, 1e-300):
                raise RankError(f"PSD rank is below q={q} (pivot {best:.3e})")
            piv_inv = _entry_inv(work[i, i])
            colv = mul_raw(
                work[:, i].reshape(m, 1, beta), piv_inv.reshape(1, 1, beta), beta
            )
            work = work - mul_raw(colv, work[i].reshape(1, m, beta), beta)
            sel.append(i)
        return tuple(sel + [i for i in range(m) if i not in sel])
    raise RegistryError(f"unknown chart {chart!r}; expected 'rect' or 'psd'")


def chart_at(a: Mat, q: int, space: str, pivots=None) -> tuple[ChartSpec, np.ndarray]:
    """The rank-q chart of `space` ('psd' or 'rect') at the matrix a, and a's
    coordinates in it.  pivots default to choose_pivot's; RankError when the
    completion of the coordinates misses a by more than 1e-9 relative."""
    if space not in ("psd", "rect"):
        raise RegistryError(f"unknown chart {space!r}; expected 'rect' or 'psd'")
    if pivots is None:
        pivots = choose_pivot(a, q, chart=space)
    if space == "psd":
        if a.rows != a.cols:
            raise ShapeMismatchError("a psd chart needs a square matrix")
        spec = ChartSpec(space, a.kind, (a.rows, q), pivots)
        coords = spec.extract_batch(a.data[None])
        back = complete_psd_batch(coords, a.kind, a.rows, q, spec.pivots)
    else:
        spec = ChartSpec(space, a.kind, (a.rows, a.cols, q), pivots)
        coords = spec.extract_batch(a.data[None])
        back = complete_rect_batch(coords, a.kind, *spec.sizes, *spec.pivots)
    err = float(np.linalg.norm(back[0] - a.data))
    if err > 1e-9 * max(1.0, float(np.linalg.norm(a.data))):
        raise RankError(
            f"matrix is not rank {q} in this {space} chart (completion error {err:.3e})"
        )
    return spec, coords[0]


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
    kind, beta = spec.kind, spec.kind.beta
    if spec.space == "psd":
        m, q = spec.sizes
        once, p = q, (m - q) ** 2 * beta
    elif spec.space == "rect":
        n, m, q = spec.sizes
        once, p = k, (n - q) * (m - q) * beta
    else:  # tri: the coordinates are the matrix entries
        once, p = k, 0
    base = 0.5 * (k - once) * LOG2
    if p == 0:
        return np.full(b, base)
    unit = np.eye(k)
    if spec.space == "psd":
        s11, s12 = _psd_unpack(coords, kind, m, q)
        right = mul_raw(_inv_hermitian_block(s11, beta), s12, beta)
        left = ct_raw(right)
        d11, d12 = _psd_unpack(unit, kind, m, q)
        d21 = ct_raw(d12)
    else:
        x11, x12, x21 = _rect_unpack(coords, kind, n, m, q)
        x11_inv = _inv_general_block(x11, beta)
        right = mul_raw(x11_inv, x12, beta)
        left = mul_raw(x21, x11_inv, beta)
        d11, d12, d21 = _rect_unpack(unit, kind, n, m, q)
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


def sample_stiefel_batch(
    n: int, q: int, kind: AlgebraKind, rng: np.random.Generator, count: int
) -> np.ndarray:
    """(count, n, q, beta) frames drawn from the invariant measure on V_{q,n}."""
    _require_assoc(kind.beta, "Stiefel sampling")
    if q > n:
        raise ShapeMismatchError(f"need q <= n, got q={q} n={n}")
    frames = None
    remaining = np.arange(count)
    for _ in range(100):
        draw = rng.standard_normal((remaining.size, n, q, kind.beta))
        got, norms = gram_schmidt_batch(draw, kind.beta)
        ok = (norms > 1e-12).all(axis=1)
        if frames is None:
            if ok.all():
                return got
            frames = np.empty((count, n, q, kind.beta))
        frames[remaining[ok]] = got[ok]
        remaining = remaining[~ok]
        if remaining.size == 0:
            return frames
    raise ConfigurationError("Stiefel sampling kept drawing degenerate frames")


def _check_box(box) -> tuple[float, float]:
    lo, hi = float(box[0]), float(box[1])
    if not 0.0 < lo < hi < math.inf:
        raise ConfigurationError(
            f"eigenvalue box must be finite with 0 < lo < hi, got ({lo}, {hi})"
        )
    return lo, hi


def factorized_draw(
    rng: np.random.Generator,
    box: tuple[float, float],
    q: int,
    dims: tuple[int, ...],
    kind: AlgebraKind,
    count: int,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """A draw from a factorized measure: a (count, q) spectrum, uniform on
    the box [lo, hi) and sorted descending, then one uniform Stiefel frame
    (count, d, q, beta) per d in dims, drawn in the order given.

    The measure's total mass is exp(factorized_mass_log(box, q, dims, beta)).
    """
    lo, hi = _check_box(box)
    spectrum = rng.uniform(lo, hi, size=(count, q))
    spectrum.sort(axis=1)
    frames = tuple(sample_stiefel_batch(d, q, kind, rng, count) for d in dims)
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


def sd_density_log_batch(lam: np.ndarray, beta: int, m: int) -> np.ndarray:
    """Vectorized spectral-decomposition density over (B, q) spectra."""
    q = lam.shape[1]
    logs = np.log(lam)
    out = -q * LOG2 + tau(beta, q) * LOGPI + beta * (m - q) * logs.sum(axis=1)
    iu, ju = np.triu_indices(q, k=1)
    if iu.size:
        out = out + beta * np.log(lam[:, iu] - lam[:, ju]).sum(axis=1)
    return out


def svd_density_log_batch(d: np.ndarray, beta: int, n: int, m: int) -> np.ndarray:
    """Vectorized SVD density over (B, q) spectra."""
    q = d.shape[1]
    logs = np.log(d)
    out = (
        -q * LOG2
        + tau(beta, q) * LOGPI
        + (beta * (n + m - 2 * q + 1) - 1) * logs.sum(axis=1)
    )
    iu, ju = np.triu_indices(q, k=1)
    if iu.size:
        out = out + beta * np.log(d[:, iu] ** 2 - d[:, ju] ** 2).sum(axis=1)
    return out


def assemble_sd_batch(w1: np.ndarray, lam: np.ndarray, beta: int) -> np.ndarray:
    scaled = w1 * lam[:, None, :, None]
    s = mul_raw(scaled, ct_raw(w1), beta)
    return (s + ct_raw(s)) / 2.0


def assemble_svd_batch(
    v1: np.ndarray, d: np.ndarray, w1: np.ndarray, beta: int
) -> np.ndarray:
    return mul_raw(v1 * d[:, None, :, None], ct_raw(w1), beta)
