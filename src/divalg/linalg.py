"""Dense matrices over a division algebra.

A matrix is stored as an (n, m, beta) float64 array of coefficients plus an
algebra tag.  mul_raw, the one matrix-product kernel, sums the entrywise
Cayley-Dickson products of algebra.mul over the inner index, on complex
views of the coefficients.  Every spectrum, determinant, rank and inverse
runs on the complex form (complex_raw), the smallest faithful matrix
representation: the real matrix for beta=1, the n x m complex matrix for
beta=2 and the 2n x 2m complex adjoint for beta=4, in which every algebra
eigenvalue or singular value appears r = complex_multiplicity(beta) times.
The single-matrix sdet_log, numerical_rank and mat_inv take one LAPACK call
on it.  The small-block
kernels (eigvalsh_raw, svdvals_raw, inv_raw, inv_hermitian_raw,
logdet_hermitian_raw, inv_sqrt_hermitian_raw) give the engines' batched
spectra, inverses, log-determinants and whitening on coefficient arrays:
closed forms for blocks of side 1 (single rows and columns for singular
values), Hermitian blocks of side 2 and the singular values of 2 x 2
blocks, LAPACK on the complex form for the rest.
Octonion matrices support construction, addition, conjugation and products
(mul_raw) only: non-associativity breaks the complex form.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import AlgebraKind, Scalar, _cd_mul, _cd_view, _pair_view, conj_raw
from .errors import (
    AlgebraMismatchError,
    InternalConsistencyError,
    ShapeMismatchError,
    SingularBlockError,
    UnsupportedAlgebraError,
)

# Raw kernels operate on plain coefficient arrays with arbitrary leading batch
# axes; the Mat wrappers below delegate to them.
#
# mul_raw has two loop orders for the one product rule, chosen by the batch
# row count.  Below _ENTRY_ROWS rows it loops over the inner index k, each
# term one broadcast over (n, p): cheap for a single matrix, but on a large
# batch numpy's inner loop runs over only p elements per row.  From
# _ENTRY_ROWS rows on, _mul_entries loops over the output entries (i, j) and
# k, each step one ufunc on whole (rows,) planes, with no transposing copy.
# Both sum the same terms in the same order, so they agree bit for bit.
# Microseconds per call, k loop -> entry loop (scripts/bench_kernels.py,
# minimum of 3 runs x 7 repeats, 2-core x86-64 with AVX-512, numpy 2.4.6):
#
#   (n, m, p)   beta=1: 512 rows  4096       beta=2: 512  4096       beta=4: 512  4096
#   (3, 2, 3)       46->55     314->203       51->58     728->263      246->209   3420->1916
#   (2, 3, 2)       52->36     322->106       51->43     323->163      227->144   1714->1369
#   (3, 3, 2)       64->54     438->187       66->62     484->254      314->208   2523->1946
#   (2, 1, 2)       16->12      98->26        18->16     103->44        78->55     478->245
#   (2, 2, 1)       11->13      45->28        15->16      54->40        67->56     336->216
#   (1, 3, 1)        9->10      18->21        12->13      27->29        59->42     183->139
#   (3, 1, 1)        6->10      23->20         8->13      33->29        38->40     210->149
#
# At 512 rows the seven shapes sum to 425 -> 412 us at beta <= 2 and 1028 ->
# 753 us at beta=4; at 256 rows to 264 -> 313 and 628 -> 548.  Inner
# products and column scalings (n = p = 1) at beta <= 2 keep the k loop at
# any batch size: it is already batch-inner there, and the entry loop only
# adds its setup.  Octonions (beta=8, Mat products only) keep the k loop.
_ENTRY_ROWS = 512


def mul_raw(a: np.ndarray, b: np.ndarray, beta: int) -> np.ndarray:
    """Matrix product over the algebra, (..., n, m, beta) x (..., m, p, beta).

    Entry (i, j) is sum_k a_ik b_kj, each term one Cayley-Dickson product
    (algebra._cd_mul) on complex views of the coefficients; this needs no
    associativity, so it holds for octonions too.  Leading axes broadcast.
    From _ENTRY_ROWS batch rows on (beta <= 4, except n = p = 1 at beta <=
    2), _mul_entries gives the same bits in the batch-inner loop order.
    """
    m = a.shape[-2]
    if b.shape[-3] != m:
        raise ShapeMismatchError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    x, y = _cd_view(a, beta), _cd_view(b, beta)
    inner = beta <= 2 and a.shape[-3] == b.shape[-2] == 1
    if beta <= 4 and not inner and (
        math.prod(a.shape[:-3]) >= _ENTRY_ROWS or math.prod(b.shape[:-3]) >= _ENTRY_ROWS
    ):
        return _mul_entries(x, y).view(np.float64)
    out = _cd_mul(x[..., :, 0, None, :], y[..., None, 0, :, :])
    for k in range(1, m):
        out += _cd_mul(x[..., :, k, None, :], y[..., None, k, :, :])
    return out.view(np.float64)


def _mul_entries(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mul_raw on _cd_view arrays of beta <= 4, entry by entry.

    Each step is one ufunc on whole (rows,) planes of the batch.  A term is
    written into the scratch planes t, u and then added to its entry, so it
    rounds as the broadcast term does; at beta=4, with x = (P, Q) and
    y = (R, S), its halves are P R - conj(S) Q and S P + Q conj(R), the
    right factor conjugated once.
    """
    n, m, h = x.shape[-3:]
    p = y.shape[-2]
    lead = x.shape[:-3]
    if lead != y.shape[:-3]:
        lead = np.broadcast_shapes(lead, y.shape[:-3])
    out = np.empty(lead + (n, p, h), np.result_type(x, y))
    t, u = np.empty(lead, out.dtype), np.empty(lead, out.dtype)
    y_bar = y.conj() if h == 2 else y
    for i in range(n):
        for j in range(p):
            for c in range(h):
                acc = out[..., i, j, c]
                for k in range(m):
                    dst = acc if k == 0 else t
                    if c == 0:
                        np.multiply(x[..., i, k, 0], y[..., k, j, 0], out=dst)
                        if h == 2:
                            np.multiply(y_bar[..., k, j, 1], x[..., i, k, 1], out=u)
                            np.subtract(dst, u, out=dst)
                    else:
                        np.multiply(y[..., k, j, 1], x[..., i, k, 0], out=dst)
                        np.multiply(x[..., i, k, 1], y_bar[..., k, j, 0], out=u)
                        np.add(dst, u, out=dst)
                    if k:
                        acc += t
    return out


def ct_raw(a: np.ndarray) -> np.ndarray:
    return conj_raw(np.swapaxes(a, -3, -2))


def _require_assoc(beta: int, what: str) -> None:
    if beta > 4:
        raise UnsupportedAlgebraError(f"{what} requires an associative algebra (beta <= 4)")


def complex_multiplicity(beta: int) -> int:
    """How often complex_raw's form repeats each algebra eigenvalue or
    singular value: 2 for the quaternion adjoint, else 1."""
    return 2 if beta == 4 else 1


def complex_raw(a: np.ndarray, beta: int) -> np.ndarray:
    """Smallest faithful complex form, (..., n, m, beta) -> (..., r*n, r*m).

    beta=1: the real (n, m) matrix; beta=2: the complex matrix a0 + i a1, a
    view where the coefficient axis is contiguous; beta=4: the complex
    adjoint, in an interleaved 2 x 2 block layout, where the entry
    p + q j (p = a0 + i a1, q = a2 + i a3) becomes [[p, -q], [conj q, conj p]].
    It is a homomorphism, complex_raw(mul_raw(a, b)) = complex_raw(a) @
    complex_raw(b), and it maps ct_raw to the conjugate transpose.
    """
    _require_assoc(beta, "complex_raw")
    if beta == 1:
        return a[..., 0]
    if beta == 2:
        return _pair_view(a)[..., 0]
    n, m = a.shape[-3], a.shape[-2]
    z = _pair_view(a)
    p, q = z[..., 0], z[..., 1]
    out = np.empty(a.shape[:-3] + (n, 2, m, 2), dtype=complex)
    out[..., 0, :, 0] = p
    out[..., 0, :, 1] = -q
    out[..., 1, :, 0] = q.conj()
    out[..., 1, :, 1] = p.conj()
    return out.reshape(a.shape[:-3] + (2 * n, 2 * m))


def complex_fold(c: np.ndarray, beta: int) -> np.ndarray:
    """Inverse of complex_raw; for beta=4 reads the first column of each 2 x 2 block."""
    _require_assoc(beta, "complex_fold")
    if beta == 1:
        return c[..., None]
    if beta == 2:
        return np.ascontiguousarray(c).view(np.float64).reshape(c.shape + (2,))
    n, m = c.shape[-2] // 2, c.shape[-1] // 2
    p, q_conj = c[..., 0::2, 0::2], c[..., 1::2, 0::2]
    out = np.empty(c.shape[:-2] + (n, m, 4))
    out[..., 0] = p.real
    out[..., 1] = p.imag
    out[..., 2] = q_conj.real
    # an assignment, not np.negative(..., out=...): numpy 2.4.6 writes
    # wrong values into some small strided out= views
    out[..., 3] = -q_conj.imag
    return out


def hermitian_part(c: np.ndarray) -> np.ndarray:
    """(C + C*) / 2 of batched real or complex matrices."""
    return (c + np.swapaxes(c, -1, -2).conj()) / 2.0


# ---------------------------------------------------------------------------
# Batched small-block kernels on coefficient arrays, (..., n, n, beta) for
# any beta <= 4.  Blocks of side 1 and 2 take closed forms; larger blocks run
# LAPACK on complex_raw and average each multiplet of r equal values.  The
# 2 x 2 Hermitian forms hold over H with the real invariants tr and
# det = ad - |b|^2 (Zhang 1997, LAA 251), since the diagonal is real.


def _sq_abs(x: np.ndarray) -> np.ndarray:
    """|x|^2 of (..., k) coefficient rows, summed slice by slice in
    coefficient order: a numpy reduction over so short an axis costs
    several times as much (for k < 8 it adds in the same order)."""
    out = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        out += x[..., i] * x[..., i]
    return out


def _abs_raw(x: np.ndarray) -> np.ndarray:
    """|x| of (..., beta) algebra entries, scaled by the largest coefficient
    so that entries near 1e+-200 neither overflow nor underflow."""
    top = np.abs(x).max(axis=-1)
    safe = np.where(top > 0.0, top, 1.0)
    return safe * np.sqrt(_sq_abs(x / safe[..., None]))


def _herm2(a: np.ndarray):
    """The Hermitian parts of (..., 2, 2, beta) blocks as scale * [[p, b],
    [conj b, d]]: returns (scale, p, d, b, |b|^2), scale the largest
    absolute coefficient (1 for a zero block)."""
    b = (a[..., 0, 1, :] + conj_raw(a[..., 1, 0, :])) / 2.0
    p, d = a[..., 0, 0, 0], a[..., 1, 1, 0]
    scale = np.maximum(np.maximum(np.abs(p), np.abs(d)), np.abs(b).max(axis=-1))
    scale = np.where(scale > 0.0, scale, 1.0)
    b = b / scale[..., None]
    return scale, p / scale, d / scale, b, _sq_abs(b)


def _adj2(shape, p, d, b, shift, den) -> np.ndarray:
    """(adj [[p, b], [conj b, d]] + shift I) / den as (..., 2, 2, beta) blocks."""
    out = np.zeros(shape)
    out[..., 0, 0, 0] = (d + shift) / den
    out[..., 1, 1, 0] = (p + shift) / den
    out[..., 0, 1, :] = -b / den[..., None]
    out[..., 1, 0, :] = -conj_raw(b) / den[..., None]
    return out


def _single(values: np.ndarray, beta: int) -> np.ndarray:
    """(..., 1, 1, beta) blocks holding the real scalars values."""
    out = np.zeros(values.shape + (1, 1, beta))
    out[..., 0, 0, 0] = values
    return out


def _group_multiplets(values: np.ndarray, r: int) -> np.ndarray:
    """Means of consecutive groups of r values along the last axis: the
    algebra spectrum of a sorted complex_raw spectrum with r = complex_multiplicity."""
    if values.shape[-1] % r:
        raise InternalConsistencyError(f"spectrum size is not a multiple of r={r}")
    return values.reshape(values.shape[:-1] + (-1, r)).mean(axis=-1)


def eigvalsh_raw(a: np.ndarray, beta: int) -> np.ndarray:
    """Ascending eigenvalues (..., n) of the Hermitian parts of (..., n, n,
    beta) blocks.

    Side 2: with s = (p + d)/2 and r = sqrt(((p - d)/2)^2 + |b|^2), the
    non-cancelling root s + r (s - r when s < 0), and the other one as
    det / that root; a zero block gives zeros.
    """
    n = a.shape[-2]
    if n == 1:
        return a[..., 0, :, 0].copy()
    if n == 2:
        scale, p, d, _, bb = _herm2(a)
        s = (p + d) / 2.0
        r = np.sqrt(((p - d) / 2.0) ** 2 + bb)
        big = np.where(s >= 0.0, s + r, s - r)
        small = np.divide(p * d - bb, big, out=np.zeros_like(big), where=big != 0.0)
        lo, hi = np.where(s >= 0.0, small, big), np.where(s >= 0.0, big, small)
        return np.stack([lo, hi], axis=-1) * scale[..., None]
    w = np.linalg.eigvalsh(hermitian_part(complex_raw(a, beta)))
    return _group_multiplets(w, complex_multiplicity(beta))


def _entry_mul(x: np.ndarray, y: np.ndarray, beta: int) -> np.ndarray:
    """Products x y of (..., beta) algebra entries."""
    return _cd_mul(_cd_view(x, beta), _cd_view(y, beta)).view(np.float64)


def _svdvals2(a: np.ndarray, beta: int) -> np.ndarray:
    """Descending singular values (..., 2) of (..., 2, 2, beta) blocks.

    Entries are divided by the largest absolute coefficient, and a row and a
    column swap bring the largest entry a to the corner of [[a, b], [c, d]].
    sigma_1^2 is the top eigenvalue of A* A, (F^2 + sqrt(g^2 + 4 |conj(a) b
    + conj(c) d|^2)) / 2 with F the Frobenius norm and g the difference of
    the squared column norms: a sum of non-negative terms, so it keeps its
    accuracy when sigma_1 and sigma_2 are close.  sigma_2 = |Delta| /
    sigma_1, with |Delta| = |a| |d - c a^-1 b| the product of the singular
    values (the Study determinant over H), accurate when sigma_2 is tiny.
    """
    e = a.reshape(-1, 4, beta)
    top = np.abs(e).max(axis=(1, 2))
    scale = np.where(top > 0.0, top, 1.0)
    e = e / scale[:, None, None]
    sq = _sq_abs(e)
    # entry (i, j) sits at 2 i + j, so the swaps put a, b, c, d at k ^ 0, 1, 2, 3
    rows = np.arange(e.shape[0])[:, None]
    perm = np.argmax(sq, axis=1)[:, None] ^ np.arange(4)
    e, sq = e[rows, perm], sq[rows, perm]
    pa, pb, pc, pd = e[:, 0], e[:, 1], e[:, 2], e[:, 3]
    frob = (sq[:, 0] + sq[:, 2]) + (sq[:, 1] + sq[:, 3])
    gap = (sq[:, 0] + sq[:, 2]) - (sq[:, 1] + sq[:, 3])
    off = _entry_mul(conj_raw(pa), pb, beta) + _entry_mul(conj_raw(pc), pd, beta)
    s1 = np.sqrt((frob + np.sqrt(gap * gap + 4.0 * _sq_abs(off))) / 2.0)
    a_sq = np.where(sq[:, 0] > 0.0, sq[:, 0], 1.0)
    schur = a_sq[:, None] * pd - _entry_mul(_entry_mul(pc, conj_raw(pa), beta), pb, beta)
    det = np.sqrt(_sq_abs(schur) / a_sq)
    s2 = np.minimum(det / np.where(s1 > 0.0, s1, 1.0), s1)
    return (np.stack([s1, s2], axis=-1) * scale[:, None]).reshape(a.shape[:-3] + (2,))


def svdvals_raw(a: np.ndarray, beta: int) -> np.ndarray:
    """Descending singular values (..., min(n, m)) of (..., n, m, beta)
    blocks; a single row or column has one, its norm, and 2 x 2 blocks take
    the closed form of _svdvals2."""
    n, m = a.shape[-3], a.shape[-2]
    if min(n, m) == 1:
        return _abs_raw(a.reshape(a.shape[:-3] + (n * m * beta,)))[..., None]
    if n == m == 2:
        _require_assoc(beta, "svdvals_raw")
        return _svdvals2(a, beta)
    sv = np.linalg.svd(complex_raw(a, beta), compute_uv=False)
    return _group_multiplets(sv, complex_multiplicity(beta))


def inv_raw(a: np.ndarray, beta: int) -> np.ndarray:
    """Inverses of nonsingular (..., n, n, beta) blocks; side 1 is
    conj(x) / |x|^2."""
    if a.shape[-2] == 1:
        nrm = _abs_raw(a)[..., None]
        return conj_raw(a) / nrm / nrm
    return complex_fold(np.linalg.inv(complex_raw(a, beta)), beta)


def inv_hermitian_raw(a: np.ndarray, beta: int) -> np.ndarray:
    """Inverses of the Hermitian parts of nonsingular (..., n, n, beta)
    blocks; side 2 is the adjugate [[d, -b], [-conj b, p]] over the
    determinant."""
    n = a.shape[-2]
    if n == 1:
        return _single(1.0 / a[..., 0, 0, 0], beta)
    if n == 2:
        scale, p, d, b, bb = _herm2(a)
        return _adj2(a.shape, p, d, b, 0.0, (p * d - bb) * scale)
    return complex_fold(np.linalg.inv(hermitian_part(complex_raw(a, beta))), beta)


def logdet_hermitian_raw(a: np.ndarray, beta: int) -> np.ndarray:
    """log |det| (..., ) of the Hermitian parts of (..., n, n, beta) blocks,
    in algebra units: the log of the product of the n eigenvalues, so
    beta times it is the log-determinant of the real embedding."""
    n = a.shape[-2]
    if n == 1:
        return np.log(np.abs(a[..., 0, 0, 0]))
    if n == 2:
        scale, p, d, _, bb = _herm2(a)
        return np.log(np.abs(p * d - bb)) + 2.0 * np.log(scale)
    _, logabs = np.linalg.slogdet(hermitian_part(complex_raw(a, beta)))
    return logabs / complex_multiplicity(beta)


def inv_sqrt_hermitian_raw(a: np.ndarray, beta: int) -> np.ndarray:
    """M^(-1/2) of Hermitian positive definite (..., n, n, beta) blocks M.

    Side 2: sqrt(M) = (M + delta I) / sqrt(tr M + 2 delta) with delta =
    sqrt(det M), so M^(-1/2) = (adj M + delta I) / (delta sqrt(tr M + 2 delta)).
    """
    n = a.shape[-2]
    if n == 1:
        return _single(1.0 / np.sqrt(a[..., 0, 0, 0]), beta)
    if n == 2:
        scale, p, d, b, bb = _herm2(a)
        delta = np.sqrt(p * d - bb)
        den = delta * np.sqrt(p + d + 2.0 * delta) * np.sqrt(scale)
        return _adj2(a.shape, p, d, b, delta, den)
    w, u = np.linalg.eigh(hermitian_part(complex_raw(a, beta)))
    c = (u * (1.0 / np.sqrt(w))[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)
    return complex_fold(c, beta)


@dataclass(frozen=True)
class Mat:
    """n x m matrix over one of the division algebras (coefficients last axis)."""

    kind: AlgebraKind
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != self.kind.beta:
            raise ShapeMismatchError(
                f"expected (rows, cols, {self.kind.beta}) coefficient array, got {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeMismatchError("matrix dimensions must be positive")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def H(self) -> "Mat":
        return conj_transpose(self)

    def entry(self, i: int, j: int) -> Scalar:
        return Scalar(self.kind, self.data[i, j])

    @staticmethod
    def zeros(kind: AlgebraKind, n: int, m: int) -> "Mat":
        return Mat(kind, np.zeros((n, m, kind.beta)))

    @staticmethod
    def eye(kind: AlgebraKind, n: int) -> "Mat":
        d = np.zeros((n, n, kind.beta))
        d[np.arange(n), np.arange(n), 0] = 1.0
        return Mat(kind, d)

    @staticmethod
    def from_real(kind: AlgebraKind, array: np.ndarray) -> "Mat":
        arr = np.asarray(array, dtype=float)
        if arr.ndim != 2:
            raise ShapeMismatchError("expected a 2-d real array")
        d = np.zeros(arr.shape + (kind.beta,))
        d[..., 0] = arr
        return Mat(kind, d)

    def __add__(self, other: "Mat") -> "Mat":
        _check(self, other, same_shape=True)
        return Mat(self.kind, self.data + other.data)

    def __sub__(self, other: "Mat") -> "Mat":
        _check(self, other, same_shape=True)
        return Mat(self.kind, self.data - other.data)

    def __neg__(self) -> "Mat":
        return Mat(self.kind, -self.data)

    def __mul__(self, c: float) -> "Mat":
        return Mat(self.kind, self.data * float(c))

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        return matmul(self, other)


def _check(a: Mat, b: Mat, same_shape: bool = False) -> None:
    if a.kind != b.kind:
        raise AlgebraMismatchError(f"algebra tags differ: {a.kind.name} vs {b.kind.name}")
    if same_shape and a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")


def matmul(a: Mat, b: Mat) -> Mat:
    """Entrywise sum of scalar products, left-to-right order within each term."""
    _check(a, b)
    if a.cols != b.rows:
        raise ShapeMismatchError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    return Mat(a.kind, mul_raw(a.data, b.data, a.kind.beta))


def conj_transpose(a: Mat) -> Mat:
    return Mat(a.kind, ct_raw(a.data))


def sdet(a: Mat) -> float:
    """|det complex_raw(A)|^(1/r): abs det, complex modulus, or Study determinant."""
    lg = sdet_log(a)
    return 0.0 if lg == -np.inf else float(np.exp(lg))


def sdet_log(a: Mat) -> float:
    _require_assoc(a.kind.beta, "sdet")
    if a.rows != a.cols:
        raise ShapeMismatchError(f"sdet requires a square matrix, got {a.shape}")
    sign, logabs = np.linalg.slogdet(complex_raw(a.data, a.kind.beta))
    if sign == 0.0:
        return -np.inf
    return float(logabs) / complex_multiplicity(a.kind.beta)


def numerical_rank(a: Mat, tol: float = 1e-10) -> int:
    """Count of singular values above tol * largest, in algebra units."""
    _require_assoc(a.kind.beta, "numerical_rank")
    sv = np.linalg.svd(complex_raw(a.data, a.kind.beta), compute_uv=False)
    return int(embedding_rank(sv[None], complex_multiplicity(a.kind.beta), tol)[0])


def embedding_rank(sv: np.ndarray, r: int, tol: float = 1e-10) -> np.ndarray:
    """Ranks in algebra units from (B, k) descending singular values of the
    complex form, which repeats each algebra singular value
    r = complex_multiplicity(beta) times.

    Counts the values above tol * largest (none for a zero matrix); each count
    must be a multiple of r, since every algebra singular value is a multiplet
    of r equal ones.
    """
    count = np.sum(sv > tol * sv[:, :1], axis=1)
    off = count % r != 0
    if np.any(off):
        raise InternalConsistencyError(
            f"embedding rank {count[off][0]} is not a multiple of r={r}; "
            "rank threshold falls inside a singular-value multiplet"
        )
    return count // r


def mat_inv(a: Mat) -> Mat:
    """Two-sided inverse computed on the complex form."""
    _require_assoc(a.kind.beta, "mat_inv")
    if a.rows != a.cols:
        raise ShapeMismatchError(f"mat_inv requires a square matrix, got {a.shape}")
    try:
        c = np.linalg.inv(complex_raw(a.data, a.kind.beta))
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"matrix is singular: {exc}") from exc
    return Mat(a.kind, complex_fold(c, a.kind.beta))


def inner_re(a: Mat, b: Mat) -> float:
    """Re tr(A* B): the flat Euclidean inner product on coefficient arrays."""
    _check(a, b, same_shape=True)
    return float(np.sum(a.data * b.data))


def plane_sum(planes: np.ndarray) -> np.ndarray:
    """Sum a (D, ...) float64 stack of planes over axis 0, in place.

    The planes are overwritten with partial sums, and the result is a view
    of planes[0] (a new array of zeros when D = 0).  The order is that of
    numpy's pairwise_sum for a contiguous axis of length D (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, sec. 4.2), so
    plane_sum(x.T.copy()) equals np.sum(x, axis=-1) bit for bit for any
    C-contiguous (..., D) x.  Each step is one ufunc on whole planes, where
    np.sum over a short last axis pays an inner-loop call per row:

    - below 8 elements, in sequence;
    - up to 128, eight partial sums r0..r7 over the whole blocks of 8,
      combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover
      elements in sequence;
    - above 128, numpy's split at D/2 rounded down to a multiple of 8, each
      half summed the same way.

    numpy starts from its identity 0.0; adding 0.0 last instead changes
    only the sign of a zero sum, so both give +0.0 for a sum of -0.0s.
    """
    n = planes.shape[0]
    if n == 0:
        return np.zeros(planes.shape[1:])
    out = planes[0]
    if n < 8:
        for plane in planes[1:]:
            out += plane
    elif n > 128:
        half = n // 2 - (n // 2) % 8
        out = plane_sum(planes[:half])
        out += plane_sum(planes[half:])
    else:
        blocks = n - n % 8
        r = planes[:8]
        for i in range(8, blocks, 8):
            r += planes[i:i + 8]
        np.add(r[0::2], r[1::2], out=r[0::2])
        np.add(r[0::4], r[2::4], out=r[0::4])
        out += r[4]
        for plane in planes[blocks:]:
            out += plane
    out += 0.0
    return out


def frobenius_raw(x: np.ndarray) -> float:
    """Frobenius norm of a coefficient array.  math.hypot scales internally,
    so entries near 1e+-200 neither overflow nor underflow (np.linalg.norm
    overflows above about 1e154), and on a single matrix it is the faster."""
    return math.hypot(*x.ravel().tolist())


def frobenius_norm(a: Mat) -> float:
    return frobenius_raw(a.data)


def is_hermitian(a: Mat, tol: float = 1e-10) -> bool:
    """A = A* to within tol relative to the Frobenius norm of A, at any scale."""
    if a.rows != a.cols:
        return False
    diff = frobenius_raw(a.data - ct_raw(a.data))
    return diff <= tol * frobenius_raw(a.data)


def save_matrix(a: Mat, path: str | Path) -> None:
    """Write the matrix as JSON: beta, rows, cols, row-major coefficient lists."""
    doc = {
        "beta": a.kind.beta,
        "rows": a.rows,
        "cols": a.cols,
        "entries": a.data.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def load_matrix(path: str | Path) -> Mat:
    doc = json.loads(Path(path).read_text())
    kind = AlgebraKind.from_beta(int(doc["beta"]))
    arr = np.asarray(doc["entries"], dtype=float)
    if arr.shape != (int(doc["rows"]), int(doc["cols"]), kind.beta):
        raise ShapeMismatchError(
            f"entries shape {arr.shape} does not match rows/cols/beta in header"
        )
    return Mat(kind, arr)
