"""Nonsingular parts of the matrix decompositions.

Rank-q SVD, spectral decomposition, QR with positive diagonal, rank-q
Cholesky, and the Moore-Penrose inverse, over beta <= 4.  Each runs on the
complex form (complex_raw), in which every algebra eigenvalue or singular
value appears as a multiplet of r = complex_multiplicity(beta) equal values:
1 for beta <= 2 and 2 for the quaternion adjoint.  One eigen or singular
vector per multiplet folds back to an algebra vector with complex_fold,
because the eigenspace is a right module over the algebra.  The kernels are
batched, and the single-matrix functions are batches of one: pinv_batch is
the one Moore-Penrose kernel, gram_schmidt_batch the one Gram-Schmidt loop
(QR and the Stiefel sampler) and cholesky_batch the one Cholesky kernel
(rank-q Cholesky and the CHOL_X sampler).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    NotPsdError,
    PivotRequiredError,
    RankError,
    ShapeMismatchError,
)
from .linalg import (
    Mat,
    _group_multiplets,
    _require_assoc,
    complex_fold,
    complex_multiplicity,
    complex_raw,
    conj_raw,
    ct_raw,
    embedding_rank,
    frobenius_raw,
    hermitian_part,
    is_hermitian,
    mul_raw,
)

DEFAULT_GAP_FACTOR = 1e-6
MULTIPLET_SPREAD_FACTOR = 1e-8


@dataclass(frozen=True)
class EigParts:
    """S = W1 diag(lam) W1* with W1*W1 = I and lam strictly decreasing positive."""

    w1: Mat
    lam: np.ndarray


@dataclass(frozen=True)
class SvdParts:
    """X = V1 diag(d) W1* with orthonormal columns and d strictly decreasing positive."""

    v1: Mat
    d: np.ndarray
    w1: Mat


@dataclass(frozen=True)
class QrParts:
    """X = H1 T with H1*H1 = I and the leading block of T upper triangular,
    diagonal real positive."""

    h1: Mat
    t: Mat


def _col_inner(h: np.ndarray, v: np.ndarray, beta: int) -> np.ndarray:
    """h* v as algebra scalars (..., beta), columns given as (..., n, beta)."""
    return mul_raw(conj_raw(h)[..., None, :, :], v[..., :, None, :], beta)[..., 0, 0, :]


def _col_scale(h: np.ndarray, c: np.ndarray, beta: int) -> np.ndarray:
    """h c: (..., n, beta) columns right-multiplied by (..., beta) scalars."""
    return mul_raw(h[..., :, None, :], c[..., None, None, :], beta)[..., :, 0, :]


def gram_schmidt_batch(x: np.ndarray, beta: int) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt over the algebra, run twice, on the columns of
    (B, n, q, beta) batches.

    Returns the frames and the (B, q) norms each column had before it was
    normalized; a column of norm 0 stays 0.  Callers judge dependence from
    the norms against their own threshold.
    """
    b, _, q, _ = x.shape
    out = np.empty_like(x)
    norms = np.empty((b, q))
    for k in range(q):
        v = x[:, :, k, :].copy()
        for _ in range(2):  # second sweep restores orthogonality lost to rounding
            for i in range(k):
                coef = _col_inner(out[:, :, i, :], v, beta)
                v -= _col_scale(out[:, :, i, :], coef, beta)
        nrm = np.linalg.norm(v.reshape(b, -1), axis=1)
        norms[:, k] = nrm
        out[:, :, k, :] = v / np.where(nrm > 0.0, nrm, 1.0)[:, None, None]
    return out, norms


def cholesky_batch(s: np.ndarray, beta: int) -> np.ndarray:
    """T with S = T*T, T upper triangular with real positive diagonal, for
    Hermitian positive definite (..., m, m, beta) blocks S: the complex form
    of T is L* for the lower Cholesky factor L of S's complex form.  Raises
    np.linalg.LinAlgError when a block is not positive definite."""
    c = np.linalg.cholesky(complex_raw(s, beta))
    return complex_fold(np.swapaxes(c.conj(), -1, -2), beta)


def _fold_vectors(vecs: np.ndarray, q: int, beta: int) -> np.ndarray:
    """The first q algebra columns (n, q, beta) from the (r*n, r*k) vectors
    of the complex form, one per multiplet of r, each phase-fixed so that
    its largest-magnitude entry is real and positive (ties resolve to the
    lowest row)."""
    r = complex_multiplicity(beta)
    cols = complex_fold(np.repeat(vecs[:, ::r][:, :q], r, axis=1), beta)
    mags = np.linalg.norm(cols, axis=2)
    top = np.argmax(mags, axis=0)
    k = np.arange(q)
    unit = conj_raw(cols[top, k]) / mags[top, k][:, None]
    return _col_scale(cols.swapaxes(0, 1), unit, beta).swapaxes(0, 1)


def _check_multiplet_spread(values: np.ndarray, r: int) -> None:
    """Each row of a (B, k*r) spectrum splits into multiplets of r equal values."""
    groups = values.reshape(values.shape[0], -1, r)
    spread = values.max(axis=1) - values.min(axis=1)
    within = (groups.max(axis=2) - groups.min(axis=2)).max(axis=1)
    bad = (spread > 0) & (within > MULTIPLET_SPREAD_FACTOR * spread + 1e-12)
    if np.any(bad):
        b = int(np.argmax(bad))
        raise InternalConsistencyError(
            f"eigenvalue multiplets of size r={r} did not separate cleanly "
            f"(within-group spread {within[b]:.3e} vs total {spread[b]:.3e})"
        )


def _check_gaps(d: np.ndarray, q: np.ndarray, top: np.ndarray, what: str) -> None:
    """The leading q[b] values of each descending row d[b], and the gap from
    the last of them to 0, are at least DEFAULT_GAP_FACTOR * top[b] apart."""
    kept = np.arange(d.shape[1]) < q[:, None]
    extended = np.pad(np.where(kept, d, 0.0), ((0, 0), (0, 1)))
    gaps = np.where(kept, extended[:, :-1] - extended[:, 1:], np.inf).min(axis=1)
    gtol = DEFAULT_GAP_FACTOR * top
    low = gaps < gtol
    if np.any(low):
        b = int(np.argmax(low))
        raise DegenerateSpectrumError(
            f"{what} gap {gaps[b]:.3e} below tolerance {gtol[b]:.3e}"
        )


def _check_singular_values(
    sv: np.ndarray, r: int, q: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Checks on (B, k*r) descending singular values of the complex form,
    which repeats each algebra singular value r = complex_multiplicity(beta)
    times.

    Returns the ranks q (B,) and the multiplet means d (B, k).  With q None
    each rank is counted at 1e-10 (embedding_rank) and must agree with the
    count of multiplets above 1e-8 * largest; a given q must equal that count.
    Kept values must be gapped (DegenerateSpectrumError) and every multiplet
    tight (InternalConsistencyError).
    """
    d = _group_multiplets(sv, r)
    top = d[:, 0]
    qs = embedding_rank(sv, r) if q is None else np.full(d.shape[0], q)
    positive = np.sum(d > 1e-8 * top[:, None], axis=1)
    wrong = positive != qs
    if np.any(wrong):
        b = int(np.argmax(wrong))
        raise RankError(f"matrix has numerical rank {positive[b]}, expected q={qs[b]}")
    _check_gaps(d, qs, top, "singular value")
    _check_multiplet_spread(sv, r)
    return qs, d


def eig_hermitian(s: Mat, q: int) -> EigParts:
    """Nonsingular part of the spectral decomposition of a PSD Hermitian matrix.

    Returns the q strictly decreasing positive eigenvalues and phase-fixed
    orthonormal eigenvectors.  Raises a degenerate-spectrum error when two of
    the q eigenvalues (or the smallest one and zero) are closer than the gap
    tolerance, and a not-PSD error for negative eigenvalues beyond tolerance.
    """
    _require_assoc(s.kind.beta, "eig_hermitian")
    if s.rows != s.cols:
        raise ShapeMismatchError(f"expected a square matrix, got {s.shape}")
    if not is_hermitian(s):
        raise NotPsdError("matrix is not Hermitian within tolerance")
    m, beta = s.rows, s.kind.beta
    if not 1 <= q <= m:
        raise RankError(f"q must lie in [1, {m}], got {q}")
    r = complex_multiplicity(beta)
    w, vecs = np.linalg.eigh(hermitian_part(complex_raw(s.data, beta)))
    w, vecs = w[::-1], vecs[:, ::-1]
    lam_groups = _group_multiplets(w, r)
    top = float(abs(lam_groups[0]))
    scale = float(np.abs(lam_groups).max())
    if scale == 0.0:
        raise RankError("zero matrix has no nonsingular spectral part")
    if float(lam_groups.min()) < -1e-8 * scale:
        raise NotPsdError(f"negative eigenvalue {lam_groups.min():.3e} beyond tolerance")
    positive = int(np.sum(lam_groups > 1e-8 * scale))
    if positive != q:
        raise RankError(f"matrix has numerical rank {positive}, expected q={q}")
    _check_gaps(lam_groups[None], np.array([q]), np.array([top]), "eigenvalue")
    _check_multiplet_spread(w[None], r)
    cols = _fold_vectors(vecs, q, beta)
    _assert_orthonormal(complex_raw(cols, beta))
    return EigParts(w1=Mat(s.kind, cols), lam=lam_groups[:q].copy())


def svd_rank_q(x: Mat, q: int) -> SvdParts:
    """Nonsingular part of the SVD: X = V1 diag(d) W1* with d strictly decreasing.

    W1 columns are phase-fixed; each V1 column is the paired image X w / d, so
    per-column phases are joint and the product reproduces X.
    """
    _require_assoc(x.kind.beta, "svd_rank_q")
    n, m, beta = x.rows, x.cols, x.kind.beta
    if not 1 <= q <= min(n, m):
        raise RankError(f"q must lie in [1, {min(n, m)}], got {q}")
    _, sv, vh = np.linalg.svd(complex_raw(x.data, beta), full_matrices=False)
    r = complex_multiplicity(beta)
    _, d_groups = _check_singular_values(sv[None], r, q=q)
    d = d_groups[0, :q]
    wcols = _fold_vectors(vh.conj().T, q, beta)
    vcols = mul_raw(x.data, wcols, beta) / d[None, :, None]
    _assert_orthonormal(complex_raw(vcols, beta))
    _assert_orthonormal(complex_raw(wcols, beta))
    back = mul_raw(vcols * d[None, :, None], ct_raw(wcols), beta)
    _assert_residual(x.data[None], back[None], "SVD")
    return SvdParts(v1=Mat(x.kind, vcols), d=d, w1=Mat(x.kind, wcols))


def _assert_orthonormal(u: np.ndarray, tol: float = 1e-9) -> None:
    """Columns of (..., n, q) real or complex matrices are orthonormal; pass
    complex_raw(u, beta) for columns over the algebra."""
    g = np.swapaxes(u.conj(), -1, -2) @ u
    err = float(np.abs(g - np.eye(g.shape[-1])).max())
    if err > tol:
        raise InternalConsistencyError(f"columns lost orthonormality (error {err:.3e})")


def _assert_residual(x: np.ndarray, y: np.ndarray, label: str, tol: float = 1e-8) -> None:
    """Relative Frobenius residual ||x - y|| / ||x|| of each member of a batch.
    Both are divided by x's largest absolute coefficient first, so members
    near 1e+-200 neither overflow (inf / inf is NaN, which passes any test)
    nor underflow to a residual of 0."""
    flat_x = x.reshape(x.shape[0], -1)
    top = np.abs(flat_x).max(axis=1, keepdims=True)
    top = np.where(top > 0.0, top, 1.0)
    flat_x, flat_y = flat_x / top, y.reshape(flat_x.shape) / top
    scale = np.maximum(1e-300, np.linalg.norm(flat_x, axis=1))
    err = float((np.linalg.norm(flat_x - flat_y, axis=1) / scale).max())
    if err > tol:
        raise InternalConsistencyError(f"{label} residual {err:.3e} exceeds {tol:.0e}")


def qr_positive(x: Mat, q: int) -> QrParts:
    """X = H1 T: H1 from gram_schmidt_batch on the leading q columns, T = H1* X.

    The leading q columns must be independent (pivot first otherwise); the
    leading q x q block of T is upper triangular with real positive
    diagonal, the Gram-Schmidt norms, and the trailing block is H1* X[:, q:].
    """
    _require_assoc(x.kind.beta, "qr_positive")
    n, m, beta = x.rows, x.cols, x.kind.beta
    if not 1 <= q <= min(n, m):
        raise RankError(f"q must lie in [1, {min(n, m)}], got {q}")
    frames, norms = gram_schmidt_batch(x.data[None, :, :q], beta)
    h, norms = frames[0], norms[0]
    dependent = norms <= 1e-10 * max(float(np.linalg.norm(x.data)), 1e-300)
    if np.any(dependent):
        raise PivotRequiredError(
            f"leading column {int(np.argmax(dependent))} is numerically dependent "
            "on its predecessors"
        )
    t = mul_raw(ct_raw(h), x.data, beta)
    t[np.tril(np.ones((q, m), dtype=bool))] = 0.0
    t[np.arange(q), np.arange(q), 0] = norms
    _assert_orthonormal(complex_raw(h, beta))
    _assert_residual(x.data[None], mul_raw(h, t, beta)[None], "QR")
    return QrParts(h1=Mat(x.kind, h), t=Mat(x.kind, t))


def cholesky_rank_q(s: Mat, q: int) -> Mat:
    """Rank-q Cholesky: T (q x m) with S = T*T, T1 upper triangular, t_ii > 0.

    T1 is cholesky_batch of the leading q x q block S11, which must be
    positive definite (pivot first otherwise); T2 solves T1* T2 = S12 on the
    complex form.
    """
    _require_assoc(s.kind.beta, "cholesky_rank_q")
    if s.rows != s.cols:
        raise ShapeMismatchError(f"expected a square matrix, got {s.shape}")
    if not is_hermitian(s):
        raise NotPsdError("matrix is not Hermitian within tolerance")
    m, beta = s.rows, s.kind.beta
    if not 1 <= q <= m:
        raise RankError(f"q must lie in [1, {m}], got {q}")
    try:
        t1 = cholesky_batch(s.data[:q, :q], beta)
    except np.linalg.LinAlgError:
        t1 = np.zeros((q, q, beta))  # read as a zero pivot
    pivots = t1[np.arange(q), np.arange(q), 0] ** 2
    if pivots.min() <= 1e-12 * max(float(np.abs(s.data).max()), 1e-300):
        raise PivotRequiredError(f"leading {q} x {q} block is not positive definite")
    c2 = np.linalg.solve(complex_raw(ct_raw(t1), beta), complex_raw(s.data[:q, q:], beta))
    t = np.concatenate([t1, complex_fold(c2, beta)], axis=1)
    back = mul_raw(ct_raw(t), t, beta)
    residual = frobenius_raw(back - s.data) / max(1e-300, frobenius_raw(s.data))
    if residual > 1e-8:
        raise RankError(
            f"trailing block is not reproduced (residual {residual:.3e}); "
            f"matrix rank exceeds q={q}"
        )
    return Mat(s.kind, t)


def pinv_batch(data: np.ndarray, beta: int) -> np.ndarray:
    """Moore-Penrose inverses of a batch, (B, n, m, beta) -> (B, m, n, beta).

    One SVD of the stacked complex forms C = U diag(s) V* (complex_raw, in
    which each algebra singular value appears r = complex_multiplicity(beta)
    times): the form of X+ is V diag(1/s) U* over each matrix's kept singular
    values (its rank q), folded back with complex_fold.  Every matrix passes
    the checks of _check_singular_values, the thin singular vectors must be
    orthonormal and U diag(s) V* must reproduce C; zero matrices map to zeros.
    """
    _require_assoc(beta, "pinv")
    r = complex_multiplicity(beta)
    c = complex_raw(data, beta)
    u, sv, vh = np.linalg.svd(c, full_matrices=False)
    q, _ = _check_singular_values(sv, r)
    v = np.swapaxes(vh, -1, -2).conj()
    _assert_orthonormal(u)
    _assert_orthonormal(v)
    kept = np.arange(sv.shape[1]) < r * q[:, None]
    _assert_residual(c, (u * np.where(kept, sv, 0.0)[:, None, :]) @ vh, "SVD")
    inv_s = np.where(kept, 1.0 / np.where(kept, sv, 1.0), 0.0)
    return complex_fold((v * inv_s[:, None, :]) @ np.swapaxes(u, -1, -2).conj(), beta)


def pinv(x: Mat) -> Mat:
    """Moore-Penrose inverse of one matrix: pinv_batch on a batch of one."""
    return Mat(x.kind, pinv_batch(x.data[None], x.kind.beta)[0])
