"""Scalar arithmetic for the real normed division algebras.

The four algebras (real, complex, quaternion, octonion) are realised through
the Cayley-Dickson construction.  With elements written as pairs over the
previous algebra, the multiplication rule used throughout is

    (p, q)(r, s) = (p r - conj(s) q,  s p + q conj(r))

and the basis is ordered so that index b < beta/2 maps to (e_b, 0) and
index b >= beta/2 maps to (0, e_{b - beta/2}).  Every product in the package,
of scalars here and of matrices in `linalg.mul_raw`, applies this rule to
complex views of the coefficients (`_cd_view`, `_cd_mul`): a complex entry
is its pair (a0 + i a1), a quaternion the complex pair (p, q) with
p = a0 + i a1, q = a2 + i a3, and an octonion a pair of quaternions.  The
structure tensor C, with e_p e_q = sum_r C[p, q, r] e_r, is built from the
same rule; it is a signed permutation with beta^2 nonzeros and backs the
multiplication table and the octonion golden check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import AlgebraMismatchError, ConfigurationError, ScalarDivisionError

VALID_BETAS = (1, 2, 4, 8)


@dataclass(frozen=True)
class AlgebraKind:
    """Tag identifying one of the four algebras by its real dimension beta."""

    beta: int

    def __post_init__(self) -> None:
        if self.beta not in VALID_BETAS:
            raise ValueError(f"beta must be one of {VALID_BETAS}, got {self.beta}")

    @property
    def alpha(self) -> Fraction:
        return Fraction(2, self.beta)

    @property
    def t(self) -> Fraction:
        return Fraction(self.beta, 4)

    @property
    def name(self) -> str:
        return {1: "real", 2: "complex", 4: "quaternion", 8: "octonion"}[self.beta]

    @staticmethod
    def from_beta(beta: int) -> "AlgebraKind":
        """The kind of beta; ConfigurationError when beta is not 1, 2, 4 or 8."""
        if beta not in _KINDS:
            raise ConfigurationError(f"beta must be one of {VALID_BETAS}, got {beta}")
        return _KINDS[beta]


_KINDS = {b: AlgebraKind(b) for b in VALID_BETAS}
REAL = _KINDS[1]
COMPLEX = _KINDS[2]
QUATERNION = _KINDS[4]
OCTONION = _KINDS[8]


@lru_cache(maxsize=None)
def structure_tensor(beta: int) -> np.ndarray:
    """Structure constants C with e_p e_q = sum_r C[p, q, r] e_r (read-only)."""
    if beta not in VALID_BETAS:
        raise ValueError(f"beta must be one of {VALID_BETAS}, got {beta}")
    if beta == 1:
        C = np.ones((1, 1, 1))
    else:
        half = beta // 2
        Ch = structure_tensor(half)
        C = np.zeros((beta, beta, beta))
        eye = np.eye(half)
        zero = np.zeros(half)
        for i in range(beta):
            p = eye[i] if i < half else zero
            q = eye[i - half] if i >= half else zero
            for j in range(beta):
                r = eye[j] if j < half else zero
                s = eye[j - half] if j >= half else zero
                pr = np.einsum("p,q,pqr->r", p, r, Ch)
                sbar_q = np.einsum("p,q,pqr->r", conj_raw(s), q, Ch)
                sp = np.einsum("p,q,pqr->r", s, p, Ch)
                q_rbar = np.einsum("p,q,pqr->r", q, conj_raw(r), Ch)
                C[i, j, :half] = pr - sbar_q
                C[i, j, half:] = sp + q_rbar
    C.setflags(write=False)
    return C


def _pair_view(a: np.ndarray) -> np.ndarray:
    """Coefficient pairs (a0 + i a1, a2 + i a3, ...) as complex128, a view
    where the last axis is contiguous float64."""
    if a.dtype != np.float64 or a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a, dtype=np.float64)
    return a.view(np.complex128)


def conj_raw(a: np.ndarray) -> np.ndarray:
    """Conjugates of (..., beta) coefficient arrays, as a new C-ordered array
    with the bytes of a copy whose imaginary coefficients are negated.

    One pass over the input: at beta=2 a complex conjugate, which on the
    swapped views linalg.ct_raw passes is about 3x as fast as np.negative.
    """
    if a.shape[-1] == 1:
        return a.copy()
    if a.shape[-1] == 2:
        return np.conjugate(_pair_view(a), order="C").view(np.float64)
    out = np.negative(a, order="C")
    out[..., 0] = a[..., 0]
    return out


def _cd_view(a: np.ndarray, beta: int) -> np.ndarray:
    """(..., beta) coefficients in the form `_cd_mul` takes: the real array
    for beta=1, the (..., beta/2) complex pairs otherwise.  `.view(np.float64)`
    of a product returns its (..., beta) coefficients."""
    return a if beta == 1 else _pair_view(a)


def _cd_conj(z: np.ndarray) -> np.ndarray:
    """Conjugate of `_cd_view` entries: (conj p, -q) on each pair."""
    if z.shape[-1] == 1:
        return z.conj()
    return np.concatenate((z[..., :1].conj(), -z[..., 1:]), axis=-1)


def _cd_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Entrywise products x y of `_cd_view` arrays, leading axes broadcast.

    One complex (or real) coefficient is the base case; wider entries split
    into halves, (p, q)(r, s) = (p r - conj(s) q, s p + q conj(r)).  Each
    entry product is one application of the rule, so octonion products need
    no associativity.
    """
    h = x.shape[-1]
    if h == 1:
        return x * y
    k = h // 2
    p, q, r, s = x[..., :k], x[..., k:], y[..., :k], y[..., k:]
    return np.concatenate(
        (_cd_mul(p, r) - _cd_mul(_cd_conj(s), q), _cd_mul(s, p) + _cd_mul(q, _cd_conj(r))),
        axis=-1,
    )


def multiplication_table(beta: int) -> list[list[list[int]]]:
    """Basis product table: entry [i][j] is [sign, k] with e_i e_j = sign * e_k."""
    C = structure_tensor(beta)
    table = []
    for i in range(beta):
        row = []
        for j in range(beta):
            v = C[i, j]
            k = int(np.argmax(np.abs(v)))
            row.append([int(round(v[k])), k])
        table.append(row)
    return table


def load_octonion_table() -> list[list[list[int]]]:
    """Golden copy of the octonion basis table shipped with the package."""
    with resources.files(__package__).joinpath("_octonion_table.json").open() as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Scalar:
    """An element of one of the four algebras: beta real coefficients plus a tag.

    coeffs[0] multiplies the unit; the remaining entries multiply the
    imaginary basis elements in Cayley-Dickson order.
    """

    kind: AlgebraKind
    coeffs: np.ndarray = field(repr=True)

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != (self.kind.beta,):
            raise ValueError(f"expected {self.kind.beta} coefficients, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @staticmethod
    def from_real(kind: AlgebraKind, value: float) -> "Scalar":
        v = np.zeros(kind.beta)
        v[0] = value
        return Scalar(kind, v)

    @staticmethod
    def basis(kind: AlgebraKind, index: int) -> "Scalar":
        v = np.zeros(kind.beta)
        v[index] = 1.0
        return Scalar(kind, v)

    def __add__(self, other: "Scalar") -> "Scalar":
        _check_kinds(self, other)
        return Scalar(self.kind, self.coeffs + other.coeffs)

    def __sub__(self, other: "Scalar") -> "Scalar":
        _check_kinds(self, other)
        return Scalar(self.kind, self.coeffs - other.coeffs)

    def __neg__(self) -> "Scalar":
        return Scalar(self.kind, -self.coeffs)


def _check_kinds(a: Scalar, b: Scalar) -> None:
    if a.kind != b.kind:
        raise AlgebraMismatchError(f"algebra tags differ: {a.kind.name} vs {b.kind.name}")


def mul(a: Scalar, b: Scalar) -> Scalar:
    """Product under the Cayley-Dickson recursion (noncommutative for beta >= 4)."""
    _check_kinds(a, b)
    beta = a.kind.beta
    prod = _cd_mul(_cd_view(a.coeffs, beta), _cd_view(b.coeffs, beta))
    return Scalar(a.kind, prod.view(np.float64))


def conj(a: Scalar) -> Scalar:
    """Conjugate: negates all imaginary coefficients."""
    return Scalar(a.kind, conj_raw(a.coeffs))


def norm(a: Scalar) -> float:
    """Euclidean norm of the coefficient vector; multiplicative for all four algebras."""
    return float(np.linalg.norm(a.coeffs))


def inv(a: Scalar) -> Scalar:
    """Multiplicative inverse conj(a) / norm(a)^2."""
    n2 = float(np.dot(a.coeffs, a.coeffs))
    if n2 == 0.0:
        raise ScalarDivisionError("zero scalar has no inverse")
    return Scalar(a.kind, conj_raw(a.coeffs) / n2)
