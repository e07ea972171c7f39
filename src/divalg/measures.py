"""Closed-form density and Jacobian factors, evaluated in the log domain.

Every analytic factor the verification engines compare against lives here:
the multivariate gamma function, Stiefel manifold volumes, the densities
attached to the SVD / spectral / QR / Cholesky decompositions, and the
transform factors for Moore-Penrose inversion and congruence maps.  Signs
are discarded throughout; products of eigenvalue differences overflow
quickly, so everything is a sum of logs.

Size conventions follow the congruence theorems: m is the ambient matrix
size and, for the congruence factors, n is the rank of the positive
semidefinite operands (spectra have length n there, q elsewhere).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError, RegistryError

DENSITY_KINDS = ("SVD", "SD", "QR", "CHOL")
TRANSFORM_KINDS = ("MP_HERM", "MP_RECT", "UHLIG_SVD", "UHLIG_QR", "UHLIG_MP", "CONGRUENCE_NS")
COUPLING_KINDS = ("W", "CHOL_X")

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)


def tau(beta: int, q: int) -> float:
    """Exponent of pi in the factorization densities: 0 for beta=1, else -beta*q/2."""
    if beta not in (1, 2, 4, 8):
        raise DomainError(f"beta must be in {{1,2,4,8}}, got {beta}")
    if q < 0:
        raise DomainError(f"q must be nonnegative, got {q}")
    return 0.0 if beta == 1 else -beta * q / 2.0


def mv_gamma_log(m: int, beta: int, a: float) -> float:
    """log of the multivariate gamma: pi^{m(m-1)beta/4} prod_i Gamma(a-(i-1)beta/2)."""
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    if m == 0:
        return 0.0
    if a <= (m - 1) * beta / 2.0:
        raise DomainError(
            f"mv_gamma_log requires a > (m-1)*beta/2 = {(m - 1) * beta / 2.0}, got a={a}"
        )
    out = m * (m - 1) * beta / 4.0 * LOGPI
    for i in range(1, m + 1):
        out += math.lgamma(a - (i - 1) * beta / 2.0)
    return out


def stiefel_volume_log(m: int, n: int, beta: int) -> float:
    """log volume of the Stiefel manifold of m orthonormal frames in F^n."""
    if m > n:
        raise DomainError(f"stiefel_volume_log requires m <= n, got m={m} n={n}")
    if m == 0:
        return 0.0
    return m * LOG2 + m * n * beta / 2.0 * LOGPI - mv_gamma_log(m, beta, n * beta / 2.0)


@dataclass(frozen=True)
class FactorInput:
    """Arguments for the factor evaluators; only the fields a kind reads are required.

    Spectra (d, lam, delta) must be strictly decreasing and positive; t_diag
    entries must be positive (triangular diagonals are not sorted);
    determinant fields carry sdet values and must be positive.  Every value
    must be finite.
    """

    beta: int
    m: int = 0
    n: int = 0
    q: int = 0
    d: tuple[float, ...] | None = None
    lam: tuple[float, ...] | None = None
    delta: tuple[float, ...] | None = None
    t_diag: tuple[float, ...] | None = None
    det_b: float | None = None
    det_t1t1: float | None = None
    det_l1l1: float | None = None
    det_s11: float | None = None
    det_gbh: float | None = None

    def __post_init__(self) -> None:
        if self.beta not in (1, 2, 4, 8):
            raise ConfigurationError(f"beta must be in {{1,2,4,8}}, got {self.beta}")
        for name in ("d", "lam", "delta", "t_diag"):
            value = getattr(self, name)
            if value is None:
                continue
            value = tuple(float(v) for v in value)
            object.__setattr__(self, name, value)
            if not all(0.0 < v < math.inf for v in value):
                raise ConfigurationError(
                    f"{name} entries must be finite and positive, got {value}"
                )
            if name != "t_diag" and any(
                value[i] <= value[i + 1] for i in range(len(value) - 1)
            ):
                raise ConfigurationError(f"{name} must be strictly decreasing, got {value}")
        for name in ("det_b", "det_t1t1", "det_l1l1", "det_s11", "det_gbh"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def _spectrum(fi: FactorInput, name: str, length: int) -> tuple[float, ...]:
    value = getattr(fi, name)
    if value is None:
        raise ConfigurationError(f"factor requires spectrum '{name}'")
    if len(value) != length:
        raise ConfigurationError(f"'{name}' must have length {length}, got {len(value)}")
    return value


def _det(fi: FactorInput, name: str) -> float:
    value = getattr(fi, name)
    if value is None:
        raise ConfigurationError(f"factor requires determinant '{name}'")
    return float(value)


def _log_sum(values) -> float:
    return float(sum(math.log(v) for v in values))


def _vandermonde_log(values, power: float, squared: bool) -> float:
    out = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            diff = values[i] ** 2 - values[j] ** 2 if squared else values[i] - values[j]
            out += power * math.log(diff)
    return out


def decomposition_density_log(kind: str, fi: FactorInput) -> float:
    """log density attached to a factorization: SVD, SD, QR, or CHOL."""
    beta, m, n, q = fi.beta, fi.m, fi.n, fi.q
    if kind == "SVD":
        d = _spectrum(fi, "d", q)
        return (
            -q * LOG2
            + tau(beta, q) * LOGPI
            + (beta * (n + m - 2 * q + 1) - 1) * _log_sum(d)
            + _vandermonde_log(d, beta, squared=True)
        )
    if kind == "SD":
        lam = _spectrum(fi, "lam", q)
        return (
            -q * LOG2
            + tau(beta, q) * LOGPI
            + beta * (m - q) * _log_sum(lam)
            + _vandermonde_log(lam, beta, squared=False)
        )
    if kind == "QR":
        t = _spectrum(fi, "t_diag", q)
        return sum((beta * (n - i + 1) - 1) * math.log(t[i - 1]) for i in range(1, q + 1))
    if kind == "CHOL":
        t = _spectrum(fi, "t_diag", q)
        return q * LOG2 + sum(
            (beta * (m - i) + 1) * math.log(t[i - 1]) for i in range(1, q + 1)
        )
    raise RegistryError(f"unknown density kind {kind!r}; expected one of {DENSITY_KINDS}")


def transform_factor_log(kind: str, fi: FactorInput) -> float:
    """log Jacobian factor of a matrix transform (Moore-Penrose or congruence)."""
    beta, m, n, q = fi.beta, fi.m, fi.n, fi.q
    if kind == "MP_HERM":
        lam = _spectrum(fi, "lam", q)
        return (beta * (-2 * m + q + 1) - 2) * _log_sum(lam)
    if kind == "MP_RECT":
        d = _spectrum(fi, "d", q)
        return -2 * beta * (m + n - q) * _log_sum(d)
    if kind == "UHLIG_SVD":
        delta = _spectrum(fi, "delta", n)
        lam = _spectrum(fi, "lam", n)
        e = beta * (m - n - 1) / 2.0 + 1.0
        return beta * n * math.log(_det(fi, "det_b")) + e * (_log_sum(delta) - _log_sum(lam))
    if kind == "UHLIG_QR":
        e = beta * (m - n - 1) / 2.0 + 1.0
        return (
            e * math.log(_det(fi, "det_t1t1"))
            - e * math.log(_det(fi, "det_l1l1"))
            + beta * n * math.log(_det(fi, "det_b"))
        )
    if kind == "UHLIG_MP":
        delta = _spectrum(fi, "delta", n)
        lam = _spectrum(fi, "lam", n)
        return (
            beta * n * math.log(_det(fi, "det_b"))
            + (beta * (m - n - 1) / 2.0 + 1.0) * _log_sum(delta)
            - (beta * (3 * m - n - 1) / 2.0 + 1.0) * _log_sum(lam)
        )
    if kind == "CONGRUENCE_NS":
        return (beta * (m - 1) + 2) * math.log(_det(fi, "det_b"))
    raise RegistryError(
        f"unknown transform kind {kind!r}; expected one of {TRANSFORM_KINDS}"
    )


def coupling_factor_log(kind: str, fi: FactorInput) -> float:
    """log factor coupling a matrix measure to the measure of its Gram form."""
    beta, m, n, q = fi.beta, fi.m, fi.n, fi.q
    if kind == "W":
        lam = _spectrum(fi, "lam", q)
        return -q * LOG2 + (beta * (n - m + 1) / 2.0 - 1.0) * _log_sum(lam)
    if kind == "CHOL_X":
        return -q * LOG2 + (beta * (n - m + 1) / 2.0 - 1.0) * math.log(
            _det(fi, "det_s11")
        )
    raise RegistryError(f"unknown coupling kind {kind!r}; expected one of {COUPLING_KINDS}")


def uhlig_svd_alternative_log(fi: FactorInput) -> float:
    """Cross-check form of the SVD congruence factor, using sdet(G1* B* H1)."""
    beta, m, n = fi.beta, fi.m, fi.n
    return beta * n * math.log(_det(fi, "det_b")) + (
        beta * (m - n - 1) + 2
    ) * math.log(_det(fi, "det_gbh"))
