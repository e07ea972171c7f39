"""Closed-form density and Jacobian factors, evaluated in the log domain.

Every analytic factor the verification engines compare against lives here:
the multivariate gamma function, Stiefel manifold volumes, and FACTORS, the
one table of theorem factors keyed like verify.THEOREMS: the densities
attached to the SVD / spectral / QR / Cholesky decompositions, the Gram
couplings, and the transform factors for Moore-Penrose inversion and
congruence maps.  Signs are discarded throughout; products of eigenvalue
differences overflow quickly, so everything is a sum of logs.

Each factor is written once, batch-first: its entry maps spectra of shape
(..., k) and log-determinants of shape (...) to log factors of shape (...).
Every engine calls the entries on whole batches: the Monte-Carlo samplers
on blocks, CHART on the stacked points of a chunk (checking its spectra
with check_spectra first) and the demo on its one point.  factor_log
evaluates one entry, or the cross-check form UHLIG_SVD_ALT, at a validated
FactorInput; it serves `divalg factor` only.

Size conventions follow the congruence theorems: m is the ambient matrix
size and, for the congruence factors, n is the rank of the positive
semidefinite operands (spectra have length n there, q elsewhere).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, RegistryError

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)


def _check_beta(beta: int) -> None:
    if beta not in (1, 2, 4, 8):
        raise DomainError(f"beta must be in {{1,2,4,8}}, got {beta}")


def tau(beta: int, q: int) -> float:
    """Exponent of pi in the factorization densities: 0 for beta=1, else -beta*q/2."""
    _check_beta(beta)
    if q < 0:
        raise DomainError(f"q must be nonnegative, got {q}")
    return 0.0 if beta == 1 else -beta * q / 2.0


def _half(size: int, label: str) -> float:
    """The integer size / 2 as a float, divided before it is converted (so
    it is exact wherever the float of size is); DomainError when the
    quotient leaves the float range."""
    try:
        return size / 2
    except OverflowError:
        raise DomainError(f"{label}/2 leaves the float range") from None


def mv_gamma_log(m: int, beta: int, a: float) -> float:
    """log of the multivariate gamma: pi^{m(m-1)beta/4} prod_i Gamma(a-(i-1)beta/2).

    DomainError for a non-finite a and for a log that leaves the float range.
    """
    _check_beta(beta)
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    if not math.isfinite(a):
        raise DomainError(f"a must be finite, got {a}")
    if m == 0:
        return 0.0
    bound = _half((m - 1) * beta, "(m-1)*beta")
    if a <= bound:
        raise DomainError(f"mv_gamma_log requires a > (m-1)*beta/2 = {bound}, got a={a}")
    out = _half(m * (m - 1) * beta, "m*(m-1)*beta") / 2.0 * LOGPI
    try:
        for i in range(1, m + 1):
            out += math.lgamma(a - (i - 1) * beta / 2.0)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise DomainError(f"the log of the multivariate gamma at a={a} leaves the float range")
    return out


def stiefel_volume_log(m: int, n: int, beta: int) -> float:
    """log volume of the Stiefel manifold of m orthonormal frames in F^n."""
    _check_beta(beta)
    if m > n:
        raise DomainError(f"stiefel_volume_log requires m <= n, got m={m} n={n}")
    if m == 0:
        return 0.0
    half_mn = _half(m * n * beta, "m*n*beta")  # first, so that m below fits a float
    return m * LOG2 + half_mn * LOGPI - mv_gamma_log(m, beta, _half(n * beta, "n*beta"))


@dataclass(frozen=True)
class FactorInput:
    """One point for factor_log; only the fields the factor reads are required.

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
            check_spectra(name, np.array(value, dtype=float)[None])
        for name in ("det_b", "det_t1t1", "det_l1l1", "det_s11", "det_gbh"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def check_spectra(name: str, rows: np.ndarray) -> None:
    """FactorInput's checks of its spectrum `name` on (P, k) rows:
    ConfigurationError for the first row whose entries are not finite and
    positive or, but for t_diag (triangular diagonals are not sorted), not
    strictly decreasing."""
    positive = np.all((rows > 0.0) & (rows < math.inf), axis=1)
    ok = positive & (name == "t_diag" or np.all(rows[:, :-1] > rows[:, 1:], axis=1))
    if not ok.all():
        i = int(np.argmin(ok))
        what = "must be strictly decreasing" if positive[i] else "entries must be finite and positive"
        raise ConfigurationError(f"{name} {what}, got {tuple(float(v) for v in rows[i])}")


def _det(fi: FactorInput, name: str) -> float:
    value = getattr(fi, name)
    if value is None:
        raise ConfigurationError(f"factor requires determinant '{name}'")
    return float(value)


def _log_sum(x: np.ndarray) -> np.ndarray:
    return np.log(x).sum(axis=-1)


def _vandermonde_log(x: np.ndarray, power: float, squared: bool = False) -> np.ndarray:
    """power * sum_{i<j} log(x_i - x_j), or log(x_i^2 - x_j^2) when squared
    (as log(x_i - x_j) + log(x_i + x_j), with log(x_i + x_j) taken as
    log(x_i) + log1p(x_j / x_i) only where the sum overflows), over the last
    axis of a descending positive x."""
    iu, ju = np.triu_indices(x.shape[-1], k=1)
    a, b = x[..., iu], x[..., ju]
    if not squared:
        return power * np.log(a - b).sum(axis=-1)
    with np.errstate(over="ignore"):
        total = a + b
    log_total = np.log(total)
    big = np.isinf(total)
    if big.any():
        log_total[big] = np.log(a[big]) + np.log1p(b[big] / a[big])
    return power * (np.log(a - b) + log_total).sum(axis=-1)


# ---------------------------------------------------------------------------
# the factor table: each entry is log(beta, m, n, q, **inputs), with every
# spectrum a (..., k) array and every det_* input a log-determinant (...)


def _svd(beta, m, n, q, d):
    return (-q * LOG2 + tau(beta, q) * LOGPI + (beta * (n + m - 2 * q + 1) - 1) * _log_sum(d)
            + _vandermonde_log(d, beta, squared=True))


def _sd(beta, m, n, q, lam):
    return (-q * LOG2 + tau(beta, q) * LOGPI + beta * (m - q) * _log_sum(lam)
            + _vandermonde_log(lam, beta))


def _w(beta, m, n, q, lam):
    return -q * LOG2 + (beta * (n - m + 1) / 2.0 - 1.0) * _log_sum(lam)


def _chol_x(beta, m, n, q, det_s11):
    return -q * LOG2 + (beta * (n - m + 1) / 2.0 - 1.0) * det_s11


def _qr(beta, m, n, q, t_diag):
    # exponent beta (n - i + 1) - 1 on t_i, i = 1..q
    return (np.log(t_diag) * (beta * (n - np.arange(q)) - 1.0)).sum(axis=-1)


def _chol(beta, m, n, q, t_diag):
    # exponent beta (m - i) + 1 on t_i, i = 1..q
    return q * LOG2 + (np.log(t_diag) * (beta * (m - 1 - np.arange(q)) + 1.0)).sum(axis=-1)


def _mp_herm(beta, m, n, q, lam):
    return (beta * (-2 * m + q + 1) - 2) * _log_sum(lam)


def _mp_rect(beta, m, n, q, d):
    return -2 * beta * (m + n - q) * _log_sum(d)


def _uhlig_svd(beta, m, n, q, delta, lam, det_b):
    e = beta * (m - n - 1) / 2.0 + 1.0
    return beta * n * det_b + e * (_log_sum(delta) - _log_sum(lam))


def _uhlig_qr(beta, m, n, q, det_t1t1, det_l1l1, det_b):
    e = beta * (m - n - 1) / 2.0 + 1.0
    return e * det_t1t1 - e * det_l1l1 + beta * n * det_b


def _uhlig_mp(beta, m, n, q, delta, lam, det_b):
    e_lam = beta * (3 * m - n - 1) / 2.0 + 1.0
    e_delta = beta * (m - n - 1) / 2.0 + 1.0
    return beta * n * det_b + e_delta * _log_sum(delta) - e_lam * _log_sum(lam)


def _congruence_ns(beta, m, n, q, det_b):
    return (beta * (m - 1) + 2) * det_b


@dataclass(frozen=True)
class Factor:
    """One theorem's log factor.  log(beta, m, n, q, **inputs) -> (...) log
    factors; spectra maps each FactorInput spectrum it reads to the size
    field giving its length, dets names the determinants it reads (as logs)."""

    log: Callable[..., np.ndarray]
    spectra: dict[str, str] = field(default_factory=dict)
    dets: tuple[str, ...] = ()


FACTORS: dict[str, Factor] = {
    "SVD": Factor(_svd, {"d": "q"}),
    "SD": Factor(_sd, {"lam": "q"}),
    "W": Factor(_w, {"lam": "q"}),
    "QR": Factor(_qr, {"t_diag": "q"}),
    "CHOL": Factor(_chol, {"t_diag": "q"}),
    "CHOL_X": Factor(_chol_x, dets=("det_s11",)),
    "MP_HERM": Factor(_mp_herm, {"lam": "q"}),
    "MP_RECT": Factor(_mp_rect, {"d": "q"}),
    "UHLIG_SVD": Factor(_uhlig_svd, {"delta": "n", "lam": "n"}, ("det_b",)),
    "UHLIG_QR": Factor(_uhlig_qr, dets=("det_t1t1", "det_l1l1", "det_b")),
    "UHLIG_MP": Factor(_uhlig_mp, {"delta": "n", "lam": "n"}, ("det_b",)),
    "CONGRUENCE_NS": Factor(_congruence_ns, dets=("det_b",)),
}


def uhlig_svd_alternative_log(beta, m, n, q, det_b, det_gbh):
    """Cross-check form of the SVD congruence factor, read like a FACTORS
    entry: the log-determinants of B and of G1* B* H1 in place of the
    spectra."""
    return beta * n * det_b + (beta * (m - n - 1) + 2) * det_gbh


UHLIG_SVD_ALT = Factor(uhlig_svd_alternative_log, dets=("det_b", "det_gbh"))


def factor_log(name: str | Factor, fi: FactorInput) -> float:
    """log factor at one point of the theorem `name` (or of the Factor
    given, such as UHLIG_SVD_ALT): its entry on the spectra of fi (each
    checked for presence and length) and the logs of its determinants.
    `divalg factor` is its one caller in the package."""
    entry = name if isinstance(name, Factor) else FACTORS.get(name)
    if entry is None:
        raise RegistryError(f"unknown factor {name!r}; expected one of {tuple(FACTORS)}")
    inputs = {}
    for spectrum, size in entry.spectra.items():
        value = getattr(fi, spectrum)
        if value is None:
            raise ConfigurationError(f"factor requires spectrum '{spectrum}'")
        length = getattr(fi, size)
        if len(value) != length:
            raise ConfigurationError(
                f"'{spectrum}' must have length {length}, got {len(value)}"
            )
        inputs[spectrum] = np.asarray(value, dtype=float)
    for det in entry.dets:
        inputs[det] = math.log(_det(fi, det))
    return float(entry.log(fi.beta, fi.m, fi.n, fi.q, **inputs))
