"""Verification engines for the matrix-factorization Jacobian formulas.

Three engines, each matched to the measure semantics a formula lives in:

* CHART: for transforms between rank-q manifolds whose stated factor is a
  plain Jacobian determinant in independent-entry coordinates (Moore-Penrose
  maps, Cholesky, the QR-based and nonsingular congruence identities).  The
  oracle is a central finite-difference Jacobian of extract(map(complete())).

* MC_EQUALITY: for identities between factorized measures carrying frame
  differentials (the Gram coupling, the SVD-based congruence identities).
  Both sides of the integral identity are estimated by independent seeded
  samplers, matched on a common region through exact inverse-map indicators.

* MC_RATIO: for the factorization densities themselves (SVD, spectral, QR,
  Cholesky-of-Gram).  The engine checks that the surface-measure integral
  divided by the factorized integral is the same constant for every test
  function, i.e. the density shape is right up to a frame-gauge constant,
  which is reported.  The factorized side is divided by the per-column phase
  fiber volume for the spectral factorizations, so the reported constant is a
  pure geometric normalization.

Determinism contract: every random block derives its generator from
(seed, task code, side code, block index) and block partial sums are reduced
in block order, so reports are byte-identical for any worker count.
"""
from __future__ import annotations

import json
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .algebra import AlgebraKind
from .charts import (
    PsdChartPoint,
    RectChartPoint,
    _psd_unpack,
    _rect_unpack,
    _sorted_spectrum,
    assemble_sd_batch,
    assemble_svd_batch,
    choose_pivot,
    complete_psd_batch,
    complete_rect_batch,
    extract_psd,
    extract_psd_batch,
    extract_rect,
    extract_rect_batch,
    hausdorff_density_log_batch,
    psd_coord_count,
    rect_coord_count,
    sample_stiefel_batch,
    sd_density_log_batch,
    svd_density_log_batch,
)
from .decomp import cholesky_rank_q, eig_hermitian, pinv_batch
from .errors import (
    ConfigurationError,
    InconclusiveStatisticsError,
    InternalConsistencyError,
    RegistryError,
    SingularBlockError,
    UnsupportedAlgebraError,
)
from .linalg import (
    Mat,
    conj_transpose,
    ct_raw,
    embed_raw,
    fold_raw,
    load_matrix,
    mat_inv,
    mul_raw,
    sdet,
    sdet_log,
)
from .measures import (
    FactorInput,
    decomposition_density_log,
    stiefel_volume_log,
    transform_factor_log,
    uhlig_svd_alternative_log,
)

THEOREMS = (
    "SVD",
    "SD",
    "W",
    "QR",
    "CHOL",
    "CHOL_X",
    "MP_HERM",
    "MP_RECT",
    "UHLIG_SVD",
    "UHLIG_QR",
    "UHLIG_MP",
    "CONGRUENCE_NS",
)

REGISTRY: dict[str, frozenset[str]] = {
    "SVD": frozenset({"MC_RATIO"}),
    "SD": frozenset({"MC_RATIO"}),
    "QR": frozenset({"MC_RATIO"}),
    "CHOL_X": frozenset({"MC_RATIO"}),
    "W": frozenset({"MC_EQUALITY"}),
    "UHLIG_SVD": frozenset({"MC_EQUALITY", "DEMO"}),
    "UHLIG_MP": frozenset({"MC_EQUALITY"}),
    "MP_HERM": frozenset({"CHART", "MC_EQUALITY"}),
    "MP_RECT": frozenset({"CHART", "MC_EQUALITY"}),
    "CHOL": frozenset({"CHART"}),
    "UHLIG_QR": frozenset({"CHART"}),
    "CONGRUENCE_NS": frozenset({"CHART"}),
}

DEFAULT_ENGINE: dict[str, str] = {
    "SVD": "MC_RATIO",
    "SD": "MC_RATIO",
    "QR": "MC_RATIO",
    "CHOL_X": "MC_RATIO",
    "W": "MC_EQUALITY",
    "UHLIG_SVD": "MC_EQUALITY",
    "UHLIG_MP": "MC_EQUALITY",
    "MP_HERM": "CHART",
    "MP_RECT": "CHART",
    "CHOL": "CHART",
    "UHLIG_QR": "CHART",
    "CONGRUENCE_NS": "CHART",
}

TASK_CODES = {name: i + 1 for i, name in enumerate(THEOREMS)}

# side codes for generator substreams
_SIDE_LHS = 1
_SIDE_RHS = 2
_SIDE_PILOT = 3
_SIDE_POINTS = 4
_SIDE_B = 7
_SIDE_REFERENCE = 9

BLOCK_SIZE = 4096
ABS_LOG_FLOOR = 1e-7
MIN_TRIALS = 10_000
INCONCLUSIVE_REL_STDERR = 0.20

# theorems whose size fields are (m, rank n) congruence problems
_CONGRUENCE_TASKS = ("UHLIG_SVD", "UHLIG_QR", "UHLIG_MP")
_NEEDS_N = ("SVD", "W", "QR", "CHOL_X", "MP_RECT") + _CONGRUENCE_TASKS
_NEEDS_Q = ("SVD", "SD", "W", "QR", "CHOL", "CHOL_X", "MP_HERM", "MP_RECT")
_NEEDS_B = _CONGRUENCE_TASKS + ("CONGRUENCE_NS",)


@dataclass(frozen=True)
class TaskSpec:
    """One verification task: theorem, engine, sizes, sampling controls."""

    theorem_id: str
    beta: int
    m: int
    n: int = 0
    q: int = 0
    engine: str = ""
    b_source: str = "random"
    trials: int = 200_000
    points: int = 20
    step: float = 1e-5
    eigen_box: tuple[float, float] = (1.0, 2.0)
    gap: float | None = None
    rtol: float = 1e-5
    ztol: float = 3.0
    cv_tol: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.theorem_id not in REGISTRY:
            raise RegistryError(
                f"unknown theorem {self.theorem_id!r}; expected one of {THEOREMS}"
            )
        engine = self.engine or DEFAULT_ENGINE[self.theorem_id]
        if engine not in REGISTRY[self.theorem_id]:
            extra = ""
            if self.theorem_id == "UHLIG_SVD" and engine == "CHART":
                extra = (
                    " (this pairing is the documented discrepancy; "
                    "run it through the demo entry point)"
                )
            raise RegistryError(
                f"engine {engine} is not admissible for {self.theorem_id}; "
                f"admissible: {sorted(REGISTRY[self.theorem_id])}{extra}"
            )
        object.__setattr__(self, "engine", engine)
        if self.beta == 8:
            raise UnsupportedAlgebraError(
                "octonion matrix decompositions can only be conjectured; "
                "verification tasks support beta in {1,2,4}"
            )
        if self.beta not in (1, 2, 4):
            raise ConfigurationError(f"beta must be 1, 2 or 4, got {self.beta}")
        if self.m < 1:
            raise ConfigurationError(f"m must be positive, got {self.m}")
        n, q = self.n, self.q
        if self.theorem_id in _NEEDS_N:
            if n < 1:
                raise ConfigurationError(f"{self.theorem_id} requires n >= 1, got {n}")
        else:
            n = 0
        if self.theorem_id in _CONGRUENCE_TASKS:
            if self.n > self.m:
                raise ConfigurationError(
                    f"{self.theorem_id} requires rank n <= m, got n={self.n} m={self.m}"
                )
            q = 0
        elif self.theorem_id == "CONGRUENCE_NS":
            q = 0
        if self.theorem_id in _NEEDS_Q:
            limit = min(i for i in (n or 10**9, self.m))
            if not 1 <= q <= limit:
                raise ConfigurationError(
                    f"{self.theorem_id} requires 1 <= q <= {limit}, got {q}"
                )
        if self.theorem_id in ("QR", "CHOL_X") and self.engine == "MC_RATIO":
            if q != self.m:
                raise ConfigurationError(
                    f"{self.theorem_id} ratio comparison requires full column rank "
                    f"q = m (at q < m the surface-to-factorized ratio is not a "
                    f"constant); got q={q}, m={self.m}"
                )
            if self.m > n:
                raise ConfigurationError(
                    f"{self.theorem_id} requires m <= n, got m={self.m} n={n}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        lo, hi = float(self.eigen_box[0]), float(self.eigen_box[1])
        if not 0.0 < lo < hi:
            raise ConfigurationError(f"eigen box must satisfy 0 < lo < hi, got {self.eigen_box}")
        object.__setattr__(self, "eigen_box", (lo, hi))
        gap = 1e-3 * (hi - lo) if self.gap is None else float(self.gap)
        if gap < 0:
            raise ConfigurationError(f"gap must be nonnegative, got {gap}")
        object.__setattr__(self, "gap", gap)
        if self.engine in ("MC_EQUALITY", "MC_RATIO") and self.trials < MIN_TRIALS:
            raise ConfigurationError(
                f"Monte Carlo engines need trials >= {MIN_TRIALS}, got {self.trials}"
            )
        if self.points < 1:
            raise ConfigurationError(f"points must be positive, got {self.points}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigurationError(f"step must be finite and positive, got {self.step}")

    @property
    def kind(self) -> AlgebraKind:
        return AlgebraKind.from_beta(self.beta)

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "engine": self.engine,
            "beta": self.beta,
            "m": self.m,
            "n": self.n,
            "q": self.q,
            "b_source": self.b_source,
            "trials": self.trials,
            "points": self.points,
            "step": self.step,
            "eigen_box": list(self.eigen_box),
            "gap": self.gap,
            "rtol": self.rtol,
            "ztol": self.ztol,
            "cv_tol": self.cv_tol,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Report:
    """Outcome of one task: per-record diagnostics plus the overall verdict."""

    task: TaskSpec
    engine: str
    records: tuple[dict, ...]
    passed: bool
    constant_estimate: float | None
    seed: int
    runtime_ms: int
    version: str

    def to_dict(self) -> dict:
        return {
            "task": self.task.to_dict(),
            "engine": self.engine,
            "records": list(self.records),
            "pass": self.passed,
            "constant_estimate": self.constant_estimate,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
            "version": self.version,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _substream(seed: int, task_code: int, side: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence([int(seed), int(task_code), int(side), int(index)])
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Gaussian bump on matrix space: exp(-||M - center||^2 / (2 sigma^2))."""

    center: np.ndarray
    sigma: float

    def __call__(self, data: np.ndarray) -> np.ndarray:
        diff = data - self.center[None]
        sq = np.sum(diff.reshape(diff.shape[0], -1) ** 2, axis=1)
        return np.exp(-sq / (2.0 * self.sigma**2))


def make_test_functions(
    seed: int, count: int, reference_samples: np.ndarray
) -> list[TestFunction]:
    """Deterministic bump set with centers among the reference samples and
    widths in [0.5, 2] times the sample dispersion."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    samples = np.asarray(reference_samples, dtype=float)
    if samples.ndim < 2 or samples.shape[0] < 1:
        raise ConfigurationError("need at least one reference sample")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), 0xF])))
    mean = samples.mean(axis=0)
    dev = samples - mean[None]
    dispersion = float(
        np.sqrt(np.mean(np.sum(dev.reshape(samples.shape[0], -1) ** 2, axis=1)))
    )
    if dispersion <= 0:
        dispersion = max(1.0, float(np.linalg.norm(mean)))
    idx = rng.integers(0, samples.shape[0], size=count)
    widths = rng.uniform(0.5, 2.0, size=count) * dispersion
    return [
        TestFunction(center=samples[i].copy(), sigma=float(w))
        for i, w in zip(idx, widths)
    ]


# ---------------------------------------------------------------------------
# chart specs and the finite-difference Jacobian


@dataclass(frozen=True)
class ChartSpec:
    """A parameterized chart: space 'psd' ((m, q)), 'rect' ((n, m, q)) or
    'tri' ((q, m): upper-triangular-leading factors with real positive diagonal)."""

    space: str
    kind: AlgebraKind
    sizes: tuple[int, ...]
    pivots: tuple = ()

    def coord_count(self) -> int:
        beta = self.kind.beta
        if self.space == "psd":
            m, q = self.sizes
            return psd_coord_count(m, q, beta)
        if self.space == "rect":
            n, m, q = self.sizes
            return rect_coord_count(n, m, q, beta)
        if self.space == "tri":
            q, m = self.sizes
            return q + beta * (q * (q - 1) // 2 + q * (m - q))
        raise RegistryError(f"unknown chart space {self.space!r}")

    def complete_batch(self, coords: np.ndarray) -> np.ndarray:
        if self.space == "psd":
            m, q = self.sizes
            return complete_psd_batch(coords, self.kind, m, q, self.pivots)
        if self.space == "rect":
            n, m, q = self.sizes
            rp, cp = self.pivots
            return complete_rect_batch(coords, self.kind, n, m, q, rp, cp)
        if self.space == "tri":
            q, m = self.sizes
            return _tri_unpack(coords, self.kind, q, m)
        raise RegistryError(f"unknown chart space {self.space!r}")

    def extract_batch(self, data: np.ndarray) -> np.ndarray:
        if self.space == "psd":
            m, q = self.sizes
            return extract_psd_batch(data, m, q, self.pivots, self.kind)
        if self.space == "rect":
            _, _, q = self.sizes
            rp, cp = self.pivots
            return extract_rect_batch(data, q, rp, cp)
        if self.space == "tri":
            q, m = self.sizes
            return _tri_pack(data, self.kind, q, m)
        raise RegistryError(f"unknown chart space {self.space!r}")


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
    beta = kind.beta
    b = t.shape[0]
    parts = [t[:, i, i, 0][:, None] for i in range(q)]
    for i in range(q):
        for j in range(i + 1, m):
            parts.append(t[:, i, j, :])
    return np.concatenate(parts, axis=1)


def _spec_of_point(point) -> tuple[ChartSpec, np.ndarray]:
    if isinstance(point, PsdChartPoint):
        return (
            ChartSpec("psd", point.kind, (point.m, point.q), point.pivot),
            point.coords,
        )
    if isinstance(point, RectChartPoint):
        return (
            ChartSpec(
                "rect",
                point.kind,
                (point.n, point.m, point.q),
                (point.row_pivot, point.col_pivot),
            ),
            point.coords,
        )
    raise ConfigurationError(f"unsupported chart point type {type(point).__name__}")


def _jacobian_logdet(
    map_batch, in_spec: ChartSpec, coords0: np.ndarray, out_spec: ChartSpec, step: float
) -> float:
    """Central differences at all 2k perturbations of coords0 in one pass:
    rows coords0 + h_i e_i, then coords0 - h_i e_i, through one completion,
    one map call and one extraction."""
    k = coords0.size
    k_out = out_spec.coord_count()
    if k_out != k:
        raise InternalConsistencyError(
            f"chart dimensions differ: input {k}, output {k_out}"
        )
    h = np.maximum(step, step * np.abs(coords0))
    coords = np.concatenate([coords0 + np.diag(h), coords0 - np.diag(h)])
    mapped = map_batch(_require_finite(in_spec.complete_batch(coords)))
    f = out_spec.extract_batch(_require_finite(mapped))
    jac = ((f[:k] - f[k:]) / (2.0 * h[:, None])).T
    sign, logdet = np.linalg.slogdet(jac)
    if sign == 0.0:
        raise SingularBlockError("chart Jacobian is singular")
    return float(logdet)


def _require_finite(data: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise ValueError("matrix coefficients must be finite")
    return data


def chart_jacobian_logdet(map_batch, point, out_spec: ChartSpec, step: float = 1e-5) -> float:
    """log |det| of the coordinate Jacobian of extract(map(complete(point))).

    map_batch is the map on a batch of coefficient arrays, (B, n, m, beta) ->
    (B, n', m', beta), row by row (e.g. pinv_batch with beta bound); it is
    called once, on the 2k perturbations of the point's k coordinates.
    """
    in_spec, coords0 = _point_spec(point)
    return _jacobian_logdet(map_batch, in_spec, coords0, out_spec, step)


# ---------------------------------------------------------------------------
# shared helpers


def _draw_b(task: TaskSpec) -> Mat:
    kind, m = task.kind, task.m
    source = task.b_source
    if source == "identity":
        return Mat.eye(kind, m)
    if source == "random":
        rng = _substream(task.seed, TASK_CODES[task.theorem_id], _SIDE_B, 0)
        for _ in range(1000):
            b = Mat(kind, rng.normal(size=(m, m, kind.beta)))
            scale = (float(np.linalg.norm(b.data)) / math.sqrt(m)) ** m
            if sdet(b) > 0.1 * scale:
                return b
        raise ConfigurationError("could not draw a well-conditioned B matrix")
    return load_matrix(source)


def _spectra_batch(data: np.ndarray, kind: AlgebraKind, top: int) -> np.ndarray:
    """Top eigenvalue multiplet means, descending, of batched Hermitian matrices."""
    e = embed_raw(data, kind.beta)
    e = (e + np.swapaxes(e, -1, -2)) / 2.0
    w = np.linalg.eigvalsh(e)
    groups = w.reshape(w.shape[0], -1, kind.beta).mean(axis=2)
    return groups[:, ::-1][:, :top]


def _sv_batch(data: np.ndarray, kind: AlgebraKind, top: int) -> np.ndarray:
    """Top singular-value multiplet means, descending, of batched matrices."""
    sv = np.linalg.svd(embed_raw(data, kind.beta), compute_uv=False)
    groups = sv.reshape(sv.shape[0], -1, kind.beta).mean(axis=2)
    return groups[:, :top]


def _in_box_gap(spec: np.ndarray, lo: float, hi: float, gap: float) -> np.ndarray:
    """Mask: spectra (B, q), descending, inside [lo, hi] with consecutive gaps >= gap."""
    ok = np.all((spec >= lo) & (spec <= hi), axis=1)
    if spec.shape[1] > 1:
        ok &= (spec[:, :-1] - spec[:, 1:]).min(axis=1) >= gap
    return ok


def _desc_inverse(spec: np.ndarray) -> np.ndarray:
    """1/spec of a descending positive spectrum, again descending."""
    return (1.0 / spec)[:, ::-1]


def _min_eig_block(s11: np.ndarray, beta: int) -> np.ndarray:
    e = embed_raw(s11, beta)
    e = (e + np.swapaxes(e, -1, -2)) / 2.0
    return np.linalg.eigvalsh(e)[:, 0]


def _min_sv_block(x11: np.ndarray, beta: int) -> np.ndarray:
    return np.linalg.svd(embed_raw(x11, beta), compute_uv=False)[:, -1]


def _congruence_batch(bct: np.ndarray, data: np.ndarray, b: np.ndarray, beta: int) -> np.ndarray:
    out = mul_raw(mul_raw(bct, data, beta), b, beta)
    return (out + ct_raw(out)) / 2.0


# ---------------------------------------------------------------------------
# Monte Carlo accumulation


def _mc_estimate(
    side_fn,
    log_const: float,
    test_fns: list[TestFunction],
    trials: int,
    seed: int,
    task_code: int,
    side_code: int,
    jobs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate E[f * weight] * exp(log_const) per test function.

    side_fn(rng, count) -> (data, logw).  Returns (means, stderrs), each of
    shape (len(test_fns),).  Blocks are fixed-size and reduced in index
    order, so results do not depend on the worker count.
    """
    n_fns = len(test_fns)
    sizes = [BLOCK_SIZE] * (trials // BLOCK_SIZE)
    if trials % BLOCK_SIZE:
        sizes.append(trials % BLOCK_SIZE)

    def work(args):
        idx, size = args
        rng = _substream(seed, task_code, side_code, idx)
        data, logw = side_fn(rng, size)
        with np.errstate(over="ignore"):
            w = np.exp(logw + log_const)
        out = np.empty((n_fns, 2))
        for k, fn in enumerate(test_fns):
            v = fn(data) * w
            out[k, 0] = v.sum()
            out[k, 1] = np.dot(v, v)
        return out

    tasks = list(enumerate(sizes))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(work, tasks))
    else:
        partials = [work(t) for t in tasks]
    total = np.zeros((n_fns, 2))
    for part in partials:  # fixed reduction order
        total += part
    n = float(trials)
    means = total[:, 0] / n
    var = np.maximum(total[:, 1] - n * means**2, 0.0) / max(n - 1.0, 1.0)
    stderrs = np.sqrt(var / n)
    return means, stderrs


def _reference_samples(side_fn, seed: int, task_code: int, count: int = 512) -> np.ndarray:
    rng = _substream(seed, task_code, _SIDE_REFERENCE, 0)
    data, logw = side_fn(rng, count)
    good = np.isfinite(logw)
    if not np.any(good):
        raise ConfigurationError("no valid reference samples; widen the box or gap")
    return data[good]


# ---------------------------------------------------------------------------
# CHART engine


def _chart_problem(task: TaskSpec):
    """Returns (point_sampler(rng) -> (in_point, map_batch, out_spec, analytic_log, gap_at_point)).

    map_batch is the map on a batch of coefficient arrays (see
    chart_jacobian_logdet).
    """
    kind, beta = task.kind, task.beta
    lo, hi = task.eigen_box
    m, n, q = task.m, task.n, task.q

    # For the pseudo-inverse maps the output chart must be the input chart
    # transported through the map: permutations commute with pinv, so tying
    # the pivots makes the pair of charts a pure relabeling of the leading-
    # block charts.  Untied pivots would insert a nonconstant chart-transition
    # Jacobian that is not part of the transform factor.
    inverse = partial(pinv_batch, beta=beta)

    if task.theorem_id == "MP_HERM":
        def sample(rng):
            lam = _sorted_spectrum(rng, lo, hi, q, 1)
            w1 = sample_stiefel_batch(m, q, kind, rng, 1)
            s = Mat(kind, assemble_sd_batch(w1, lam, beta)[0])
            point = extract_psd(s, q)
            out_spec = ChartSpec("psd", kind, (m, q), point.pivot)
            analytic = transform_factor_log(
                "MP_HERM", FactorInput(beta=beta, m=m, q=q, lam=tuple(lam[0]))
            )
            gap_at = _spectrum_gap(lam[0])
            return point, inverse, out_spec, analytic, gap_at
        return sample

    if task.theorem_id == "MP_RECT":
        def sample(rng):
            d = _sorted_spectrum(rng, lo, hi, q, 1)
            v1 = sample_stiefel_batch(n, q, kind, rng, 1)
            w1 = sample_stiefel_batch(m, q, kind, rng, 1)
            x = Mat(kind, assemble_svd_batch(v1, d, w1, beta)[0])
            point = extract_rect(x, q)
            out_spec = ChartSpec(
                "rect", kind, (m, n, q), (point.col_pivot, point.row_pivot)
            )
            analytic = transform_factor_log(
                "MP_RECT", FactorInput(beta=beta, n=n, m=m, q=q, d=tuple(d[0]))
            )
            return point, inverse, out_spec, analytic, _spectrum_gap(d[0])
        return sample

    if task.theorem_id == "CHOL":
        tri_spec = ChartSpec("tri", kind, (q, m))

        def gram(t: np.ndarray) -> np.ndarray:
            return mul_raw(ct_raw(t), t, beta)

        def sample(rng):
            coords = np.zeros(tri_spec.coord_count())
            coords[:q] = rng.uniform(0.5, 2.0, size=q)
            coords[q:] = 0.7 * rng.standard_normal(coords.size - q)
            t = _tri_unpack(coords[None], kind, q, m)[0]
            point = _TriPoint(tri_spec, coords, t)
            out_spec = ChartSpec("psd", kind, (m, q), tuple(range(m)))
            analytic = decomposition_density_log(
                "CHOL",
                FactorInput(beta=beta, m=m, q=q, t_diag=tuple(coords[:q])),
            )
            return point, gram, out_spec, analytic, math.inf
        return sample

    if task.theorem_id in ("UHLIG_QR", "CONGRUENCE_NS"):
        b = _draw_b(task)
        rank = n if task.theorem_id == "UHLIG_QR" else m
        congruence = partial(_congruence_batch, ct_raw(b.data), b=b.data, beta=beta)

        def sample(rng):
            lam = _sorted_spectrum(rng, lo, hi, rank, 1)
            w1 = sample_stiefel_batch(m, rank, kind, rng, 1)
            y = Mat(kind, assemble_sd_batch(w1, lam, beta)[0])
            point = extract_psd(y, rank)
            x = Mat(kind, congruence(y.data[None])[0])
            out_pivot = choose_pivot(x, rank, chart="psd")
            out_spec = ChartSpec("psd", kind, (m, rank), out_pivot)
            if task.theorem_id == "CONGRUENCE_NS":
                analytic = transform_factor_log(
                    "CONGRUENCE_NS", FactorInput(beta=beta, m=m, det_b=sdet(b))
                )
            else:
                det_t = _pivoted_chol_det(x, rank, out_pivot)
                det_l = _pivoted_chol_det(y, rank, point.pivot)
                analytic = transform_factor_log(
                    "UHLIG_QR",
                    FactorInput(
                        beta=beta, m=m, n=rank,
                        det_t1t1=det_t, det_l1l1=det_l, det_b=sdet(b),
                    ),
                )
            return point, congruence, out_spec, analytic, _spectrum_gap(lam[0])
        return sample

    raise RegistryError(f"{task.theorem_id} has no CHART implementation")


@dataclass(frozen=True)
class _TriPoint:
    spec: ChartSpec
    coord_values: np.ndarray
    t: np.ndarray

    @property
    def coords(self) -> np.ndarray:
        return self.coord_values


def _spectrum_gap(spec: np.ndarray) -> float:
    """Smallest gap among a descending positive spectrum, including the gap to 0."""
    extended = np.concatenate([spec, [0.0]])
    return float((extended[:-1] - extended[1:]).min())


def _pivoted_chol_det(s: Mat, rank: int, pivot) -> float:
    """sdet(T1* T1) for the Cholesky factor of the pivoted matrix."""
    pv = np.asarray(pivot, dtype=int)
    sp = Mat(s.kind, s.data[np.ix_(pv, pv)])
    t = cholesky_rank_q(sp, rank)
    t1 = Mat(s.kind, t.data[:, :rank, :])
    return math.exp(2.0 * sdet_log(t1))


def _point_spec(point) -> tuple[ChartSpec, np.ndarray]:
    if isinstance(point, _TriPoint):
        return point.spec, point.coords
    return _spec_of_point(point)


def run_chart_task(task: TaskSpec, jobs: int = 1) -> Report:
    """Compare finite-difference chart Jacobians with the analytic factor."""
    start = time.perf_counter()
    if task.engine != "CHART":
        raise RegistryError(f"run_chart_task needs engine CHART, got {task.engine}")
    sampler = _chart_problem(task)
    code = TASK_CODES[task.theorem_id]
    records = []

    def do_point(i: int) -> dict:
        rng = _substream(task.seed, code, _SIDE_POINTS, i)
        point, map_batch, out_spec, analytic, gap_at = sampler(rng)
        if gap_at < 10.0 * task.gap:
            warnings.warn(
                f"point {i}: spectral gap {gap_at:.3e} is within 10x the gap "
                f"tolerance; finite differences may be ill-conditioned",
                RuntimeWarning,
                stacklevel=2,
            )
        in_spec, coords0 = _point_spec(point)
        numeric = _jacobian_logdet(map_batch, in_spec, coords0, out_spec, task.step)
        tol = max(task.rtol * abs(analytic), ABS_LOG_FLOOR)
        err = abs(numeric - analytic)
        return {
            "point": i,
            "analytic_log": float(analytic),
            "numeric_log": float(numeric),
            "abs_err": float(err),
            "tol": float(tol),
            "pass": bool(err <= tol),
        }

    indices = list(range(task.points))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(do_point, indices))
    else:
        records = [do_point(i) for i in indices]
    passed = all(r["pass"] for r in records)
    return Report(
        task=task,
        engine="CHART",
        records=tuple(records),
        passed=passed,
        constant_estimate=None,
        seed=task.seed,
        runtime_ms=int((time.perf_counter() - start) * 1000),
        version=__version__,
    )


# ---------------------------------------------------------------------------
# MC_EQUALITY engine


def _equality_problem(task: TaskSpec):
    """Returns (lhs_fn, lhs_const, rhs_fn, rhs_const).

    Each side_fn(rng, count) -> (data, logw); logw already contains density,
    transform factor, and region indicators (log 0 = -inf for excluded draws).
    The constants carry box volumes and Stiefel masses.
    """
    kind, beta = task.kind, task.beta
    lo, hi = task.eigen_box
    gap = task.gap
    m, n, q = task.m, task.n, task.q

    if task.theorem_id == "W":
        dlo, dhi = math.sqrt(lo), math.sqrt(hi)

        def lhs(rng, count):
            d = _sorted_spectrum(rng, dlo, dhi, q, count)
            v1 = sample_stiefel_batch(n, q, kind, rng, count)
            w1 = sample_stiefel_batch(m, q, kind, rng, count)
            x = assemble_svd_batch(v1, d, w1, beta)
            logw = svd_density_log_batch(d, beta, n, m)
            lam = d * d
            ok = _in_box_gap(lam, lo, hi, gap)
            return x, np.where(ok, logw, -np.inf)

        lhs_const = (
            q * math.log(dhi - dlo)
            - math.lgamma(q + 1)
            + stiefel_volume_log(q, n, beta)
            + stiefel_volume_log(q, m, beta)
        )

        def rhs(rng, count):
            lam = _sorted_spectrum(rng, lo, hi, q, count)
            w1 = sample_stiefel_batch(m, q, kind, rng, count)
            v1 = sample_stiefel_batch(n, q, kind, rng, count)
            x = assemble_svd_batch(v1, np.sqrt(lam), w1, beta)
            logw = sd_density_log_batch(lam, beta, m)
            logw = logw - q * math.log(2.0) + (
                beta * (n - m + 1) / 2.0 - 1.0
            ) * np.log(lam).sum(axis=1)
            ok = _in_box_gap(lam, lo, hi, gap)
            return x, np.where(ok, logw, -np.inf)

        rhs_const = (
            q * math.log(hi - lo)
            - math.lgamma(q + 1)
            + stiefel_volume_log(q, m, beta)
            + stiefel_volume_log(q, n, beta)
        )
        return lhs, lhs_const, rhs, rhs_const

    if task.theorem_id == "MP_HERM":
        vlo, vhi = 1.0 / hi, 1.0 / lo

        def lhs(rng, count):
            lam_v = _sorted_spectrum(rng, vlo, vhi, q, count)
            w1 = sample_stiefel_batch(m, q, kind, rng, count)
            v = assemble_sd_batch(w1, lam_v, beta)
            logw = sd_density_log_batch(lam_v, beta, m)
            lam_s = _desc_inverse(lam_v)
            ok = _in_box_gap(lam_s, lo, hi, gap)
            return v, np.where(ok, logw, -np.inf)

        lhs_const = (
            q * math.log(vhi - vlo) - math.lgamma(q + 1) + stiefel_volume_log(q, m, beta)
        )

        def rhs(rng, count):
            lam = _sorted_spectrum(rng, lo, hi, q, count)
            w1 = sample_stiefel_batch(m, q, kind, rng, count)
            v = assemble_sd_batch(w1, 1.0 / lam, beta)
            logw = sd_density_log_batch(lam, beta, m)
            logw = logw + (beta * (-2 * m + q + 1) - 2) * np.log(lam).sum(axis=1)
            ok = _in_box_gap(lam, lo, hi, gap)
            return v, np.where(ok, logw, -np.inf)

        rhs_const = (
            q * math.log(hi - lo) - math.lgamma(q + 1) + stiefel_volume_log(q, m, beta)
        )
        return lhs, lhs_const, rhs, rhs_const

    if task.theorem_id == "MP_RECT":
        dlo, dhi = 1.0 / hi, 1.0 / lo

        def lhs(rng, count):
            d_y = _sorted_spectrum(rng, dlo, dhi, q, count)
            v1 = sample_stiefel_batch(m, q, kind, rng, count)
            w1 = sample_stiefel_batch(n, q, kind, rng, count)
            y = assemble_svd_batch(v1, d_y, w1, beta)
            logw = svd_density_log_batch(d_y, beta, m, n)
            d_x = _desc_inverse(d_y)
            ok = _in_box_gap(d_x, lo, hi, gap)
            return y, np.where(ok, logw, -np.inf)

        lhs_const = (
            q * math.log(dhi - dlo)
            - math.lgamma(q + 1)
            + stiefel_volume_log(q, m, beta)
            + stiefel_volume_log(q, n, beta)
        )

        def rhs(rng, count):
            d = _sorted_spectrum(rng, lo, hi, q, count)
            v1 = sample_stiefel_batch(n, q, kind, rng, count)
            w1 = sample_stiefel_batch(m, q, kind, rng, count)
            y = assemble_svd_batch(w1, 1.0 / d, v1, beta)
            logw = svd_density_log_batch(d, beta, n, m)
            logw = logw - 2 * beta * (m + n - q) * np.log(d).sum(axis=1)
            ok = _in_box_gap(d, lo, hi, gap)
            return y, np.where(ok, logw, -np.inf)

        rhs_const = (
            q * math.log(hi - lo)
            - math.lgamma(q + 1)
            + stiefel_volume_log(q, n, beta)
            + stiefel_volume_log(q, m, beta)
        )
        return lhs, lhs_const, rhs, rhs_const

    if task.theorem_id in ("UHLIG_SVD", "UHLIG_MP"):
        b = _draw_b(task)
        b_inv = mat_inv(b)
        det_b_log = sdet_log(b)
        e = beta * (m - n - 1) / 2.0 + 1.0
        mp = task.theorem_id == "UHLIG_MP"
        lam_exp = -(beta * (3 * m - n - 1) / 2.0 + 1.0) if mp else -e
        bct = ct_raw(b.data)
        b_inv_ct = ct_raw(b_inv.data)

        def image_batch(rng, count):
            """Draw from the right-hand measure; returns (x, delta, lam, gap_ok)."""
            lam = _sorted_spectrum(rng, lo, hi, n, count)
            w1 = sample_stiefel_batch(m, n, kind, rng, count)
            spectrum = 1.0 / lam if mp else lam
            y_like = assemble_sd_batch(w1, spectrum, beta)
            x = _congruence_batch(bct, y_like, b.data, beta)
            delta = _spectra_batch(x, kind, n)
            return x, delta, lam, _in_box_gap(lam, lo, hi, gap)

        # Both sides are additionally restricted to per-position spectral
        # boxes estimated from pilot image spectra.  Any common restriction
        # preserves the identity; the boxes keep the left sampler close to
        # the image so its acceptance rate survives ill-conditioned B.
        code = TASK_CODES[task.theorem_id]
        _, pilot_delta, _, pilot_ok = image_batch(
            _substream(task.seed, code, _SIDE_PILOT, 0), 4096
        )
        pilot_delta = pilot_delta[pilot_ok]
        if pilot_delta.shape[0] < 32:
            raise InconclusiveStatisticsError(
                "pilot acceptance too low to bracket the image spectra; "
                "widen the eigenvalue box or reduce the gap"
            )
        box_lo = 0.95 * np.quantile(pilot_delta, 0.01, axis=0)
        box_hi = 1.05 * np.quantile(pilot_delta, 0.99, axis=0)

        def rhs(rng, count):
            x, delta, lam, ok = image_batch(rng, count)
            logw = sd_density_log_batch(lam, beta, m)
            logw = logw + beta * n * det_b_log
            logw = logw + e * np.log(delta).sum(axis=1) + lam_exp * np.log(lam).sum(axis=1)
            ok &= np.all((delta >= box_lo) & (delta <= box_hi), axis=1)
            return x, np.where(ok, logw, -np.inf)

        rhs_const = (
            n * math.log(hi - lo) - math.lgamma(n + 1) + stiefel_volume_log(n, m, beta)
        )

        # The left sampler importance-samples the eigenframe from the law of
        # an orthonormal basis of range(B^* G) with G Gaussian -- exactly the
        # subspace distribution of image points -- and divides by its density
        # relative to the uniform frame measure,
        #   sdet(Sigma)^{-beta n/2} sdet(H^* Sigma^{-1} H)^{-beta m/2},
        # with Sigma = B^* B.  With B = I this reduces to uniform frames.
        ebct = embed_raw(bct, beta)
        eb_inv_ct = embed_raw(b_inv_ct, beta)

        def lhs(rng, count):
            u = rng.uniform(size=(count, n))
            lam_x = box_lo + u * (box_hi - box_lo)
            sorted_ok = np.all(lam_x[:, :-1] > lam_x[:, 1:], axis=1)
            g = rng.standard_normal(size=(count, m, n, kind.beta))
            ez = ebct[None] @ embed_raw(g, beta)
            gram_z = np.swapaxes(ez, -1, -2) @ ez
            gram_z = 0.5 * (gram_z + np.swapaxes(gram_z, -1, -2))
            w_z, u_z = np.linalg.eigh(gram_z)
            inv_sqrt = (u_z * (1.0 / np.sqrt(w_z))[..., None, :]) @ np.swapaxes(
                u_z, -1, -2
            )
            h = fold_raw(ez @ inv_sqrt, beta)
            x = assemble_sd_batch(h, lam_x, beta)
            z = _congruence_batch(b_inv_ct, x, b_inv.data, beta)
            z_spec = _spectra_batch(z, kind, n)
            lam_y = _desc_inverse(z_spec) if mp else z_spec
            ok = _in_box_gap(lam_y, lo, hi, gap) & sorted_ok
            t = eb_inv_ct[None] @ (ez @ inv_sqrt)
            gram_h = np.swapaxes(t, -1, -2) @ t
            _, ld = np.linalg.slogdet(gram_h)
            with np.errstate(invalid="ignore"):
                logw = sd_density_log_batch(lam_x, beta, m)
            logw = logw + beta * n * det_b_log + 0.5 * m * ld
            return x, np.where(ok, logw, -np.inf)

        lhs_const = float(np.log(box_hi - box_lo).sum()) + stiefel_volume_log(
            n, m, beta
        )
        return lhs, lhs_const, rhs, rhs_const

    raise RegistryError(f"{task.theorem_id} has no MC_EQUALITY implementation")


def run_mc_equality_task(task: TaskSpec, jobs: int = 1, n_test_functions: int = 3) -> Report:
    """Estimate both sides of the factorized-measure identity and z-test them."""
    start = time.perf_counter()
    if task.engine != "MC_EQUALITY":
        raise RegistryError(
            f"run_mc_equality_task needs engine MC_EQUALITY, got {task.engine}"
        )
    if n_test_functions < 2:
        raise ConfigurationError("equality tasks need at least 2 test functions")
    lhs_fn, lhs_const, rhs_fn, rhs_const = _equality_problem(task)
    code = TASK_CODES[task.theorem_id]
    reference = _reference_samples(rhs_fn, task.seed, code)
    test_fns = make_test_functions(task.seed, n_test_functions, reference)
    lhs_mean, lhs_se = _mc_estimate(
        lhs_fn, lhs_const, test_fns, task.trials, task.seed, code, _SIDE_LHS, jobs
    )
    rhs_mean, rhs_se = _mc_estimate(
        rhs_fn, rhs_const, test_fns, task.trials, task.seed, code, _SIDE_RHS, jobs
    )
    records = []
    worst_rel = 0.0
    for k in range(len(test_fns)):
        se = math.sqrt(lhs_se[k] ** 2 + rhs_se[k] ** 2)
        z = abs(lhs_mean[k] - rhs_mean[k]) / se if se > 0 else math.inf
        rel = max(
            lhs_se[k] / abs(lhs_mean[k]) if lhs_mean[k] else math.inf,
            rhs_se[k] / abs(rhs_mean[k]) if rhs_mean[k] else math.inf,
        )
        worst_rel = max(worst_rel, rel)
        records.append(
            {
                "test_function": k,
                "lhs": float(lhs_mean[k]),
                "lhs_stderr": float(lhs_se[k]),
                "rhs": float(rhs_mean[k]),
                "rhs_stderr": float(rhs_se[k]),
                "z": float(z),
                "rel_stderr": float(rel),
                "pass": bool(z <= task.ztol),
            }
        )
    if worst_rel > INCONCLUSIVE_REL_STDERR:
        raise InconclusiveStatisticsError(
            f"relative stderr {worst_rel:.1%} exceeds "
            f"{INCONCLUSIVE_REL_STDERR:.0%}; raise trials"
        )
    passed = all(r["pass"] for r in records)
    return Report(
        task=task,
        engine="MC_EQUALITY",
        records=tuple(records),
        passed=passed,
        constant_estimate=None,
        seed=task.seed,
        runtime_ms=int((time.perf_counter() - start) * 1000),
        version=__version__,
    )


# ---------------------------------------------------------------------------
# MC_RATIO engine


def _phase_fiber_log(beta: int, q: int) -> float:
    """Per-column unit-scalar gauge volume of the spectral factorizations."""
    return q * stiefel_volume_log(1, 1, beta)


def _quantile_box(coords: np.ndarray, lo_q: float = 0.02, hi_q: float = 0.98) -> np.ndarray:
    box = np.quantile(coords, [lo_q, hi_q], axis=0).T  # (k, 2)
    width = box[:, 1] - box[:, 0]
    floor = 1e-6 * max(1.0, float(np.abs(box).max()))
    box[:, 1] = np.where(width <= floor, box[:, 0] + floor, box[:, 1])
    return box


def _coords_in_box(coords: np.ndarray, box: np.ndarray) -> np.ndarray:
    return np.all((coords >= box[:, 0]) & (coords <= box[:, 1]), axis=1)


def _box_volume_log(box: np.ndarray) -> float:
    return float(np.log(box[:, 1] - box[:, 0]).sum())


def _uniform_in_box(rng: np.random.Generator, box: np.ndarray, count: int) -> np.ndarray:
    return rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))


def _ratio_problem(task: TaskSpec):
    """Returns (chart_fn, chart_const, fact_fn, fact_const, reference_fn)."""
    kind, beta = task.kind, task.beta
    lo, hi = task.eigen_box
    gap = task.gap
    m, n, q = task.m, task.n, task.q
    code = TASK_CODES[task.theorem_id]
    pilot_rng = _substream(task.seed, code, _SIDE_PILOT, 0)

    if task.theorem_id == "SD":
        pivot = tuple(range(m))
        spec = ChartSpec("psd", kind, (m, q), pivot)

        def fact_raw(rng, count):
            lam = _sorted_spectrum(rng, lo, hi, q, count)
            w1 = sample_stiefel_batch(m, q, kind, rng, count)
            s = assemble_sd_batch(w1, lam, beta)
            logw = sd_density_log_batch(lam, beta, m)
            return s, np.where(_in_box_gap(lam, lo, hi, gap), logw, -np.inf), lam

        pilot_s, pilot_w, _ = fact_raw(pilot_rng, 4096)
        good = np.isfinite(pilot_w)
        pilot_coords = spec.extract_batch(pilot_s[good])
        box = _quantile_box(pilot_coords)
        s11_p, _ = _psd_unpack(pilot_coords, kind, m, q)
        eps = 0.9 * float(np.quantile(_min_eig_block(s11_p, beta), 0.05))

        def common_mask(coords: np.ndarray) -> np.ndarray:
            ok = _coords_in_box(coords, box)
            s11, _ = _psd_unpack(coords, kind, m, q)
            ok &= _min_eig_block(s11, beta) >= eps
            return ok

        def chart_fn(rng, count):
            coords = _uniform_in_box(rng, box, count)
            s11, _ = _psd_unpack(coords, kind, m, q)
            valid = _min_eig_block(s11, beta) >= eps
            data = np.zeros((count, m, m, beta))
            data[:, np.arange(m), np.arange(m), 0] = 1.0
            logw = np.full(count, -np.inf)
            if np.any(valid):
                sub = coords[valid]
                data[valid] = complete_psd_batch(sub, kind, m, q, pivot)
                hlog = hausdorff_density_log_batch("psd", sub, kind, (m, q), pivot, task.step)
                spec_ok = _in_box_gap(_spectra_batch(data[valid], kind, q), lo, hi, gap)
                logw[valid] = np.where(spec_ok, hlog, -np.inf)
            return data, logw

        chart_const = _box_volume_log(box)

        def fact_fn(rng, count):
            s, logw, _ = fact_raw(rng, count)
            coords = spec.extract_batch(s)
            return s, np.where(common_mask(coords), logw, -np.inf)

        fact_const = (
            q * math.log(hi - lo)
            - math.lgamma(q + 1)
            + stiefel_volume_log(q, m, beta)
            - _phase_fiber_log(beta, q)
        )

        def reference_fn(rng, count):
            s, logw, _ = fact_raw(rng, count)
            return s, logw

        return chart_fn, chart_const, fact_fn, fact_const, reference_fn

    if task.theorem_id == "SVD":
        row_pivot = tuple(range(n))
        col_pivot = tuple(range(m))
        spec = ChartSpec("rect", kind, (n, m, q), (row_pivot, col_pivot))

        def fact_raw(rng, count):
            d = _sorted_spectrum(rng, lo, hi, q, count)
            v1 = sample_stiefel_batch(n, q, kind, rng, count)
            w1 = sample_stiefel_batch(m, q, kind, rng, count)
            x = assemble_svd_batch(v1, d, w1, beta)
            logw = svd_density_log_batch(d, beta, n, m)
            return x, np.where(_in_box_gap(d, lo, hi, gap), logw, -np.inf), d

        pilot_x, pilot_w, _ = fact_raw(pilot_rng, 4096)
        good = np.isfinite(pilot_w)
        pilot_coords = spec.extract_batch(pilot_x[good])
        box = _quantile_box(pilot_coords)
        if q < min(n, m):
            x11_p = _rect_unpack(pilot_coords, kind, n, m, q)[0]
            eps = 0.9 * float(np.quantile(_min_sv_block(x11_p, beta), 0.05))
        else:
            eps = 0.0

        def block_ok(coords: np.ndarray) -> np.ndarray:
            if q == min(n, m):
                return np.ones(coords.shape[0], dtype=bool)
            x11 = _rect_unpack(coords, kind, n, m, q)[0]
            return _min_sv_block(x11, beta) >= eps

        def chart_fn(rng, count):
            coords = _uniform_in_box(rng, box, count)
            valid = block_ok(coords)
            data = np.zeros((count, n, m, beta))
            logw = np.full(count, -np.inf)
            if np.any(valid):
                sub = coords[valid]
                data[valid] = complete_rect_batch(sub, kind, n, m, q, row_pivot, col_pivot)
                hlog = hausdorff_density_log_batch(
                    "rect", sub, kind, (n, m, q), (row_pivot, col_pivot), task.step
                )
                spec_ok = _in_box_gap(_sv_batch(data[valid], kind, q), lo, hi, gap)
                logw[valid] = np.where(spec_ok, hlog, -np.inf)
            return data, logw

        chart_const = _box_volume_log(box)

        def fact_fn(rng, count):
            x, logw, _ = fact_raw(rng, count)
            coords = spec.extract_batch(x)
            ok = _coords_in_box(coords, box) & block_ok(coords)
            return x, np.where(ok, logw, -np.inf)

        fact_const = (
            q * math.log(hi - lo)
            - math.lgamma(q + 1)
            + stiefel_volume_log(q, n, beta)
            + stiefel_volume_log(q, m, beta)
            - _phase_fiber_log(beta, q)
        )

        def reference_fn(rng, count):
            x, logw, _ = fact_raw(rng, count)
            return x, logw

        return chart_fn, chart_const, fact_fn, fact_const, reference_fn

    if task.theorem_id == "QR":
        # q = m (enforced): the chart is the whole n x m space
        row_pivot = tuple(range(n))
        col_pivot = tuple(range(m))
        spec = ChartSpec("rect", kind, (n, m, m), (row_pivot, col_pivot))
        k_tri = m + beta * (m * (m - 1) // 2)
        tri_box = np.empty((k_tri, 2))
        tri_box[:m, 0] = lo
        tri_box[:m, 1] = hi
        tri_box[m:, 0] = -hi
        tri_box[m:, 1] = hi
        qr_exponents = np.array([beta * (n - i + 1) - 1 for i in range(1, m + 1)], dtype=float)

        def fact_raw(rng, count):
            tcoords = _uniform_in_box(rng, tri_box, count)
            t = _tri_unpack(tcoords, kind, m, m)
            h1 = sample_stiefel_batch(n, m, kind, rng, count)
            x = mul_raw(h1, t, beta)
            logw = (np.log(tcoords[:, :m]) * qr_exponents[None, :]).sum(axis=1)
            return x, logw, tcoords

        pilot_x, _, _ = fact_raw(pilot_rng, 4096)
        box = _quantile_box(spec.extract_batch(pilot_x))

        def tri_coords_of(data: np.ndarray) -> np.ndarray:
            h, t, ok = _qr_coords_batch(data, kind, m)
            coords = _tri_pack(t, kind, m, m)
            coords[~ok] = np.inf
            return coords

        def chart_fn(rng, count):
            coords = _uniform_in_box(rng, box, count)
            data = complete_rect_batch(coords, kind, n, m, m, row_pivot, col_pivot)
            hlog = hausdorff_density_log_batch(
                "rect", coords, kind, (n, m, m), (row_pivot, col_pivot), task.step
            )
            ok = _coords_in_box(tri_coords_of(data), tri_box)
            return data, np.where(ok, hlog, -np.inf)

        chart_const = _box_volume_log(box)

        def fact_fn(rng, count):
            x, logw, tcoords = fact_raw(rng, count)
            ok = _coords_in_box(spec.extract_batch(x), box)
            ok &= _coords_in_box(tcoords, tri_box)
            return x, np.where(ok, logw, -np.inf)

        fact_const = _box_volume_log(tri_box) + stiefel_volume_log(m, n, beta)

        def reference_fn(rng, count):
            x, logw, _ = fact_raw(rng, count)
            return x, logw

        return chart_fn, chart_const, fact_fn, fact_const, reference_fn

    if task.theorem_id == "CHOL_X":
        # q = m (enforced): S = X*X is m x m positive definite
        row_pivot = tuple(range(n))
        col_pivot = tuple(range(m))
        x_spec = ChartSpec("rect", kind, (n, m, m), (row_pivot, col_pivot))
        s_pivot = tuple(range(m))
        s_spec = ChartSpec("psd", kind, (m, m), s_pivot)
        exp_s = beta * (n - m + 1) / 2.0 - 1.0

        def pilot_sample(rng, count):
            lam = _sorted_spectrum(rng, lo, hi, m, count)
            w1 = sample_stiefel_batch(m, m, kind, rng, count)
            return assemble_sd_batch(w1, lam, beta)

        pilot_s = pilot_sample(pilot_rng, 4096)
        s_box = _quantile_box(s_spec.extract_batch(pilot_s))
        eps = 0.9 * float(np.quantile(_spectra_batch(pilot_s, kind, m)[:, -1], 0.05))

        def chol_factor(s: np.ndarray) -> np.ndarray:
            c = np.linalg.cholesky(embed_raw(s, beta))
            return fold_raw(np.swapaxes(c, -1, -2), beta)

        def assemble_x(s: np.ndarray, h1: np.ndarray) -> np.ndarray:
            return mul_raw(h1, chol_factor(s), beta)

        pilot_h = sample_stiefel_batch(n, m, kind, _substream(task.seed, code, _SIDE_PILOT, 1), 4096)
        x_box = _quantile_box(x_spec.extract_batch(assemble_x(pilot_s, pilot_h)))

        def s_log_sdet(s: np.ndarray) -> np.ndarray:
            sign, logabs = np.linalg.slogdet(embed_raw(s, beta))
            return logabs / beta

        def fact_fn(rng, count):
            s_coords = _uniform_in_box(rng, s_box, count)
            s11, _ = _psd_unpack(s_coords, kind, m, m)
            mineig = _min_eig_block(s11, beta)
            valid = mineig >= eps
            h1 = sample_stiefel_batch(n, m, kind, rng, count)
            data = np.zeros((count, n, m, beta))
            logw = np.full(count, -np.inf)
            if np.any(valid):
                s_full = complete_psd_batch(s_coords[valid], kind, m, m, s_pivot)
                x = assemble_x(s_full, h1[valid])
                in_x = _coords_in_box(x_spec.extract_batch(x), x_box)
                data[valid] = x
                lw = -m * math.log(2.0) + exp_s * s_log_sdet(s_full)
                logw[valid] = np.where(in_x, lw, -np.inf)
            return data, logw

        fact_const = _box_volume_log(s_box) + stiefel_volume_log(m, n, beta)

        def chart_fn(rng, count):
            coords = _uniform_in_box(rng, x_box, count)
            data = complete_rect_batch(coords, kind, n, m, m, row_pivot, col_pivot)
            hlog = hausdorff_density_log_batch(
                "rect", coords, kind, (n, m, m), (row_pivot, col_pivot), task.step
            )
            s = mul_raw(ct_raw(data), data, beta)
            s = (s + ct_raw(s)) / 2.0
            ok = _coords_in_box(s_spec.extract_batch(s), s_box)
            ok &= _spectra_batch(s, kind, m)[:, -1] >= eps
            return data, np.where(ok, hlog, -np.inf)

        chart_const = _box_volume_log(x_box)

        def reference_fn(rng, count):
            return fact_fn(rng, count)

        return chart_fn, chart_const, fact_fn, fact_const, reference_fn

    raise RegistryError(f"{task.theorem_id} has no MC_RATIO implementation")


def _qr_coords_batch(x: np.ndarray, kind: AlgebraKind, q: int):
    """Batched positive-diagonal QR via Gram-Schmidt; returns (H, T, ok)."""
    from .charts import _mgs_batch

    h, ok = _mgs_batch(x[:, :, :q, :], kind.beta)
    t = mul_raw(ct_raw(h), x, kind.beta)
    return h, t, ok


def run_mc_ratio_task(task: TaskSpec, jobs: int = 1, n_test_functions: int = 5) -> Report:
    """Check that surface-to-factorized integral ratios are test-function independent."""
    start = time.perf_counter()
    if task.engine != "MC_RATIO":
        raise RegistryError(f"run_mc_ratio_task needs engine MC_RATIO, got {task.engine}")
    if n_test_functions < 5:
        raise ConfigurationError("ratio tasks need at least 5 test functions")
    chart_fn, chart_const, fact_fn, fact_const, reference_fn = _ratio_problem(task)
    code = TASK_CODES[task.theorem_id]
    reference = _reference_samples(reference_fn, task.seed, code)
    test_fns = make_test_functions(task.seed, n_test_functions, reference)
    h_mean, h_se = _mc_estimate(
        chart_fn, chart_const, test_fns, task.trials, task.seed, code, _SIDE_LHS, jobs
    )
    f_mean, f_se = _mc_estimate(
        fact_fn, fact_const, test_fns, task.trials, task.seed, code, _SIDE_RHS, jobs
    )
    records = []
    ratios = []
    worst_rel = 0.0
    for k in range(len(test_fns)):
        if f_mean[k] <= 0 or h_mean[k] <= 0:
            raise InconclusiveStatisticsError(
                f"test function {k} has nonpositive mass; widen the boxes"
            )
        ratio = h_mean[k] / f_mean[k]
        rel = max(h_se[k] / h_mean[k], f_se[k] / f_mean[k])
        worst_rel = max(worst_rel, rel)
        ratios.append(ratio)
        records.append(
            {
                "test_function": k,
                "hausdorff": float(h_mean[k]),
                "hausdorff_stderr": float(h_se[k]),
                "factorized": float(f_mean[k]),
                "factorized_stderr": float(f_se[k]),
                "ratio": float(ratio),
            }
        )
    if worst_rel > INCONCLUSIVE_REL_STDERR:
        raise InconclusiveStatisticsError(
            f"relative stderr {worst_rel:.1%} exceeds "
            f"{INCONCLUSIVE_REL_STDERR:.0%}; raise trials"
        )
    ratios_arr = np.asarray(ratios)
    constant = float(ratios_arr.mean())
    cv = float(ratios_arr.std(ddof=1) / constant) if len(ratios) > 1 else 0.0
    passed = cv <= task.cv_tol
    records.append({"summary": True, "cv": cv, "constant": constant, "pass": bool(passed)})
    return Report(
        task=task,
        engine="MC_RATIO",
        records=tuple(records),
        passed=passed,
        constant_estimate=constant,
        seed=task.seed,
        runtime_ms=int((time.perf_counter() - start) * 1000),
        version=__version__,
    )


# ---------------------------------------------------------------------------
# discrepancy demo


def run_discrepancy_demo(task: TaskSpec) -> Report:
    """Show that the SVD-congruence factor is not an entry-chart Jacobian.

    Evaluates the chart Jacobian of Y -> B*YB at a pinned rank-n point and
    reports it against both congruence factors: the QR-based one matches, the
    SVD-based one does not (unless m = n, where both collapse to the
    nonsingular-congruence factor).
    """
    start = time.perf_counter()
    if task.theorem_id != "UHLIG_SVD" or task.engine != "DEMO":
        raise RegistryError(
            "the discrepancy demo runs the UHLIG_SVD theorem with engine DEMO"
        )
    kind, beta = task.kind, task.beta
    m, n = task.m, task.n
    if task.b_source == "demo":
        bd = np.zeros((m, m, beta))
        bd[np.arange(m), np.arange(m), 0] = 1.0
        bd[np.arange(m - 1), np.arange(1, m), 0] = 1.0
        b = Mat(kind, bd)
    else:
        b = _draw_b(task)
    # pinned rank-n base point: diag(n, ..., 1, 0, ..., 0)
    y_data = np.zeros((m, m, beta))
    lam = np.arange(n, 0, -1, dtype=float)
    y_data[np.arange(n), np.arange(n), 0] = lam
    y = Mat(kind, y_data)
    congruence = partial(_congruence_batch, ct_raw(b.data), b=b.data, beta=beta)
    x = Mat(kind, congruence(y_data[None])[0])
    in_point = extract_psd(y, n)
    out_pivot = choose_pivot(x, n, chart="psd")
    out_spec = ChartSpec("psd", kind, (m, n), out_pivot)
    chart_log = chart_jacobian_logdet(congruence, in_point, out_spec, task.step)
    det_b = sdet(b)
    delta = eig_hermitian(x, n).lam
    fi = FactorInput(
        beta=beta, m=m, n=n, lam=tuple(lam), delta=tuple(delta), det_b=det_b
    )
    svd_log = transform_factor_log("UHLIG_SVD", fi)
    det_t = _pivoted_chol_det(x, n, out_pivot)
    det_l = _pivoted_chol_det(y, n, in_point.pivot)
    qr_log = transform_factor_log(
        "UHLIG_QR",
        FactorInput(beta=beta, m=m, n=n, det_t1t1=det_t, det_l1l1=det_l, det_b=det_b),
    )
    g1 = eig_hermitian(x, n).w1
    h1 = eig_hermitian(y, n).w1
    gbh = conj_transpose(g1) @ conj_transpose(b) @ h1
    alt_log = uhlig_svd_alternative_log(
        FactorInput(beta=beta, m=m, n=n, det_b=det_b, det_gbh=sdet(gbh))
    )
    expected_mismatch = m != n
    tol = max(task.rtol * abs(qr_log), ABS_LOG_FLOOR)
    qr_matches = abs(chart_log - qr_log) <= tol
    svd_differs = abs(chart_log - svd_log) > tol
    passed = qr_matches and (svd_differs if expected_mismatch else not svd_differs)
    records = (
        {
            "chart_det": float(math.exp(chart_log)),
            "chart_logdet": float(chart_log),
            "uhlig_qr_factor": float(math.exp(qr_log)),
            "uhlig_svd_factor": float(math.exp(svd_log)),
            "uhlig_svd_alt_factor": float(math.exp(alt_log)),
            "expected_mismatch": bool(expected_mismatch),
            "qr_matches_chart": bool(qr_matches),
            "svd_differs_from_chart": bool(svd_differs),
            "pass": bool(passed),
        },
    )
    return Report(
        task=task,
        engine="DEMO",
        records=records,
        passed=passed,
        constant_estimate=None,
        seed=task.seed,
        runtime_ms=int((time.perf_counter() - start) * 1000),
        version=__version__,
    )


# ---------------------------------------------------------------------------
# dispatch


def run_task(task: TaskSpec, jobs: int = 1) -> Report:
    if task.engine == "CHART":
        return run_chart_task(task, jobs=jobs)
    if task.engine == "MC_EQUALITY":
        return run_mc_equality_task(task, jobs=jobs)
    if task.engine == "MC_RATIO":
        return run_mc_ratio_task(task, jobs=jobs)
    if task.engine == "DEMO":
        return run_discrepancy_demo(task)
    raise RegistryError(f"unknown engine {task.engine!r}")
