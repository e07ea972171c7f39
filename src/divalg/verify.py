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

The UHLIG MC_EQUALITY samplers never diagonalize an m x m image: a rank-n
image A A* has the nonzero spectrum of the n x n matrix A* A, so the right
side takes it from A = B* W Lambda^(1/2) and the left side from
Lambda_x^(1/2) T* T Lambda_x^(1/2), the Gram its frame weight already forms.

Every theorem is one row of THEOREMS: its fixed RNG code, CLI name, size
rule, factor family and one problem builder per engine that checks it.

Determinism contract: every random block derives its generator from
(seed, theorem code, side code, block index) and block partial sums are
reduced in block order, so reports are byte-identical for any worker count.
"""
from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import __version__
from .algebra import AlgebraKind
from .charts import (
    ChartSpec,
    _check_box,
    assemble_sd_batch,
    assemble_svd_batch,
    chart_at,
    choose_pivot,
    factorized_draw,
    factorized_mass_log,
    hausdorff_density_log_batch,
    sample_stiefel_batch,
    sd_density_log_batch,
    svd_density_log_batch,
)
from .decomp import (
    cholesky_batch,
    cholesky_rank_q,
    eig_hermitian,
    gram_schmidt_batch,
    pinv_batch,
)
from .errors import (
    ConfigurationError,
    DivalgError,
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
    eigvalsh_raw,
    inv_sqrt_hermitian_raw,
    logdet_hermitian_raw,
    load_matrix,
    mat_inv,
    mul_raw,
    sdet,
    sdet_log,
    svdvals_raw,
)
from .measures import (
    FactorInput,
    decomposition_density_log,
    stiefel_volume_log,
    transform_factor_log,
    uhlig_svd_alternative_log,
)

# engines in the order a theorem's default engine is chosen
ENGINES = ("CHART", "MC_EQUALITY", "MC_RATIO", "DEMO")


@dataclass(frozen=True)
class Theorem:
    """One row of the theorem table.

    code is the task term of every SeedSequence the theorem's tasks draw
    from, so it never changes.  sizes names the TaskSpec size fields the
    theorem reads: ("m", "q"), ("n", "m", "q"), ("m", "n") for a congruence
    of rank n <= m, or ("m",).  factor is the measures family of its factor
    (density, transform or coupling).  builders maps each engine that checks
    the theorem to its problem builder, task -> problem.
    """

    code: int
    cli_name: str
    sizes: tuple[str, ...]
    factor: str
    builders: dict[str, Callable]

    @property
    def engines(self) -> tuple[str, ...]:
        return tuple(e for e in ENGINES if e in self.builders)

    @property
    def default_engine(self) -> str:
        return self.engines[0]


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
# finite-difference steps outside this range give FD noise or a finite
# difference across the chart's domain, not a theorem result; only the
# CHART engine reads TaskSpec.step (MC_RATIO's Hausdorff density is exact)
STEP_RANGE = (1e-12, 0.5)


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
        if self.theorem_id not in THEOREMS:
            raise RegistryError(
                f"unknown theorem {self.theorem_id!r}; expected one of {tuple(THEOREMS)}"
            )
        theorem = self.theorem
        engine = self.engine or theorem.default_engine
        if engine not in theorem.builders:
            extra = ""
            if "DEMO" in theorem.builders and engine == "CHART":
                extra = (
                    " (this pairing is the documented discrepancy; "
                    "run it through the demo entry point)"
                )
            raise RegistryError(
                f"engine {engine} is not admissible for {self.theorem_id}; "
                f"admissible: {sorted(theorem.engines)}{extra}"
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
        n = self.n if "n" in theorem.sizes else 0
        q = self.q if "q" in theorem.sizes else 0
        if "n" in theorem.sizes and n < 1:
            raise ConfigurationError(f"{self.theorem_id} requires n >= 1, got {n}")
        if theorem.sizes == _CONGRUENCE and n > self.m:
            raise ConfigurationError(
                f"{self.theorem_id} requires rank n <= m, got n={n} m={self.m}"
            )
        if "q" in theorem.sizes:
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
        lo, hi = _check_box(self.eigen_box)
        object.__setattr__(self, "eigen_box", (lo, hi))
        gap = 1e-3 * (hi - lo) if self.gap is None else float(self.gap)
        if not (math.isfinite(gap) and gap >= 0):
            raise ConfigurationError(f"gap must be finite and nonnegative, got {gap}")
        object.__setattr__(self, "gap", gap)
        for name in ("rtol", "ztol", "cv_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and nonnegative, got {value}")
        if self.engine in ("MC_EQUALITY", "MC_RATIO") and self.trials < MIN_TRIALS:
            raise ConfigurationError(
                f"Monte Carlo engines need trials >= {MIN_TRIALS}, got {self.trials}"
            )
        if self.points < 1:
            raise ConfigurationError(f"points must be positive, got {self.points}")
        if not STEP_RANGE[0] <= self.step <= STEP_RANGE[1]:
            raise ConfigurationError(
                f"step must be finite and positive, within [{STEP_RANGE[0]:g}, "
                f"{STEP_RANGE[1]:g}], got {self.step}"
            )

    @property
    def kind(self) -> AlgebraKind:
        return AlgebraKind.from_beta(self.beta)

    @property
    def theorem(self) -> Theorem:
        return THEOREMS[self.theorem_id]

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


def _report(task: TaskSpec, records, passed: bool, constant: float | None, start: float) -> Report:
    """The task's Report, timed from the perf_counter reading `start`."""
    return Report(
        task=task,
        engine=task.engine,
        records=tuple(records),
        passed=passed,
        constant_estimate=constant,
        seed=task.seed,
        runtime_ms=int((time.perf_counter() - start) * 1000),
        version=__version__,
    )


def _require_conclusive(worst_rel: float) -> None:
    """InconclusiveStatisticsError when the largest relative stderr of a
    Monte-Carlo mean is too large for its test to mean anything."""
    if worst_rel > INCONCLUSIVE_REL_STDERR:
        raise InconclusiveStatisticsError(
            f"relative stderr {worst_rel:.1%} exceeds "
            f"{INCONCLUSIVE_REL_STDERR:.0%}; raise trials"
        )


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
# the finite-difference Jacobian


def chart_jacobian_logdet(
    map_batch, in_spec: ChartSpec, coords0: np.ndarray, out_spec: ChartSpec,
    step: float = 1e-5,
) -> float:
    """log |det| of the coordinate Jacobian of extract(map(complete(coords0))).

    map_batch is the map on a batch of coefficient arrays, (B, n, m, beta) ->
    (B, n', m', beta), row by row (e.g. pinv_batch with beta bound).  Central
    differences at all 2k perturbations of the k coordinates in one pass:
    rows coords0 + h_i e_i, then coords0 - h_i e_i, through one completion,
    one map call and one extraction.
    """
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


# ---------------------------------------------------------------------------
# shared helpers


def _problem(task: TaskSpec):
    """The problem the task's engine checks, from the theorem's builder."""
    return task.theorem.builders[task.engine](task)


def _pilot(task: TaskSpec, index: int = 0) -> np.random.Generator:
    return _substream(task.seed, task.theorem.code, _SIDE_PILOT, index)


def _draw_b(task: TaskSpec) -> Mat:
    kind, m = task.kind, task.m
    source = task.b_source
    if source == "identity":
        return Mat.eye(kind, m)
    if source == "random":
        rng = _substream(task.seed, task.theorem.code, _SIDE_B, 0)
        for _ in range(1000):
            b = Mat(kind, rng.normal(size=(m, m, kind.beta)))
            scale = (float(np.linalg.norm(b.data)) / math.sqrt(m)) ** m
            if sdet(b) > 0.1 * scale:
                return b
        raise ConfigurationError("could not draw a well-conditioned B matrix")
    try:
        b = load_matrix(source)
    except (OSError, ValueError, KeyError, TypeError, DivalgError) as exc:
        raise ConfigurationError(f"cannot read B matrix {source}: {exc}") from None
    if (b.kind.beta, b.rows, b.cols) != (kind.beta, m, m):
        raise ConfigurationError(
            f"B matrix {source} is {b.rows}x{b.cols} with beta={b.kind.beta}; "
            f"the task needs {m}x{m} with beta={kind.beta}"
        )
    return b


def _in_box_gap(spec: np.ndarray, lo: float, hi: float, gap: float) -> np.ndarray:
    """Mask: spectra (B, q), descending, inside [lo, hi] with consecutive gaps >= gap."""
    ok = np.all((spec >= lo) & (spec <= hi), axis=1)
    if spec.shape[1] > 1:
        ok &= (spec[:, :-1] - spec[:, 1:]).min(axis=1) >= gap
    return ok


def _desc_inverse(spec: np.ndarray) -> np.ndarray:
    """1/spec of a descending positive spectrum, again descending."""
    return (1.0 / spec)[:, ::-1]


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
    order, so results do not depend on the worker count.  A mean or stderr
    that leaves the float range raises InconclusiveStatisticsError: a NaN
    stderr would pass every stderr gate.
    """
    n_fns = len(test_fns)
    sizes = [BLOCK_SIZE] * (trials // BLOCK_SIZE)
    if trials % BLOCK_SIZE:
        sizes.append(trials % BLOCK_SIZE)
    # every TestFunction at once: one pass over each block's data
    centers = np.stack([fn.center.ravel() for fn in test_fns])
    two_var = np.array([2.0 * fn.sigma**2 for fn in test_fns])

    def work(args):
        idx, size = args
        rng = _substream(seed, task_code, side_code, idx)
        data, logw = side_fn(rng, size)
        with np.errstate(over="ignore"):
            w = np.exp(logw + log_const)
        flat = data.reshape(data.shape[0], -1)
        sq = np.sum((flat[:, None] - centers[None]) ** 2, axis=2)
        vals = np.exp(-sq / two_var)
        out = np.empty((n_fns, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_fns):
                v = vals[:, k] * w
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
    with np.errstate(over="ignore", invalid="ignore"):
        var = np.maximum(total[:, 1] - n * means**2, 0.0) / max(n - 1.0, 1.0)
    stderrs = np.sqrt(var / n)
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stderrs))):
        raise InconclusiveStatisticsError(
            "Monte Carlo mean or stderr is not finite (the weights leave the "
            "float range); narrow or rescale the eigenvalue box"
        )
    return means, stderrs


def _reference_samples(side_fn, seed: int, task_code: int, count: int = 512) -> np.ndarray:
    rng = _substream(seed, task_code, _SIDE_REFERENCE, 0)
    return _valid_draws(*side_fn(rng, count), "reference")


def _valid_draws(data: np.ndarray, logw: np.ndarray, what: str) -> np.ndarray:
    """The draws with a finite log-weight; ConfigurationError when none is left."""
    good = np.isfinite(logw)
    if not np.any(good):
        raise ConfigurationError(f"no valid {what} samples; widen the box or gap")
    return data[good]


# ---------------------------------------------------------------------------
# CHART engine
#
# A CHART builder returns point_sampler(rng) -> ((in_spec, coords0),
# map_batch, out_spec, analytic_log, gap_at_point); map_batch is the map on a
# batch of coefficient arrays (see chart_jacobian_logdet).
#
# For the pseudo-inverse maps the output chart must be the input chart
# transported through the map: permutations commute with pinv, so tying the
# pivots makes the pair of charts a pure relabeling of the leading-block
# charts.  Untied pivots would insert a nonconstant chart-transition Jacobian
# that is not part of the transform factor.


def _mp_herm_chart(task: TaskSpec):
    kind, beta, m, q = task.kind, task.beta, task.m, task.q
    inverse = partial(pinv_batch, beta=beta)

    def sample(rng):
        lam, (w1,) = factorized_draw(rng, task.eigen_box, q, (m,), kind, 1)
        spec, coords = chart_at(Mat(kind, assemble_sd_batch(w1, lam, beta)[0]), q, "psd")
        analytic = transform_factor_log(
            "MP_HERM", FactorInput(beta=beta, m=m, q=q, lam=tuple(lam[0]))
        )
        return (spec, coords), inverse, spec, analytic, _spectrum_gap(lam[0])
    return sample


def _mp_rect_chart(task: TaskSpec):
    kind, beta, m, n, q = task.kind, task.beta, task.m, task.n, task.q
    inverse = partial(pinv_batch, beta=beta)

    def sample(rng):
        d, (v1, w1) = factorized_draw(rng, task.eigen_box, q, (n, m), kind, 1)
        spec, coords = chart_at(Mat(kind, assemble_svd_batch(v1, d, w1, beta)[0]), q, "rect")
        out_spec = ChartSpec("rect", kind, (m, n, q), spec.pivots[::-1])
        analytic = transform_factor_log(
            "MP_RECT", FactorInput(beta=beta, n=n, m=m, q=q, d=tuple(d[0]))
        )
        return (spec, coords), inverse, out_spec, analytic, _spectrum_gap(d[0])
    return sample


def _chol_chart(task: TaskSpec):
    kind, beta, m, q = task.kind, task.beta, task.m, task.q
    tri_spec = ChartSpec("tri", kind, (q, m))
    out_spec = ChartSpec("psd", kind, (m, q), tuple(range(m)))

    def gram(t: np.ndarray) -> np.ndarray:
        return mul_raw(ct_raw(t), t, beta)

    def sample(rng):
        coords = np.zeros(tri_spec.coord_count())
        coords[:q] = rng.uniform(0.5, 2.0, size=q)
        coords[q:] = 0.7 * rng.standard_normal(coords.size - q)
        analytic = decomposition_density_log(
            "CHOL", FactorInput(beta=beta, m=m, q=q, t_diag=tuple(coords[:q]))
        )
        return (tri_spec, coords), gram, out_spec, analytic, math.inf
    return sample


def _congruence_chart(task: TaskSpec):
    """UHLIG_QR (a rank-n congruence) and CONGRUENCE_NS (rank m)."""
    kind, beta, m = task.kind, task.beta, task.m
    b = _draw_b(task)
    rank = task.n if task.theorem_id == "UHLIG_QR" else m
    congruence = partial(_congruence_batch, ct_raw(b.data), b=b.data, beta=beta)

    def sample(rng):
        lam, (w1,) = factorized_draw(rng, task.eigen_box, rank, (m,), kind, 1)
        y = Mat(kind, assemble_sd_batch(w1, lam, beta)[0])
        in_spec, coords = chart_at(y, rank, "psd")
        x = Mat(kind, congruence(y.data[None])[0])
        out_pivot = choose_pivot(x, rank, chart="psd")
        out_spec = ChartSpec("psd", kind, (m, rank), out_pivot)
        if task.theorem_id == "CONGRUENCE_NS":
            analytic = transform_factor_log(
                "CONGRUENCE_NS", FactorInput(beta=beta, m=m, det_b=sdet(b))
            )
        else:
            det_t = _pivoted_chol_det(x, rank, out_pivot)
            det_l = _pivoted_chol_det(y, rank, in_spec.pivots)
            analytic = transform_factor_log(
                "UHLIG_QR",
                FactorInput(
                    beta=beta, m=m, n=rank,
                    det_t1t1=det_t, det_l1l1=det_l, det_b=sdet(b),
                ),
            )
        return (in_spec, coords), congruence, out_spec, analytic, _spectrum_gap(lam[0])
    return sample


def _spectrum_gap(spec: np.ndarray) -> float:
    """Smallest gap among a descending positive spectrum, including the gap to 0."""
    extended = np.concatenate([spec, [0.0]])
    return float((extended[:-1] - extended[1:]).min())


def _gap_margin(gap_at: float, gap: float) -> float | None:
    """Smallest spectral gap at a CHART point over the task's gap tolerance;
    None where the point has no spectral gap (CHOL) or the tolerance is 0.
    Below about 10 the finite differences may be ill-conditioned."""
    if math.isinf(gap_at) or gap == 0.0:
        return None
    return float(gap_at / gap)


def _pivoted_chol_det(s: Mat, rank: int, pivot) -> float:
    """sdet(T1* T1) for the Cholesky factor of the pivoted matrix."""
    pv = np.asarray(pivot, dtype=int)
    sp = Mat(s.kind, s.data[np.ix_(pv, pv)])
    t = cholesky_rank_q(sp, rank)
    t1 = Mat(s.kind, t.data[:, :rank, :])
    return math.exp(2.0 * sdet_log(t1))


def run_chart_task(task: TaskSpec) -> Report:
    """Compare finite-difference chart Jacobians with the analytic factor."""
    start = time.perf_counter()
    if task.engine != "CHART":
        raise RegistryError(f"run_chart_task needs engine CHART, got {task.engine}")
    sampler = _problem(task)
    code = task.theorem.code
    records = []
    for i in range(task.points):
        rng = _substream(task.seed, code, _SIDE_POINTS, i)
        (in_spec, coords0), map_batch, out_spec, analytic, gap_at = sampler(rng)
        numeric = chart_jacobian_logdet(map_batch, in_spec, coords0, out_spec, task.step)
        tol = max(task.rtol * abs(analytic), ABS_LOG_FLOOR)
        err = abs(numeric - analytic)
        records.append({
            "point": i,
            "analytic_log": float(analytic),
            "numeric_log": float(numeric),
            "abs_err": float(err),
            "tol": float(tol),
            "gap_margin": _gap_margin(gap_at, task.gap),
            "pass": bool(err <= tol),
        })
    return _report(task, records, all(r["pass"] for r in records), None, start)


# ---------------------------------------------------------------------------
# MC_EQUALITY engine
#
# An MC_EQUALITY builder returns (lhs_fn, lhs_const, rhs_fn, rhs_const).
# Each side_fn(rng, count) -> (data, logw); logw already contains density,
# transform factor, and region indicators (log 0 = -inf for excluded draws).
# The constants carry box volumes and Stiefel masses.


def _w_equality(task: TaskSpec):
    kind, beta, m, n, q, gap = task.kind, task.beta, task.m, task.n, task.q, task.gap
    lo, hi = task.eigen_box
    root_box = (math.sqrt(lo), math.sqrt(hi))

    def lhs(rng, count):
        d, (v1, w1) = factorized_draw(rng, root_box, q, (n, m), kind, count)
        x = assemble_svd_batch(v1, d, w1, beta)
        logw = svd_density_log_batch(d, beta, n, m)
        lam = d * d
        ok = _in_box_gap(lam, lo, hi, gap)
        return x, np.where(ok, logw, -np.inf)

    def rhs(rng, count):
        lam, (w1, v1) = factorized_draw(rng, task.eigen_box, q, (m, n), kind, count)
        x = assemble_svd_batch(v1, np.sqrt(lam), w1, beta)
        logw = sd_density_log_batch(lam, beta, m)
        logw = logw - q * math.log(2.0) + (
            beta * (n - m + 1) / 2.0 - 1.0
        ) * np.log(lam).sum(axis=1)
        ok = _in_box_gap(lam, lo, hi, gap)
        return x, np.where(ok, logw, -np.inf)

    return (
        lhs, factorized_mass_log(root_box, q, (n, m), beta),
        rhs, factorized_mass_log(task.eigen_box, q, (m, n), beta),
    )


def _mp_herm_equality(task: TaskSpec):
    kind, beta, m, q, gap = task.kind, task.beta, task.m, task.q, task.gap
    lo, hi = task.eigen_box
    inverse_box = (1.0 / hi, 1.0 / lo)

    def lhs(rng, count):
        lam_v, (w1,) = factorized_draw(rng, inverse_box, q, (m,), kind, count)
        v = assemble_sd_batch(w1, lam_v, beta)
        logw = sd_density_log_batch(lam_v, beta, m)
        lam_s = _desc_inverse(lam_v)
        ok = _in_box_gap(lam_s, lo, hi, gap)
        return v, np.where(ok, logw, -np.inf)

    def rhs(rng, count):
        lam, (w1,) = factorized_draw(rng, task.eigen_box, q, (m,), kind, count)
        v = assemble_sd_batch(w1, 1.0 / lam, beta)
        logw = sd_density_log_batch(lam, beta, m)
        logw = logw + (beta * (-2 * m + q + 1) - 2) * np.log(lam).sum(axis=1)
        ok = _in_box_gap(lam, lo, hi, gap)
        return v, np.where(ok, logw, -np.inf)

    return (
        lhs, factorized_mass_log(inverse_box, q, (m,), beta),
        rhs, factorized_mass_log(task.eigen_box, q, (m,), beta),
    )


def _mp_rect_equality(task: TaskSpec):
    kind, beta, m, n, q, gap = task.kind, task.beta, task.m, task.n, task.q, task.gap
    lo, hi = task.eigen_box
    inverse_box = (1.0 / hi, 1.0 / lo)

    def lhs(rng, count):
        d_y, (v1, w1) = factorized_draw(rng, inverse_box, q, (m, n), kind, count)
        y = assemble_svd_batch(v1, d_y, w1, beta)
        logw = svd_density_log_batch(d_y, beta, m, n)
        d_x = _desc_inverse(d_y)
        ok = _in_box_gap(d_x, lo, hi, gap)
        return y, np.where(ok, logw, -np.inf)

    def rhs(rng, count):
        d, (v1, w1) = factorized_draw(rng, task.eigen_box, q, (n, m), kind, count)
        y = assemble_svd_batch(w1, 1.0 / d, v1, beta)
        logw = svd_density_log_batch(d, beta, n, m)
        logw = logw - 2 * beta * (m + n - q) * np.log(d).sum(axis=1)
        ok = _in_box_gap(d, lo, hi, gap)
        return y, np.where(ok, logw, -np.inf)

    return (
        lhs, factorized_mass_log(inverse_box, q, (m, n), beta),
        rhs, factorized_mass_log(task.eigen_box, q, (n, m), beta),
    )


def _uhlig_equality(task: TaskSpec):
    """UHLIG_SVD and UHLIG_MP: the image laws of a rank-n congruence."""
    kind, beta, m, n, gap = task.kind, task.beta, task.m, task.n, task.gap
    lo, hi = task.eigen_box
    b = _draw_b(task)
    det_b_log = sdet_log(b)
    e = beta * (m - n - 1) / 2.0 + 1.0
    mp = task.theorem_id == "UHLIG_MP"
    lam_exp = -(beta * (3 * m - n - 1) / 2.0 + 1.0) if mp else -e
    bct = ct_raw(b.data)
    b_inv_ct = ct_raw(mat_inv(b).data)

    def image_batch(rng, count):
        """Draw from the right-hand measure; returns (x, delta, lam, gap_ok).

        x = B* W Lambda W* B is A A* for A = B* W Lambda^(1/2), so its top n
        eigenvalues are the spectrum of the n x n matrix A* A."""
        lam, (w1,) = factorized_draw(rng, task.eigen_box, n, (m,), kind, count)
        spectrum = 1.0 / lam if mp else lam
        a = mul_raw(bct, w1 * np.sqrt(spectrum)[:, None, :, None], beta)
        a_ct = ct_raw(a)
        x = mul_raw(a, a_ct, beta)
        x = (x + ct_raw(x)) / 2.0
        delta = eigvalsh_raw(mul_raw(a_ct, a, beta), beta)[:, ::-1]
        return x, delta, lam, _in_box_gap(lam, lo, hi, gap)

    # Both sides are additionally restricted to per-position spectral
    # boxes estimated from pilot image spectra.  Any common restriction
    # preserves the identity; the boxes keep the left sampler close to
    # the image so its acceptance rate survives ill-conditioned B.
    _, pilot_delta, _, pilot_ok = image_batch(_pilot(task), 4096)
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

    rhs_const = factorized_mass_log(task.eigen_box, n, (m,), beta)

    # The left sampler importance-samples the eigenframe from the law of
    # an orthonormal basis of range(B^* G) with G Gaussian -- exactly the
    # subspace distribution of image points -- and divides by its density
    # relative to the uniform frame measure,
    #   sdet(Sigma)^{-beta n/2} sdet(H^* Sigma^{-1} H)^{-beta m/2},
    # with Sigma = B^* B.  With B = I this reduces to uniform frames.  The
    # frame is Z (Z* Z)^(-1/2) for Z = B* G.  With T = B^{-*} H, H^*
    # Sigma^{-1} H = T* T, and the preimage z = T Lambda_x T* has the
    # spectrum of the n x n matrix Lambda_x^(1/2) T* T Lambda_x^(1/2).

    def lhs(rng, count):
        u = rng.uniform(size=(count, n))
        lam_x = box_lo + u * (box_hi - box_lo)
        sorted_ok = np.all(lam_x[:, :-1] > lam_x[:, 1:], axis=1)
        g = rng.standard_normal(size=(count, m, n, kind.beta))
        z = mul_raw(bct, g, beta)
        h = mul_raw(z, inv_sqrt_hermitian_raw(mul_raw(ct_raw(z), z, beta), beta), beta)
        x = assemble_sd_batch(h, lam_x, beta)
        t = mul_raw(b_inv_ct, h, beta)
        tt = mul_raw(ct_raw(t), t, beta)
        root = np.sqrt(lam_x)
        z_spec = eigvalsh_raw(
            tt * (root[:, :, None] * root[:, None, :])[..., None], beta
        )[:, ::-1]
        lam_y = _desc_inverse(z_spec) if mp else z_spec
        ok = _in_box_gap(lam_y, lo, hi, gap) & sorted_ok
        with np.errstate(invalid="ignore"):
            logw = sd_density_log_batch(lam_x, beta, m)
        logw = logw + beta * n * det_b_log + 0.5 * m * beta * logdet_hermitian_raw(tt, beta)
        return x, np.where(ok, logw, -np.inf)

    lhs_const = float(np.log(box_hi - box_lo).sum()) + stiefel_volume_log(
        n, m, beta
    )
    return lhs, lhs_const, rhs, rhs_const


def run_mc_equality_task(task: TaskSpec, jobs: int = 1, n_test_functions: int = 3) -> Report:
    """Estimate both sides of the factorized-measure identity and z-test them."""
    start = time.perf_counter()
    if task.engine != "MC_EQUALITY":
        raise RegistryError(
            f"run_mc_equality_task needs engine MC_EQUALITY, got {task.engine}"
        )
    if n_test_functions < 2:
        raise ConfigurationError("equality tasks need at least 2 test functions")
    lhs_fn, lhs_const, rhs_fn, rhs_const = _problem(task)
    code = task.theorem.code
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
    _require_conclusive(worst_rel)
    return _report(task, records, all(r["pass"] for r in records), None, start)


# ---------------------------------------------------------------------------
# MC_RATIO engine
#
# An MC_RATIO builder returns (chart_fn, chart_const, fact_fn, fact_const,
# reference_fn): the surface side samples chart coordinates uniformly in a
# box and weighs them by the chart's Hausdorff density, the factorized side
# samples the factorization.


def _phase_fiber_log(beta: int, q: int) -> float:
    """Per-column unit-scalar gauge volume of the spectral factorizations."""
    return q * stiefel_volume_log(1, 1, beta)


def _quantile_box(coords: np.ndarray, lo_q: float = 0.02, hi_q: float = 0.98) -> np.ndarray:
    box = np.quantile(coords, [lo_q, hi_q], axis=0).T  # (k, 2)
    width = box[:, 1] - box[:, 0]
    scale = float(np.abs(box).max())
    floor = 1e-6 * (scale if scale > 0.0 else 1.0)
    box[:, 1] = np.where(width <= floor, box[:, 0] + floor, box[:, 1])
    return box


def _coords_in_box(coords: np.ndarray, box: np.ndarray) -> np.ndarray:
    return np.all((coords >= box[:, 0]) & (coords <= box[:, 1]), axis=1)


def _box_volume_log(box: np.ndarray) -> float:
    return float(np.log(box[:, 1] - box[:, 0]).sum())


def _uniform_in_box(rng: np.random.Generator, box: np.ndarray, count: int) -> np.ndarray:
    return rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))


def _sd_ratio(task: TaskSpec):
    kind, beta, m, q, gap = task.kind, task.beta, task.m, task.q, task.gap
    lo, hi = task.eigen_box
    spec = ChartSpec("psd", kind, (m, q), tuple(range(m)))

    def fact_raw(rng, count):
        lam, (w1,) = factorized_draw(rng, task.eigen_box, q, (m,), kind, count)
        s = assemble_sd_batch(w1, lam, beta)
        logw = sd_density_log_batch(lam, beta, m)
        return s, np.where(_in_box_gap(lam, lo, hi, gap), logw, -np.inf)

    pilot_coords = spec.extract_batch(_valid_draws(*fact_raw(_pilot(task), 4096), "pilot"))
    box = _quantile_box(pilot_coords)
    s11_p = spec.leading_block(pilot_coords)
    eps = 0.9 * float(np.quantile(eigvalsh_raw(s11_p, beta)[:, 0], 0.05))

    def common_mask(coords: np.ndarray) -> np.ndarray:
        ok = _coords_in_box(coords, box)
        ok &= eigvalsh_raw(spec.leading_block(coords), beta)[:, 0] >= eps
        return ok

    def chart_fn(rng, count):
        coords = _uniform_in_box(rng, box, count)
        valid = eigvalsh_raw(spec.leading_block(coords), beta)[:, 0] >= eps
        data = np.zeros((count, m, m, beta))
        data[:, np.arange(m), np.arange(m), 0] = 1.0
        logw = np.full(count, -np.inf)
        if np.any(valid):
            sub = coords[valid]
            data[valid] = spec.complete_batch(sub)
            hlog = hausdorff_density_log_batch(spec, sub)
            top = eigvalsh_raw(data[valid], beta)[:, ::-1][:, :q]
            spec_ok = _in_box_gap(top, lo, hi, gap)
            logw[valid] = np.where(spec_ok, hlog, -np.inf)
        return data, logw

    def fact_fn(rng, count):
        s, logw = fact_raw(rng, count)
        coords = spec.extract_batch(s)
        return s, np.where(common_mask(coords), logw, -np.inf)

    fact_const = factorized_mass_log(task.eigen_box, q, (m,), beta) - _phase_fiber_log(beta, q)
    return chart_fn, _box_volume_log(box), fact_fn, fact_const, fact_raw


def _svd_ratio(task: TaskSpec):
    kind, beta, m, n, q, gap = task.kind, task.beta, task.m, task.n, task.q, task.gap
    lo, hi = task.eigen_box
    spec = ChartSpec("rect", kind, (n, m, q), (tuple(range(n)), tuple(range(m))))

    def fact_raw(rng, count):
        d, (v1, w1) = factorized_draw(rng, task.eigen_box, q, (n, m), kind, count)
        x = assemble_svd_batch(v1, d, w1, beta)
        logw = svd_density_log_batch(d, beta, n, m)
        return x, np.where(_in_box_gap(d, lo, hi, gap), logw, -np.inf)

    pilot_coords = spec.extract_batch(_valid_draws(*fact_raw(_pilot(task), 4096), "pilot"))
    box = _quantile_box(pilot_coords)
    if q < min(n, m):
        x11_p = spec.leading_block(pilot_coords)
        eps = 0.9 * float(np.quantile(svdvals_raw(x11_p, beta)[:, -1], 0.05))
    else:
        eps = 0.0

    def block_ok(coords: np.ndarray) -> np.ndarray:
        if q == min(n, m):
            return np.ones(coords.shape[0], dtype=bool)
        return svdvals_raw(spec.leading_block(coords), beta)[:, -1] >= eps

    def chart_fn(rng, count):
        coords = _uniform_in_box(rng, box, count)
        valid = block_ok(coords)
        data = np.zeros((count, n, m, beta))
        logw = np.full(count, -np.inf)
        if np.any(valid):
            sub = coords[valid]
            data[valid] = spec.complete_batch(sub)
            hlog = hausdorff_density_log_batch(spec, sub)
            spec_ok = _in_box_gap(svdvals_raw(data[valid], beta)[:, :q], lo, hi, gap)
            logw[valid] = np.where(spec_ok, hlog, -np.inf)
        return data, logw

    def fact_fn(rng, count):
        x, logw = fact_raw(rng, count)
        coords = spec.extract_batch(x)
        ok = _coords_in_box(coords, box) & block_ok(coords)
        return x, np.where(ok, logw, -np.inf)

    fact_const = factorized_mass_log(task.eigen_box, q, (n, m), beta) - _phase_fiber_log(beta, q)
    return chart_fn, _box_volume_log(box), fact_fn, fact_const, fact_raw


def _qr_ratio(task: TaskSpec):
    # q = m (enforced): the chart is the whole n x m space
    kind, beta, m, n = task.kind, task.beta, task.m, task.n
    lo, hi = task.eigen_box
    spec = ChartSpec("rect", kind, (n, m, m), (tuple(range(n)), tuple(range(m))))
    tri_spec = ChartSpec("tri", kind, (m, m))
    tri_box = np.empty((tri_spec.coord_count(), 2))
    tri_box[:m, 0] = lo
    tri_box[:m, 1] = hi
    tri_box[m:, 0] = -hi
    tri_box[m:, 1] = hi
    qr_exponents = np.array([beta * (n - i + 1) - 1 for i in range(1, m + 1)], dtype=float)

    def fact_raw(rng, count):
        tcoords = _uniform_in_box(rng, tri_box, count)
        t = tri_spec.complete_batch(tcoords)
        h1 = sample_stiefel_batch(n, m, kind, rng, count)
        x = mul_raw(h1, t, beta)
        logw = (np.log(tcoords[:, :m]) * qr_exponents[None, :]).sum(axis=1)
        return x, logw, tcoords

    pilot_x, _, _ = fact_raw(_pilot(task), 4096)
    box = _quantile_box(spec.extract_batch(pilot_x))

    def tri_coords_of(data: np.ndarray) -> np.ndarray:
        """T of the positive-diagonal QR X = H T, in tri chart coordinates."""
        h, norms = gram_schmidt_batch(data, beta)
        coords = tri_spec.extract_batch(mul_raw(ct_raw(h), data, beta))
        coords[~(norms > 1e-12).all(axis=1)] = np.inf
        return coords

    def chart_fn(rng, count):
        coords = _uniform_in_box(rng, box, count)
        data = spec.complete_batch(coords)
        hlog = hausdorff_density_log_batch(spec, coords)
        ok = _coords_in_box(tri_coords_of(data), tri_box)
        return data, np.where(ok, hlog, -np.inf)

    def fact_fn(rng, count):
        x, logw, tcoords = fact_raw(rng, count)
        ok = _coords_in_box(spec.extract_batch(x), box)
        ok &= _coords_in_box(tcoords, tri_box)
        return x, np.where(ok, logw, -np.inf)

    fact_const = _box_volume_log(tri_box) + stiefel_volume_log(m, n, beta)

    def reference_fn(rng, count):
        x, logw, _ = fact_raw(rng, count)
        return x, logw

    return chart_fn, _box_volume_log(box), fact_fn, fact_const, reference_fn


def _chol_x_ratio(task: TaskSpec):
    # q = m (enforced): S = X*X is m x m positive definite
    kind, beta, m, n = task.kind, task.beta, task.m, task.n
    x_spec = ChartSpec("rect", kind, (n, m, m), (tuple(range(n)), tuple(range(m))))
    s_spec = ChartSpec("psd", kind, (m, m), tuple(range(m)))
    exp_s = beta * (n - m + 1) / 2.0 - 1.0

    lam, (w1,) = factorized_draw(_pilot(task), task.eigen_box, m, (m,), kind, 4096)
    pilot_s = assemble_sd_batch(w1, lam, beta)
    s_box = _quantile_box(s_spec.extract_batch(pilot_s))
    eps = 0.9 * float(np.quantile(eigvalsh_raw(pilot_s, beta)[:, 0], 0.05))

    def assemble_x(s: np.ndarray, h1: np.ndarray) -> np.ndarray:
        return mul_raw(h1, cholesky_batch(s, beta), beta)

    pilot_h = sample_stiefel_batch(n, m, kind, _pilot(task, 1), 4096)
    x_box = _quantile_box(x_spec.extract_batch(assemble_x(pilot_s, pilot_h)))

    def fact_fn(rng, count):
        s_coords = _uniform_in_box(rng, s_box, count)
        mineig = eigvalsh_raw(s_spec.leading_block(s_coords), beta)[:, 0]
        valid = mineig >= eps
        h1 = sample_stiefel_batch(n, m, kind, rng, count)
        data = np.zeros((count, n, m, beta))
        logw = np.full(count, -np.inf)
        if np.any(valid):
            s_full = s_spec.complete_batch(s_coords[valid])
            x = assemble_x(s_full, h1[valid])
            in_x = _coords_in_box(x_spec.extract_batch(x), x_box)
            data[valid] = x
            lw = -m * math.log(2.0) + exp_s * logdet_hermitian_raw(s_full, beta)
            logw[valid] = np.where(in_x, lw, -np.inf)
        return data, logw

    fact_const = _box_volume_log(s_box) + stiefel_volume_log(m, n, beta)

    def chart_fn(rng, count):
        coords = _uniform_in_box(rng, x_box, count)
        data = x_spec.complete_batch(coords)
        hlog = hausdorff_density_log_batch(x_spec, coords)
        s = mul_raw(ct_raw(data), data, beta)
        s = (s + ct_raw(s)) / 2.0
        ok = _coords_in_box(s_spec.extract_batch(s), s_box)
        ok &= eigvalsh_raw(s, beta)[:, 0] >= eps
        return data, np.where(ok, hlog, -np.inf)

    return chart_fn, _box_volume_log(x_box), fact_fn, fact_const, fact_fn


def run_mc_ratio_task(task: TaskSpec, jobs: int = 1, n_test_functions: int = 5) -> Report:
    """Check that surface-to-factorized integral ratios are test-function independent."""
    start = time.perf_counter()
    if task.engine != "MC_RATIO":
        raise RegistryError(f"run_mc_ratio_task needs engine MC_RATIO, got {task.engine}")
    if n_test_functions < 5:
        raise ConfigurationError("ratio tasks need at least 5 test functions")
    chart_fn, chart_const, fact_fn, fact_const, reference_fn = _problem(task)
    code = task.theorem.code
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
    _require_conclusive(worst_rel)
    ratios_arr = np.asarray(ratios)
    constant = float(ratios_arr.mean())
    cv = float(ratios_arr.std(ddof=1) / constant) if len(ratios) > 1 else 0.0
    passed = cv <= task.cv_tol
    records.append({"summary": True, "cv": cv, "constant": constant, "pass": bool(passed)})
    return _report(task, records, passed, constant, start)


# ---------------------------------------------------------------------------
# discrepancy demo


def _demo_problem(task: TaskSpec) -> tuple[Mat, Mat, np.ndarray]:
    """(B, Y, lam): the congruence and the pinned rank-n base point
    Y = diag(lam, 0, ..., 0) with lam = (n, ..., 1)."""
    kind, beta, m, n = task.kind, task.beta, task.m, task.n
    if task.b_source == "demo":
        bd = np.zeros((m, m, beta))
        bd[np.arange(m), np.arange(m), 0] = 1.0
        bd[np.arange(m - 1), np.arange(1, m), 0] = 1.0
        b = Mat(kind, bd)
    else:
        b = _draw_b(task)
    y_data = np.zeros((m, m, beta))
    lam = np.arange(n, 0, -1, dtype=float)
    y_data[np.arange(n), np.arange(n), 0] = lam
    return b, Mat(kind, y_data), lam


def run_discrepancy_demo(task: TaskSpec) -> Report:
    """Show that the SVD-congruence factor is not an entry-chart Jacobian.

    Evaluates the chart Jacobian of Y -> B*YB at a pinned rank-n point and
    reports it against both congruence factors: the QR-based one matches, the
    SVD-based one does not (unless m = n, where both collapse to the
    nonsingular-congruence factor).
    """
    start = time.perf_counter()
    if task.engine != "DEMO":
        raise RegistryError(
            "the discrepancy demo runs the UHLIG_SVD theorem with engine DEMO"
        )
    kind, beta = task.kind, task.beta
    m, n = task.m, task.n
    b, y, lam = _problem(task)
    congruence = partial(_congruence_batch, ct_raw(b.data), b=b.data, beta=beta)
    x = Mat(kind, congruence(y.data[None])[0])
    in_spec, coords = chart_at(y, n, "psd")
    out_pivot = choose_pivot(x, n, chart="psd")
    out_spec = ChartSpec("psd", kind, (m, n), out_pivot)
    chart_log = chart_jacobian_logdet(congruence, in_spec, coords, out_spec, task.step)
    det_b = sdet(b)
    delta = eig_hermitian(x, n).lam
    fi = FactorInput(
        beta=beta, m=m, n=n, lam=tuple(lam), delta=tuple(delta), det_b=det_b
    )
    svd_log = transform_factor_log("UHLIG_SVD", fi)
    det_t = _pivoted_chol_det(x, n, out_pivot)
    det_l = _pivoted_chol_det(y, n, in_spec.pivots)
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
    record = {
        "chart_det": float(math.exp(chart_log)),
        "chart_logdet": float(chart_log),
        "uhlig_qr_factor": float(math.exp(qr_log)),
        "uhlig_svd_factor": float(math.exp(svd_log)),
        "uhlig_svd_alt_factor": float(math.exp(alt_log)),
        "expected_mismatch": bool(expected_mismatch),
        "qr_matches_chart": bool(qr_matches),
        "svd_differs_from_chart": bool(svd_differs),
        "pass": bool(passed),
    }
    return _report(task, [record], passed, None, start)


# ---------------------------------------------------------------------------
# the theorem table and dispatch

_MQ, _NMQ, _CONGRUENCE, _M = ("m", "q"), ("n", "m", "q"), ("m", "n"), ("m",)

# A theorem's code seeds every substream of its tasks: renumbering one would
# reseed all of its reports, so the codes stay as written.
THEOREMS: dict[str, Theorem] = {
    "SVD": Theorem(1, "svd", _NMQ, "density", {"MC_RATIO": _svd_ratio}),
    "SD": Theorem(2, "sd", _MQ, "density", {"MC_RATIO": _sd_ratio}),
    "W": Theorem(3, "w", _NMQ, "coupling", {"MC_EQUALITY": _w_equality}),
    "QR": Theorem(4, "qr", _NMQ, "density", {"MC_RATIO": _qr_ratio}),
    "CHOL": Theorem(5, "chol", _MQ, "density", {"CHART": _chol_chart}),
    "CHOL_X": Theorem(6, "chol-x", _NMQ, "coupling", {"MC_RATIO": _chol_x_ratio}),
    "MP_HERM": Theorem(7, "mp-herm", _MQ, "transform",
                       {"CHART": _mp_herm_chart, "MC_EQUALITY": _mp_herm_equality}),
    "MP_RECT": Theorem(8, "mp-rect", _NMQ, "transform",
                       {"CHART": _mp_rect_chart, "MC_EQUALITY": _mp_rect_equality}),
    "UHLIG_SVD": Theorem(9, "uhlig-svd", _CONGRUENCE, "transform",
                         {"MC_EQUALITY": _uhlig_equality, "DEMO": _demo_problem}),
    "UHLIG_QR": Theorem(10, "uhlig-qr", _CONGRUENCE, "transform",
                        {"CHART": _congruence_chart}),
    "UHLIG_MP": Theorem(11, "uhlig-mp", _CONGRUENCE, "transform",
                        {"MC_EQUALITY": _uhlig_equality}),
    "CONGRUENCE_NS": Theorem(12, "congruence-ns", _M, "transform",
                             {"CHART": _congruence_chart}),
}


def run_task(task: TaskSpec, jobs: int = 1) -> Report:
    """Run the task on its engine; jobs threads share the Monte-Carlo blocks
    (the CHART engine and the demo run serially)."""
    if task.engine == "CHART":
        return run_chart_task(task)
    if task.engine == "MC_EQUALITY":
        return run_mc_equality_task(task, jobs=jobs)
    if task.engine == "MC_RATIO":
        return run_mc_ratio_task(task, jobs=jobs)
    return run_discrepancy_demo(task)
