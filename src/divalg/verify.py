"""Verification engines for the matrix-factorization Jacobian formulas.

Three engines, each matched to the measure semantics a formula lives in:

* CHART: for transforms between rank-q manifolds whose stated factor is a
  plain Jacobian determinant in independent-entry coordinates (Moore-Penrose
  maps, Cholesky, the QR-based and nonsingular congruence identities).  The
  oracle is a central finite-difference Jacobian of extract(map(complete())).
  A task's points run in chunks (see the CHART engine section); each point
  draws from its own substream and each row's arithmetic is its point's
  alone, so the records do not depend on the chunking.

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

An engine is a function from a task to its records; run_task alone times a
task and builds its Report, which passes when every record that carries a
"pass" verdict passes (the MC_RATIO summary carries the task's constant).

Both Monte-Carlo engines run one driver, _mc_sides, on one builder
contract (lhs_fn, lhs_const, rhs_fn, rhs_const, reference_fn).  The driver
also takes the one statistics step: each test function's relative stderr
max(lhs_se / lhs, rhs_se / rhs), which both engines report as rel_stderr,
and the inconclusive rule (zero mass on a side, or a largest relative
stderr above INCONCLUSIVE_REL_STDERR).  A runner keeps only its own test
and records.  One helper, _factorized_side,
builds the factorized sides of W, MP_HERM, MP_RECT, SD and SVD from a box,
frame dimensions, a placement (charts.assemble), the names of their FACTORS
entries and the image whose spectrum must lie in the task's box; it returns
each side with the log-mass of its own draw.  Every MC_RATIO builder
restricts its surface side and its factorized side to one _Region, a box of
chart coordinates and a floor on the leading block laid around pilot draws
of the factorization; _ratio_problem runs that pilot -> region -> sides
sequence for SD, SVD and QR.

The two spectral factorizations, psd S = W diag(lam) W* and rect X = V
diag(d) W*, share one builder per map and engine, which reads the chart
space and frame dimensions from the size rule (_spectral): _mp_chart and
_mp_equality for MP_HERM and MP_RECT, _spectral_ratio for SD and SVD.

One builder, _uhlig_equality, owns the UHLIG image law: it draws the
images, lays the region of image spectra around its pilot draws and builds
both sides.  Its samplers never diagonalize an m x m image: a rank-n image
A A* has the nonzero spectrum of the n x n matrix A* A, so the right side
takes it from A = B* W Lambda^(1/2) and the left side from
Lambda_x^(1/2) T* T Lambda_x^(1/2), the Gram its frame weight already forms.

Every theorem is one row of THEOREMS: its fixed RNG code, CLI name, size
rule and one problem builder per engine that checks it.  Its factor is the
entry of measures.FACTORS under the same name, which every engine calls
batch-first on log-domain inputs: the Monte-Carlo samplers on whole
blocks, CHART on the stacked points of a chunk and the demo on its one
point.

One unit rule: every theorem is a statement about homogeneous maps, so the
unit of the eigenvalue box can change no verdict.  run_task alone picks the
unit: it runs the engine on the box and the gap divided by 2^e, e =
TaskSpec.unit_exp, which puts hi in [2, 4) and leaves [1, 2] as it is.
Dividing by a power of two is exact, so a box scaled by 2^k gives the
records of the unscaled box bit for bit; no kernel below scales again.  A
report echoes the task in the user's unit and carries e as unit_exp; the
records that carry a unit (CHART logs, tol and abs_err, Monte-Carlo means
and stderrs) are at the engine's unit.

Determinism contract: every random block derives its generator from
(seed, theorem code, side code, block index) and block partial sums are
reduced in block order, so reports are byte-identical for any worker count.
"""
from __future__ import annotations

import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from . import __version__
from .algebra import AlgebraKind
from .charts import (
    ChartSpec,
    _check_box,
    assemble,
    chart_at_batch,
    factorized_draw,
    factorized_mass_log,
    hausdorff_density_log_batch,
    sample_stiefel_batch,
)
from .decomp import (
    cholesky_batch,
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
    mul_raw,
    numerical_rank,
    plane_sum,
    sdet,
    sdet_log,
    svdvals_raw,
)
from .measures import (
    FACTORS,
    UHLIG_SVD_ALT,
    check_spectra,
    stiefel_volume_log,
)

# engines in the order a theorem's default engine is chosen
ENGINES = ("CHART", "MC_EQUALITY", "MC_RATIO", "DEMO")


@dataclass(frozen=True)
class Theorem:
    """One row of the theorem table.

    code is the task term of every SeedSequence the theorem's tasks draw
    from, so it never changes.  sizes names the TaskSpec size fields the
    theorem reads: ("m", "q"), ("n", "m", "q"), ("m", "n") for a congruence
    of rank n <= m, or ("m",); check_sizes applies the rule.  builders maps
    each engine that checks the theorem to its problem builder, task ->
    problem.
    """

    code: int
    cli_name: str
    sizes: tuple[str, ...]
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
# the test-function centres are chosen among REFERENCE_COUNT reference draws
REFERENCE_COUNT = 512
EQUALITY_TEST_FUNCTIONS = 3
RATIO_TEST_FUNCTIONS = 5
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
        n, q = check_sizes(self.theorem_id, self.m, self.n, self.q)
        # q <= min(n, m) already holds, so q = m also gives m <= n
        if self.theorem_id in ("QR", "CHOL_X") and self.engine == "MC_RATIO" and q != self.m:
            raise ConfigurationError(
                f"{self.theorem_id} ratio comparison requires full column rank "
                f"q = m (at q < m the surface-to-factorized ratio is not a "
                f"constant); got q={q}, m={self.m}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        lo, hi = _check_box(self.eigen_box)
        object.__setattr__(self, "eigen_box", (lo, hi))
        gap = 1e-3 * (hi - lo) if self.gap is None else float(self.gap)
        if not (math.isfinite(gap) and gap >= 0):
            raise ConfigurationError(f"gap must be finite and nonnegative, got {gap}")
        object.__setattr__(self, "gap", gap)
        # run_task divides the box and the gap by 2^e; for x = m 2^E, m in
        # [0.5, 1), x / 2^e = m 2^(E - e) is normal from E - e = -1021 and
        # finite up to E - e = 1024
        e = self.unit_exp
        if math.frexp(lo)[1] - e < -1021 or math.frexp(gap)[1] - e > 1024:
            raise ConfigurationError(
                f"eigenvalue box ({lo}, {hi}) with gap {gap} does not fit one unit: divided "
                f"by 2^{e}, lo must stay normal (hi/lo below about 2^1022) and the gap finite"
            )
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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
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

    @property
    def unit_exp(self) -> int:
        """e of the unit rule: eigen_box / 2^e has its hi in [2, 4)."""
        return math.frexp(self.eigen_box[1])[1] - 2

    def to_dict(self) -> dict:
        """Every field, with eigen_box as a list."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["eigen_box"] = list(self.eigen_box)
        return out


@dataclass(frozen=True)
class Report:
    """One task's records, as its engine returned them, and its run time.
    task is the task as given; its records are at the unit 2^task.unit_exp."""

    task: TaskSpec
    records: tuple[dict, ...]
    runtime_ms: int

    @property
    def passed(self) -> bool:
        """Every record that carries a verdict ("pass") passes."""
        return all(r["pass"] for r in self.records if "pass" in r)

    @property
    def constant_estimate(self) -> float | None:
        """The MC_RATIO summary's constant; None for the other engines."""
        return next((r["constant"] for r in self.records if "constant" in r), None)

    def to_dict(self) -> dict:
        return {
            "task": self.task.to_dict(),
            "engine": self.task.engine,
            "records": list(self.records),
            "pass": self.passed,
            "constant_estimate": self.constant_estimate,
            "seed": self.task.seed,
            "unit_exp": self.task.unit_exp,
            "runtime_ms": self.runtime_ms,
            "version": __version__,
        }

    def to_json(self, indent: int | None = None) -> str:
        """Canonical JSON; ValueError when a field is NaN or infinite."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent, allow_nan=False)


def check_sizes(theorem_id: str, m: int, n: int, q: int) -> tuple[int, int]:
    """The theorem's size rule: m >= 1, 1 <= n <= m for a congruence of
    rank n, n >= 1 otherwise where it reads n, and 1 <= q <= min(n, m) where
    it reads q.  Returns (n, q), with a size the theorem does not read set to
    0; ConfigurationError when a rule fails."""
    sizes = THEOREMS[theorem_id].sizes
    if m < 1:
        raise ConfigurationError(f"m must be positive, got {m}")
    n = n if "n" in sizes else 0
    q = q if "q" in sizes else 0
    if "n" in sizes and n < 1:
        raise ConfigurationError(f"{theorem_id} requires n >= 1, got {n}")
    if sizes == _CONGRUENCE and n > m:
        raise ConfigurationError(f"{theorem_id} requires rank n <= m, got n={n} m={m}")
    if "q" in sizes:
        limit = min(n, m) if "n" in sizes else m
        if not 1 <= q <= limit:
            raise ConfigurationError(f"{theorem_id} requires 1 <= q <= {limit}, got {q}")
    return n, q


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
        # the product _mc_estimate's widths take, so its scores have these bits
        return np.exp(-sq / (2.0 * self.sigma * self.sigma))


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
    dev = (samples - mean[None]).reshape(samples.shape[0], -1)
    dispersion = float(np.sqrt(np.mean(np.sum(dev**2, axis=1))))
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


def _chart_jacobian_logdets(
    map_batch, in_spec: ChartSpec, coords: np.ndarray, out_spec: ChartSpec, step: float,
    in_pivots=None, out_pivots=None,
) -> np.ndarray:
    """(P,) log |det| of the coordinate Jacobians of
    extract(map_batch(complete(coords))) at P points (P, k), point i in its
    own pivoted charts (in_pivots[.][i], out_pivots[.][i]; no permutation
    where None, see ChartSpec.complete_batch).  map_batch is the map on a
    batch of coefficient arrays, (B, n, m, beta) -> (B, n', m', beta), row
    by row (e.g. pinv_batch with beta bound).

    Central differences at all 2k perturbations of each point in one pass:
    per point, rows coords + h_i e_i, then coords - h_i e_i, through one
    completion, one map call and one extraction for the whole chunk.  Each
    row's arithmetic is that of its point alone, so the chunk gives the
    same bits as P single points; one batched slogdet takes every point's.
    """
    p, k = coords.shape
    k_out = out_spec.coord_count()
    if k_out != k:
        raise InternalConsistencyError(
            f"chart dimensions differ: input {k}, output {k_out}"
        )
    h = np.maximum(step, step * np.abs(coords))
    shift = h[:, :, None] * np.eye(k)  # diag(h) of each point
    rows = np.concatenate([coords[:, None] + shift, coords[:, None] - shift], axis=1)
    owner = np.repeat(np.arange(p), 2 * k)
    full = in_spec.complete_batch(rows.reshape(p * 2 * k, k), _rows_of(in_pivots, owner))
    mapped = map_batch(_require_finite(full))
    f = out_spec.extract_batch(_require_finite(mapped), _rows_of(out_pivots, owner))
    f = f.reshape(p, 2 * k, k)
    jac = (f[:, :k] - f[:, k:]) / (2.0 * h[:, :, None])
    sign, out = np.linalg.slogdet(np.swapaxes(jac, 1, 2))
    if np.any(sign == 0.0):
        raise SingularBlockError("chart Jacobian is singular")
    return out


def _rows_of(pivots, owner: np.ndarray):
    """Per-point pivots (a pair of (P, size) arrays) taken for each row of
    owner, the point each row belongs to; None stays None."""
    return None if pivots is None else tuple(p[owner] for p in pivots)


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
    """The task's congruence B: the identity, a seeded draw, the pinned
    upper-bidiagonal matrix of ones ("demo"), or a matrix file."""
    kind, m = task.kind, task.m
    source = task.b_source
    if source == "identity":
        return Mat.eye(kind, m)
    if source == "demo":
        bd = np.zeros((m, m, kind.beta))
        bd[np.arange(m), np.arange(m), 0] = 1.0
        bd[np.arange(m - 1), np.arange(1, m), 0] = 1.0
        return Mat(kind, bd)
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
    rank = numerical_rank(b)
    if rank < m:
        raise ConfigurationError(f"B matrix {source} is singular (numerical rank {rank} < {m})")
    return b


def _in_box_gap(spec: np.ndarray, lo: float, hi: float, gap: float) -> np.ndarray:
    """Mask: spectra (B, q), descending, inside [lo, hi] with consecutive gaps >= gap."""
    ok = np.all((spec >= lo) & (spec <= hi), axis=1)
    if spec.shape[1] > 1:
        ok &= (spec[:, :-1] - spec[:, 1:]).min(axis=1) >= gap
    return ok


def _spectral(task: TaskSpec) -> tuple[str, tuple[int, ...], str]:
    """(space, dims, factor) of the spectral factorization a task's size
    rule gives: ("m", "q") is psd, dims (m,), SD; ("n", "m", "q") is rect,
    dims (n, m), SVD."""
    dims = tuple(getattr(task, size) for size in task.theorem.sizes[:-1])
    return ("psd", dims, "SD") if len(dims) == 1 else ("rect", dims, "SVD")


def _descending_spectrum(space: str, data: np.ndarray, beta: int) -> np.ndarray:
    """Descending eigenvalues (psd) or singular values (rect) of a batch of
    matrices (B, rows, cols, beta)."""
    if space == "psd":
        return eigvalsh_raw(data, beta)[:, ::-1]
    return svdvals_raw(data, beta)


def _desc_inverse(spec: np.ndarray) -> np.ndarray:
    """1/spec of a descending positive spectrum, again descending."""
    return (1.0 / spec)[:, ::-1]


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

    side_fn(rng, count) -> (data, logw) holds only the draws the side keeps,
    L <= count rows; every row is scored, and the sums are divided by
    trials, so a draw the side does not keep counts as weight 0.  Returns
    (means, stderrs), each of shape (len(test_fns),).  Blocks are
    fixed-size and reduced in index order, so results do not depend on the
    worker count.  A mean or stderr that leaves the float range raises
    InconclusiveStatisticsError: a NaN stderr would pass every stderr gate.
    So does a positive mean whose stderr squares to 0: Σ(w f)² has
    underflowed, and a z-test on it would divide by zero.
    """
    n_fns = len(test_fns)
    sizes = [BLOCK_SIZE] * (trials // BLOCK_SIZE)
    if trials % BLOCK_SIZE:
        sizes.append(trials % BLOCK_SIZE)
    # Each block's rows are scored as D contiguous planes of L rows, one
    # per coordinate, and plane_sum adds a function's squared deviations
    # in np.sum's order, so each score has TestFunction.__call__'s bits (a
    # square that overflows scores exp(-inf) = 0, the bump's value there).
    # Each worker thread transposes and scores its blocks in one scratch
    # buffer of its own: on a 2-core VM, a fresh block-sized array per block
    # cost about as much in page faults as the scoring itself.
    centers = np.stack([fn.center.ravel() for fn in test_fns])
    neg_two_var = np.array([-2.0 * fn.sigma * fn.sigma for fn in test_fns])
    d = centers.shape[1]
    scratch = threading.local()

    def work(args):
        idx, size = args
        rng = _substream(seed, task_code, side_code, idx)
        data, logw = side_fn(rng, size)
        with np.errstate(over="ignore"):
            w = np.exp(logw + log_const)
        if not hasattr(scratch, "buf"):
            scratch.buf = np.empty((2, d * BLOCK_SIZE))
        planes, diff = (part[:logw.size * d].reshape(d, -1) for part in scratch.buf)
        planes[...] = data.reshape(-1, d).T
        out = np.empty((n_fns, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_fns):
                np.subtract(planes, centers[k][:, None], out=diff)
                np.square(diff, out=diff)
                v = plane_sum(diff)
                v /= neg_two_var[k]
                np.exp(v, out=v)
                v *= w
                out[k, 0] = v.sum()
                out[k, 1] = np.dot(v, v)
        return out

    tasks = list(enumerate(sizes))
    workers = _pool_workers(jobs, len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
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
            "float range); narrow the eigenvalue box"
        )
    if np.any((means > 0.0) & (stderrs**2 == 0.0)):
        raise InconclusiveStatisticsError(
            "Monte Carlo stderr underflows (the weights are too small to square); "
            "narrow the eigenvalue box"
        )
    return means, stderrs


def _pool_workers(jobs: int, blocks: int) -> int:
    """Threads for a side's blocks: pool.map submits every block at once and
    the pool starts a thread per submit while none is idle, so jobs is
    capped by the CPU count and the block count."""
    return min(jobs, os.cpu_count() or 1, blocks)


def _reference_samples(side_fn, seed: int, task_code: int) -> np.ndarray:
    rng = _substream(seed, task_code, _SIDE_REFERENCE, 0)
    return _valid_draws(*side_fn(rng, REFERENCE_COUNT), "reference")


def _valid_draws(data: np.ndarray, logw: np.ndarray, what: str) -> np.ndarray:
    """The draws with a finite log-weight; ConfigurationError when none is left."""
    good = np.isfinite(logw)
    if not np.any(good):
        raise ConfigurationError(f"no valid {what} samples; widen the box or gap")
    return data[good]


def _mc_sides(task: TaskSpec, jobs: int, n_fns: int):
    """The pipeline and statistics step both Monte-Carlo engines run: build
    the task's problem (lhs_fn, lhs_const, rhs_fn, rhs_const, reference_fn),
    centre n_fns test functions on reference_fn's draws and estimate both
    sides.  Returns (lhs, lhs_se, rhs, rhs_se, rel), arrays over the test
    functions, where rel = max(lhs_se / lhs, rhs_se / rhs) is each one's
    relative stderr.  InconclusiveStatisticsError when a test function has
    no mass on a side, or when the largest rel exceeds
    INCONCLUSIVE_REL_STDERR: no test on such means can mean anything."""
    lhs_fn, lhs_const, rhs_fn, rhs_const, reference_fn = _problem(task)
    seed, code = task.seed, task.theorem.code
    test_fns = make_test_functions(seed, n_fns, _reference_samples(reference_fn, seed, code))
    common = (test_fns, task.trials, seed, code)
    lhs, lhs_se = _mc_estimate(lhs_fn, lhs_const, *common, _SIDE_LHS, jobs)
    rhs, rhs_se = _mc_estimate(rhs_fn, rhs_const, *common, _SIDE_RHS, jobs)
    empty = np.flatnonzero((lhs <= 0) | (rhs <= 0))
    if empty.size:
        raise InconclusiveStatisticsError(
            f"test function {empty[0]} has nonpositive mass; widen the boxes"
        )
    rel = np.maximum(lhs_se / lhs, rhs_se / rhs)
    if rel.max() > INCONCLUSIVE_REL_STDERR:
        raise InconclusiveStatisticsError(
            f"relative stderr {rel.max():.1%} exceeds "
            f"{INCONCLUSIVE_REL_STDERR:.0%}; raise trials"
        )
    return lhs, lhs_se, rhs, rhs_se, rel


# ---------------------------------------------------------------------------
# CHART engine
#
# A CHART builder returns (in_spec, out_spec, map_batch, sample): the input
# and output charts of the task's sizes, the map on a batch of coefficient
# arrays (see _chart_jacobian_logdets), and sample(rngs) -> (in_pivots,
# coords, out_pivots, analytic, gap_at), which draws one point from each
# generator, in order, and returns the points' own pivots (see
# ChartSpec.complete_batch; None for no permutation), their (P, k)
# coordinates, analytic factors and spectral gaps.  Only the generator
# calls run per point: charts.factorized_draw, given the points' generators
# and one row each, sorts the spectra and runs Gram-Schmidt on the stacked
# points, with the bits of one draw per point.
# Assembly, pivoting, extraction, the completion check, the checks of the
# factor's inputs and the factor itself (one FACTORS call) run on the
# stacked points too, and the finite differences of a chunk of points take
# one completion, one map call and one extraction.
#
# For the pseudo-inverse maps the output chart must be the input chart
# transported through the map: permutations commute with pinv, so tying the
# pivots makes the pair of charts a pure relabeling of the leading-block
# charts.  Untied pivots would insert a nonconstant chart-transition Jacobian
# that is not part of the transform factor.

# the completed input matrices of one chunk of CHART points, in bytes
CHART_CHUNK_BYTES = 64 * 1024


def _chunk_points(spec: ChartSpec, points: int) -> int:
    """Points per chunk: as many as keep the 2k completed input matrices of
    each within CHART_CHUNK_BYTES, at least 1 and at most points."""
    rows, cols = spec.shape
    per_point = 2 * spec.coord_count() * rows * cols * spec.kind.beta * 8
    return min(points, max(1, CHART_CHUNK_BYTES // per_point))


def _chart_factor(task: TaskSpec, spectrum: np.ndarray) -> np.ndarray:
    """The theorem's factor at a chunk's points from its one spectrum input
    (P, q), after the checks FactorInput makes of it (check_spectra)."""
    factor = FACTORS[task.theorem_id]
    (label,) = factor.spectra
    check_spectra(label, spectrum)
    return factor.log(task.beta, task.m, task.n, task.q, **{label: spectrum})


def _mp_chart(task: TaskSpec):
    """MP_HERM and MP_RECT: the input chart has the sizes (*dims, q) of the
    task's spectral factorization and the output chart (*dims[::-1], q), the
    pivots transported with it (the same pair for psd)."""
    space, dims, _ = _spectral(task)
    kind, beta, q = task.kind, task.beta, task.q

    def sample(rngs):
        s, frames = factorized_draw(rngs, task.eigen_box, q, dims, kind, 1)
        _, pivots, coords = chart_at_batch(assemble(s, frames, beta), q, space)
        return pivots, coords, pivots[::-1], _chart_factor(task, s), _spectrum_gaps(s)
    return (ChartSpec(space, kind, (*dims, q)), ChartSpec(space, kind, (*dims[::-1], q)),
            partial(pinv_batch, beta=beta), sample)


def _chol_chart(task: TaskSpec):
    kind, beta, m, q = task.kind, task.beta, task.m, task.q
    tri_spec = ChartSpec("tri", kind, (q, m))
    out_spec = ChartSpec("psd", kind, (m, q))

    def gram(t: np.ndarray) -> np.ndarray:
        return mul_raw(ct_raw(t), t, beta)

    def sample(rngs):
        coords = np.zeros((len(rngs), tri_spec.coord_count()))
        for row, rng in zip(coords, rngs):
            row[:q] = rng.uniform(0.5, 2.0, size=q)
            row[q:] = 0.7 * rng.standard_normal(row.size - q)
        analytic = _chart_factor(task, coords[:, :q])
        return None, coords, None, analytic, np.full(len(rngs), math.inf)
    return tri_spec, out_spec, gram, sample


def _congruence_map(b: Mat):
    """Y -> B*YB on a batch of coefficient arrays, symmetrized."""
    bct, beta = ct_raw(b.data), b.kind.beta

    def congruence(data: np.ndarray) -> np.ndarray:
        out = mul_raw(mul_raw(bct, data, beta), b.data, beta)
        return (out + ct_raw(out)) / 2.0
    return congruence


def _congruence_points(congruence, y: np.ndarray, rank: int):
    """The CHART points of the congruence Y -> B*YB at the rank-`rank`
    matrices y (P, m, m, beta): ((in_spec, in_pivots, coords), (out_spec,
    out_pivots), x, dets), with x = B*YB, the psd charts at y and at x, and
    dets the (P,) log-determinants det_l1l1 and det_t1t1 of their leading
    blocks (T1*T1 = S11 for the Cholesky factor T of the pivoted matrix)."""
    beta = y.shape[-1]
    in_spec, in_pivots, coords = chart_at_batch(y, rank, "psd")
    x = congruence(y)
    out_spec, out_pivots, out_coords = chart_at_batch(x, rank, "psd")
    dets = {
        name: logdet_hermitian_raw(spec.leading_block(c), beta)
        for name, spec, c in (("det_t1t1", out_spec, out_coords), ("det_l1l1", in_spec, coords))
    }
    return (in_spec, in_pivots, coords), (out_spec, out_pivots), x, dets


def _congruence_chart(task: TaskSpec):
    """UHLIG_QR (a rank-n congruence) and CONGRUENCE_NS (rank m)."""
    kind, beta, m = task.kind, task.beta, task.m
    b = _draw_b(task)
    rank = task.n or m  # CONGRUENCE_NS reads no n
    factor, det_b = FACTORS[task.theorem_id], sdet_log(b)
    spec = ChartSpec("psd", kind, (m, rank))
    congruence = _congruence_map(b)

    def sample(rngs):
        lam, frames = factorized_draw(rngs, task.eigen_box, rank, (m,), kind, 1)
        (_, in_pivots, coords), (_, out_pivots), _, dets = _congruence_points(
            congruence, assemble(lam, frames, beta), rank
        )
        dets["det_b"] = np.full(len(rngs), det_b)
        # log-determinants throughout: the determinants of a wide box, or of a
        # B the unit rule does not scale, can leave the float range
        analytic = factor.log(beta, m, task.n, 0, **{d: dets[d] for d in factor.dets})
        return in_pivots, coords, out_pivots, analytic, _spectrum_gaps(lam)
    return spec, spec, congruence, sample


def _spectrum_gaps(spec: np.ndarray) -> np.ndarray:
    """Smallest gap of each descending positive spectrum (P, q), including
    the gap to 0."""
    extended = np.concatenate([spec, np.zeros((spec.shape[0], 1))], axis=1)
    return (extended[:, :-1] - extended[:, 1:]).min(axis=1)


def _gap_margin(gap_at: float, gap: float) -> float | None:
    """Smallest spectral gap at a CHART point over the task's gap tolerance;
    None where the point has no spectral gap (CHOL) or the tolerance is 0.
    Below about 10 the finite differences may be ill-conditioned."""
    if math.isinf(gap_at) or gap == 0.0:
        return None
    return float(gap_at / gap)


def _chart_chunk(task: TaskSpec, problem, points: range):
    """(analytic, numeric, gap_at) of the CHART points `points`, each drawn
    from its own substream: one sample call and one Jacobian chunk.  When
    the chunk raises, its points run again one at a time, so a task raises
    its lowest failing point's own error."""
    in_spec, out_spec, map_batch, sample = problem
    try:
        rngs = [_substream(task.seed, task.theorem.code, _SIDE_POINTS, i) for i in points]
        in_pivots, coords, out_pivots, analytic, gap_at = sample(rngs)
        numeric = _chart_jacobian_logdets(
            map_batch, in_spec, coords, out_spec, task.step, in_pivots, out_pivots
        )
        return list(analytic), list(numeric), list(gap_at)
    except Exception:  # noqa: BLE001 -- replayed point by point below
        if len(points) == 1:
            raise
    parts = [_chart_chunk(task, problem, range(i, i + 1)) for i in points]
    return tuple(sum(column, []) for column in zip(*parts))


def run_chart_task(task: TaskSpec) -> list[dict]:
    """Compare finite-difference chart Jacobians with the analytic factor,
    on chunks of consecutive points (_chunk_points); one record per point."""
    problem = _problem(task)
    size = _chunk_points(problem[0], task.points)
    records = []
    for first in range(0, task.points, size):
        points = range(first, min(first + size, task.points))
        for i, analytic, numeric, gap_at in zip(points, *_chart_chunk(task, problem, points)):
            tol = max(task.rtol * abs(analytic), ABS_LOG_FLOOR)
            err = abs(numeric - analytic)
            records.append({
                "point": i,
                "analytic_log": float(analytic),
                "numeric_log": float(numeric),
                "abs_err": float(err),
                "tol": float(tol),
                "gap_margin": _gap_margin(float(gap_at), task.gap),
                "pass": bool(err <= tol),
            })
    return records


# ---------------------------------------------------------------------------
# MC_EQUALITY engine
#
# Every Monte-Carlo builder, MC_EQUALITY and MC_RATIO alike, returns
# (lhs_fn, lhs_const, rhs_fn, rhs_const, reference_fn), and _mc_sides runs
# it.  Each side_fn(rng, count) -> (data, logw) returns only the draws it
# keeps, those inside its region, and logw holds their density and
# transform factor; a side may skip the work for the draws it drops, but
# it draws every one of them, so no random stream moves.  The
# constants carry box volumes and Stiefel masses; the test functions are
# centred on reference_fn's draws.  An MC_EQUALITY builder's sides are the
# two sides of its identity, and its reference is the right side.


def _factorized_side(task: TaskSpec, box, dims, place, factors, image=None):
    """A factorized side and its log-mass: (side_fn, log_mass).

    side_fn draws factorized_draw((rng,), box, q, dims, kind, count), places
    the matrices as place(spectrum, frames) and weighs each draw by the sum,
    left to right, of the FACTORS entries named in factors, each reading the
    spectrum under the one name its Factor.spectra declares.  It returns
    only the draws whose image(spectrum), or the spectrum itself when image
    is None, lies in the task's eigen box with its gap; every draw is placed
    first, and the kept rows taken after.  log_mass is factorized_mass_log of
    the same box, q and dims, so the constant cannot drift from the sampler.
    """
    kind, q, gap = task.kind, task.q, task.gap
    lo, hi = task.eigen_box
    sizes = (task.beta, task.m, task.n, q)  # n is 0 where the theorem reads none

    def side(rng, count):
        spectrum, frames = factorized_draw((rng,), box, q, dims, kind, count)
        logw = None
        for name in factors:
            factor = FACTORS[name]
            (label,) = factor.spectra
            term = factor.log(*sizes, **{label: spectrum})
            logw = term if logw is None else logw + term
        ok = _in_box_gap(spectrum if image is None else image(spectrum), lo, hi, gap)
        return place(spectrum, frames)[ok], logw[ok]

    return side, factorized_mass_log(box, q, dims, task.beta)


def _w_equality(task: TaskSpec):
    beta, m, n = task.beta, task.m, task.n
    lo, hi = task.eigen_box
    root_box = (math.sqrt(lo), math.sqrt(hi))
    lhs = _factorized_side(
        task, root_box, (n, m), partial(assemble, beta=beta), ("SVD",), image=lambda d: d * d,
    )
    rhs = _factorized_side(
        task, task.eigen_box, (m, n),
        lambda lam, frames: assemble(np.sqrt(lam), frames[::-1], beta), ("SD", "W"),
    )
    return (*lhs, *rhs, rhs[0])


def _mp_equality(task: TaskSpec):
    """MP_HERM and MP_RECT: the spectral factorization's measure on the
    inverted box against its pseudo-inverse image.  The left side draws
    dims[::-1] (m x n matrices for rect) and reads the factor at the task's
    sizes: the SVD density is symmetric in n and m."""
    beta = task.beta
    _, dims, factor = _spectral(task)
    lo, hi = task.eigen_box
    lhs = _factorized_side(
        task, (1.0 / hi, 1.0 / lo), dims[::-1], partial(assemble, beta=beta), (factor,),
        image=_desc_inverse,
    )
    rhs = _factorized_side(
        task, task.eigen_box, dims,
        lambda s, frames: assemble(1.0 / s, frames[::-1], beta), (factor, task.theorem_id),
    )
    return (*lhs, *rhs, rhs[0])


def _uhlig_equality(task: TaskSpec):
    """UHLIG_SVD and UHLIG_MP: the image laws of a rank-n congruence.  The
    right side draws image points x = B* W Lambda^(+-1) W* B, the left side
    their preimages; both keep only image spectra in the region laid around
    the builder's pilot draws."""
    kind, beta, m, n, gap = task.kind, task.beta, task.m, task.n, task.gap
    lo, hi = task.eigen_box
    b = _draw_b(task)
    det_b_log = sdet_log(b)
    mp = task.theorem_id == "UHLIG_MP"
    factor = FACTORS[task.theorem_id]
    sizes = (beta, m, n, n)  # the spectra have length n
    bct = ct_raw(b.data)

    def image(rng, count):
        """A draw from the right-hand measure: (a, a*, delta, lam, gap_ok).

        x = B* W Lambda W* B is A A* for A = B* W Lambda^(1/2), so its top n
        eigenvalues delta are the spectrum of the n x n matrix A* A."""
        lam, (w1,) = factorized_draw((rng,), task.eigen_box, n, (m,), kind, count)
        spectrum = 1.0 / lam if mp else lam
        a = mul_raw(bct, w1 * np.sqrt(spectrum)[:, None, :, None], beta)
        a_ct = ct_raw(a)
        delta = eigvalsh_raw(mul_raw(a_ct, a, beta), beta)[:, ::-1]
        return a, a_ct, delta, lam, _in_box_gap(lam, lo, hi, gap)

    # Both sides are additionally restricted to per-position spectral
    # boxes estimated from pilot image spectra.  Any common restriction
    # preserves the identity; the boxes keep the left sampler close to
    # the image so its acceptance rate survives ill-conditioned B.
    _, _, pilot_delta, _, pilot_ok = image(_pilot(task), 4096)
    pilot_delta = pilot_delta[pilot_ok]
    if pilot_delta.shape[0] < 32:
        raise InconclusiveStatisticsError(
            "pilot acceptance too low to bracket the image spectra; "
            "widen the eigenvalue box or reduce the gap"
        )
    box_lo = 0.95 * np.quantile(pilot_delta, 0.01, axis=0)
    box_hi = 1.05 * np.quantile(pilot_delta, 0.99, axis=0)
    region = _Region(None, np.stack([box_lo, box_hi], axis=1))

    def rhs(rng, count):
        a, a_ct, delta, lam, ok = image(rng, count)
        x = mul_raw(a, a_ct, beta)
        x = (x + ct_raw(x)) / 2.0
        logw = FACTORS["SD"].log(*sizes, lam=lam)
        logw = logw + factor.log(*sizes, delta=delta, lam=lam, det_b=det_b_log)
        ok &= region.holds(delta)
        return x[ok], logw[ok]

    rhs_const = factorized_mass_log(task.eigen_box, n, (m,), beta)

    # The left sampler importance-samples the eigenframe from the law of
    # an orthonormal basis of range(B^* G) with G Gaussian -- exactly the
    # subspace distribution of image points -- and divides by its density
    # relative to the uniform frame measure,
    #   sdet(Sigma)^{-beta n/2} sdet(H^* Sigma^{-1} H)^{-beta m/2},
    # with Sigma = B^* B.  With B = I this reduces to uniform frames.  The
    # frame is H = Z W for Z = B* G and W = (Z* Z)^(-1/2).  Then T = B^{-*} H
    # = G W, H^* Sigma^{-1} H = T* T, and the preimage z = T Lambda_x T* has
    # the spectrum of the n x n matrix Lambda_x^(1/2) T* T Lambda_x^(1/2).
    # A draw whose Lambda_x is not strictly descending has weight 0, so the
    # frame work runs on the descending rows only and X is assembled for the
    # kept ones; every row's u and G are still drawn, which keeps the
    # random stream of each block.

    def lhs(rng, count):
        lam_x = region.draw(rng, count)
        g = rng.standard_normal(size=(count, m, n, beta))
        descending = np.all(lam_x[:, :-1] > lam_x[:, 1:], axis=1)
        lam_x, g = lam_x[descending], g[descending]
        z = mul_raw(bct, g, beta)
        w = inv_sqrt_hermitian_raw(mul_raw(ct_raw(z), z, beta), beta)
        t = mul_raw(g, w, beta)
        tt = mul_raw(ct_raw(t), t, beta)
        root = np.sqrt(lam_x)
        z_spec = eigvalsh_raw(
            tt * (root[:, :, None] * root[:, None, :])[..., None], beta
        )[:, ::-1]
        lam_y = _desc_inverse(z_spec) if mp else z_spec
        ok = _in_box_gap(lam_y, lo, hi, gap)
        h = mul_raw(z[ok], w[ok], beta)
        logw = (
            FACTORS["SD"].log(*sizes, lam=lam_x[ok]) + beta * n * det_b_log
            + 0.5 * m * beta * logdet_hermitian_raw(tt[ok], beta)
        )
        return assemble(lam_x[ok], (h,), beta), logw

    lhs_const = region.log_volume() + stiefel_volume_log(n, m, beta)
    return lhs, lhs_const, rhs, rhs_const, rhs


def run_mc_equality_task(task: TaskSpec, jobs: int = 1) -> list[dict]:
    """Estimate both sides of the factorized-measure identity and z-test them."""
    lhs, lhs_se, rhs, rhs_se, rel = _mc_sides(task, jobs, EQUALITY_TEST_FUNCTIONS)
    records = []
    for k in range(EQUALITY_TEST_FUNCTIONS):
        se = math.sqrt(lhs_se[k] ** 2 + rhs_se[k] ** 2)
        z = abs(lhs[k] - rhs[k]) / se
        records.append(
            {
                "test_function": k,
                "lhs": float(lhs[k]),
                "lhs_stderr": float(lhs_se[k]),
                "rhs": float(rhs[k]),
                "rhs_stderr": float(rhs_se[k]),
                "z": float(z),
                "rel_stderr": float(rel[k]),
                "pass": bool(z <= task.ztol),
            }
        )
    return records


# ---------------------------------------------------------------------------
# MC_RATIO engine
#
# An MC_RATIO builder restricts both of its sides to one _Region of chart
# coordinates laid around pilot draws of the factorization; any common
# restriction keeps the identity.  The left side is the surface side
# (_surface_side), the right side the factorized side restricted to the
# region (_restricted_side).  SD, SVD and QR build both through
# _ratio_problem, with the unrestricted draw as reference; CHOL_X draws S in
# a region of its own and its reference is its restricted side.


def _phase_fiber_log(beta: int, q: int) -> float:
    """Per-column unit-scalar gauge volume of the spectral factorizations."""
    return q * stiefel_volume_log(1, 1, beta)


def _leading_min(spec: ChartSpec, coords: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue (psd chart) or singular value (rect chart) of each
    row's pivoted leading block, the block that completion inverts."""
    return _descending_spectrum(spec.space, spec.leading_block(coords), spec.kind.beta)[:, -1]


@dataclass(frozen=True, eq=False)
class _Region:
    """The common restriction of an MC_RATIO identity in one chart: chart
    coordinates inside box, a (k, 2) array of lower and upper bounds, whose
    leading block reaches floor (_leading_min; None for no floor).  The
    UHLIG pilot box is a region with no spec and no floor."""

    spec: ChartSpec | None
    box: np.ndarray
    floor: float | None = None

    @classmethod
    def around(cls, spec: ChartSpec, pilot_coords: np.ndarray) -> _Region:
        """The region of pilot draws: the 2% and 98% quantiles of each
        coordinate, each width floored at 1e-6 times the box's largest
        magnitude, and a floor of 0.9 times the 5% quantile of the draws'
        _leading_min.  A full-rank rect chart completes nothing and has no
        floor; every psd chart has one, because a psd box can leave the
        positive cone."""
        box = np.quantile(pilot_coords, [0.02, 0.98], axis=0).T  # (k, 2)
        width = box[:, 1] - box[:, 0]
        scale = float(np.abs(box).max())
        tiny = 1e-6 * (scale if scale > 0.0 else 1.0)
        box[:, 1] = np.where(width <= tiny, box[:, 0] + tiny, box[:, 1])
        if spec.space == "rect" and spec.sizes[-1] == min(spec.shape):
            return cls(spec, box)
        return cls(spec, box, 0.9 * float(np.quantile(_leading_min(spec, pilot_coords), 0.05)))

    def log_volume(self) -> float:
        return float(np.log(self.box[:, 1] - self.box[:, 0]).sum())

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, k) coordinates uniform in the box."""
        return rng.uniform(self.box[:, 0], self.box[:, 1], size=(count, self.box.shape[0]))

    def live(self, coords: np.ndarray) -> np.ndarray:
        """Mask: rows whose leading block reaches the floor; every row when
        there is none."""
        if self.floor is None:
            return np.ones(coords.shape[0], dtype=bool)
        return _leading_min(self.spec, coords) >= self.floor

    def holds(self, coords: np.ndarray) -> np.ndarray:
        """Mask: rows inside the box that are live."""
        in_box = (coords >= self.box[:, 0]) & (coords <= self.box[:, 1])
        return np.all(in_box, axis=1) & self.live(coords)


def _surface_side(region: _Region, accept):
    """The surface side of an MC_RATIO builder: coordinates uniform in the
    region's box, weighed by the chart's Hausdorff density.

    Only the live rows (region.live) are completed; of those, only the rows
    that accept(data) -> mask keeps (the builder's restriction on the
    completed matrices) are weighed and returned.
    """
    spec = region.spec

    def side(rng, count):
        coords = region.draw(rng, count)
        live = coords[region.live(coords)]
        full = spec.complete_batch(live)
        ok = accept(full)
        return full[ok], hausdorff_density_log_batch(spec, live[ok])
    return side


def _restricted_side(raw_fn, region: _Region):
    """The factorized side raw_fn restricted to the region: it keeps the
    draws of raw_fn whose chart coordinates hold (region.holds)."""
    def side(rng, count):
        data, logw = raw_fn(rng, count)
        ok = region.holds(region.spec.extract_batch(data))
        return data[ok], logw[ok]
    return side


def _ratio_problem(task: TaskSpec, spec: ChartSpec, fact_raw, fact_const: float, accept):
    """The MC_RATIO problem of a factorized side fact_raw in chart spec: the
    region lies around 4096 pilot draws of fact_raw, both sides are
    restricted to it, and fact_raw is the reference."""
    pilot = _valid_draws(*fact_raw(_pilot(task), 4096), "pilot")
    region = _Region.around(spec, spec.extract_batch(pilot))
    return (
        _surface_side(region, accept), region.log_volume(),
        _restricted_side(fact_raw, region), fact_const, fact_raw,
    )


def _spectral_ratio(task: TaskSpec):
    """SD and SVD: the factorized side in the surface chart (*dims, q) of
    the task's spectral factorization, keeping draws whose top q spectrum
    values lie in the box with their gap."""
    space, dims, factor = _spectral(task)
    beta, q, gap = task.beta, task.q, task.gap
    lo, hi = task.eigen_box
    fact_raw, fact_mass = _factorized_side(
        task, task.eigen_box, dims, partial(assemble, beta=beta), (factor,)
    )

    def spectrum_ok(data: np.ndarray) -> np.ndarray:
        return _in_box_gap(_descending_spectrum(space, data, beta)[:, :q], lo, hi, gap)

    fact_const = fact_mass - _phase_fiber_log(beta, q)
    return _ratio_problem(task, ChartSpec(space, task.kind, (*dims, q)), fact_raw, fact_const,
                          spectrum_ok)


def _qr_ratio(task: TaskSpec):
    # q = m (enforced): the chart is the whole n x m space
    kind, beta, m, n = task.kind, task.beta, task.m, task.n
    lo, hi = task.eigen_box
    tri_spec = ChartSpec("tri", kind, (m, m))
    # the diagonal of T lies in [lo, hi] and its other coefficients in [-hi, hi]
    off = tri_spec.coord_count() - m
    t_region = _Region(tri_spec, np.array([[lo, hi]] * m + [[-hi, hi]] * off))

    def fact_raw(rng, count):
        tcoords = t_region.draw(rng, count)
        t = tri_spec.complete_batch(tcoords)
        h1 = sample_stiefel_batch(n, m, kind, (rng,), count)
        return mul_raw(h1, t, beta), FACTORS["QR"].log(beta, m, n, m, t_diag=tcoords[:, :m])

    def triangle_ok(data: np.ndarray) -> np.ndarray:
        """T of the positive-diagonal QR X = H T lies in the T region, and
        every Gram-Schmidt norm of X exceeds 1e-12 times its row's largest
        coefficient magnitude."""
        scale = np.abs(data).max(axis=(1, 2, 3))
        h, norms = gram_schmidt_batch(data, beta)
        coords = tri_spec.extract_batch(mul_raw(ct_raw(h), data, beta))
        return t_region.holds(coords) & (norms > 1e-12 * scale[:, None]).all(axis=1)

    fact_const = t_region.log_volume() + stiefel_volume_log(m, n, beta)
    return _ratio_problem(task, ChartSpec("rect", kind, (n, m, m)), fact_raw, fact_const,
                          triangle_ok)


def _chol_x_ratio(task: TaskSpec):
    # q = m (enforced): S = X*X is m x m positive definite
    kind, beta, m, n = task.kind, task.beta, task.m, task.n
    x_spec = ChartSpec("rect", kind, (n, m, m))
    s_spec = ChartSpec("psd", kind, (m, m))

    lam, frames = factorized_draw((_pilot(task),), task.eigen_box, m, (m,), kind, 4096)
    pilot_s = assemble(lam, frames, beta)
    s_region = _Region.around(s_spec, s_spec.extract_batch(pilot_s))

    def assemble_x(s: np.ndarray, h1: np.ndarray) -> np.ndarray:
        return mul_raw(h1, cholesky_batch(s, beta), beta)

    pilot_h = sample_stiefel_batch(n, m, kind, (_pilot(task, 1),), 4096)
    x_region = _Region.around(x_spec, x_spec.extract_batch(assemble_x(pilot_s, pilot_h)))

    def fact_raw(rng, count):
        s_coords = s_region.draw(rng, count)
        valid = s_region.live(s_coords)
        h1 = sample_stiefel_batch(n, m, kind, (rng,), count)
        s_full = s_spec.complete_batch(s_coords[valid])
        logw = FACTORS["CHOL_X"].log(beta, m, n, m, det_s11=logdet_hermitian_raw(s_full, beta))
        return assemble_x(s_full, h1[valid]), logw

    def gram_ok(x: np.ndarray) -> np.ndarray:
        s = mul_raw(ct_raw(x), x, beta)
        return s_region.holds(s_spec.extract_batch((s + ct_raw(s)) / 2.0))

    fact_fn = _restricted_side(fact_raw, x_region)
    fact_const = s_region.log_volume() + stiefel_volume_log(m, n, beta)
    return _surface_side(x_region, gram_ok), x_region.log_volume(), fact_fn, fact_const, fact_fn


def run_mc_ratio_task(task: TaskSpec, jobs: int = 1) -> list[dict]:
    """Check that surface-to-factorized integral ratios are test-function
    independent: a record per test function, then the summary (cv, constant)."""
    h, h_se, f, f_se, rel = _mc_sides(task, jobs, RATIO_TEST_FUNCTIONS)
    ratios = h / f
    records = [
        {
            "test_function": k,
            "hausdorff": float(h[k]),
            "hausdorff_stderr": float(h_se[k]),
            "factorized": float(f[k]),
            "factorized_stderr": float(f_se[k]),
            "ratio": float(ratios[k]),
            "rel_stderr": float(rel[k]),
        }
        for k in range(RATIO_TEST_FUNCTIONS)
    ]
    constant = float(ratios.mean())
    cv = float(ratios.std(ddof=1) / constant)
    records.append({"summary": True, "cv": cv, "constant": constant,
                    "pass": bool(cv <= task.cv_tol)})
    return records


# ---------------------------------------------------------------------------
# discrepancy demo


def _demo_problem(task: TaskSpec) -> tuple[Mat, Mat, np.ndarray]:
    """(B, Y, lam): the congruence and the pinned rank-n base point
    Y = diag(lam, 0, ..., 0) with lam = (n, ..., 1)."""
    kind, beta, m, n = task.kind, task.beta, task.m, task.n
    b = _draw_b(task)
    y_data = np.zeros((m, m, beta))
    lam = np.arange(n, 0, -1, dtype=float)
    y_data[np.arange(n), np.arange(n), 0] = lam
    return b, Mat(kind, y_data), lam


def _exp_or_none(log_value: float) -> float | None:
    """exp(log_value), or None where it overflows or underflows to 0."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        return None
    return value if value > 0.0 else None


def run_discrepancy_demo(task: TaskSpec) -> Report:
    """The discrepancy demo's Report (_demo_records); DEMO tasks only."""
    if task.engine != "DEMO":
        raise RegistryError(
            "the discrepancy demo runs the UHLIG_SVD theorem with engine DEMO"
        )
    return run_task(task)


def _demo_records(task: TaskSpec) -> list[dict]:
    """Show that the SVD-congruence factor is not an entry-chart Jacobian:
    one record of the chart Jacobian of Y -> B*YB at a pinned rank-n point
    against both congruence factors.  The QR-based one must match it; the
    SVD-based one must differ wherever it differs from the QR-based one (not
    at m = n, nor where B keeps range(Y) in its leading block)."""
    beta, m, n = task.beta, task.m, task.n
    b, y, lam = _problem(task)
    congruence = _congruence_map(b)
    (in_spec, in_pivots, coords), (out_spec, out_pivots), x, dets = _congruence_points(
        congruence, y.data[None], n
    )
    chart_log = float(_chart_jacobian_logdets(
        congruence, in_spec, coords, out_spec, task.step, in_pivots, out_pivots
    )[0])
    x_eig = eig_hermitian(Mat(y.kind, x[0]), n)
    gbh = conj_transpose(x_eig.w1) @ conj_transpose(b) @ eig_hermitian(y, n).w1
    # log-determinants throughout: at a B near 1e60 the determinants and the
    # factors leave the float range
    inputs = {"lam": lam, "delta": np.asarray(x_eig.lam), "det_b": sdet_log(b),
              "det_gbh": sdet_log(gbh), **{d: float(v[0]) for d, v in dets.items()}}
    svd_log, qr_log, alt_log = (
        float(f.log(beta, m, n, 0, **{k: inputs[k] for k in (*f.spectra, *f.dets)}))
        for f in (FACTORS["UHLIG_SVD"], FACTORS["UHLIG_QR"], UHLIG_SVD_ALT)
    )
    tol = max(task.rtol * abs(qr_log), ABS_LOG_FLOOR)
    expected_mismatch = m != n and abs(svd_log - qr_log) > tol
    qr_matches = abs(chart_log - qr_log) <= tol
    svd_differs = abs(chart_log - svd_log) > tol
    passed = qr_matches and (svd_differs if expected_mismatch else not svd_differs)
    record = {
        "chart_det": _exp_or_none(chart_log),
        "chart_logdet": float(chart_log),
        "uhlig_qr_factor": _exp_or_none(qr_log),
        "uhlig_svd_factor": _exp_or_none(svd_log),
        "uhlig_svd_alt_factor": _exp_or_none(alt_log),
        "expected_mismatch": bool(expected_mismatch),
        "qr_matches_chart": bool(qr_matches),
        "svd_differs_from_chart": bool(svd_differs),
        "pass": bool(passed),
    }
    return [record]


# ---------------------------------------------------------------------------
# the theorem table and dispatch

_MQ, _NMQ, _CONGRUENCE, _M = ("m", "q"), ("n", "m", "q"), ("m", "n"), ("m",)

# A theorem's code seeds every substream of its tasks: renumbering one would
# reseed all of its reports, so the codes stay as written.
THEOREMS: dict[str, Theorem] = {
    "SVD": Theorem(1, "svd", _NMQ, {"MC_RATIO": _spectral_ratio}),
    "SD": Theorem(2, "sd", _MQ, {"MC_RATIO": _spectral_ratio}),
    "W": Theorem(3, "w", _NMQ, {"MC_EQUALITY": _w_equality}),
    "QR": Theorem(4, "qr", _NMQ, {"MC_RATIO": _qr_ratio}),
    "CHOL": Theorem(5, "chol", _MQ, {"CHART": _chol_chart}),
    "CHOL_X": Theorem(6, "chol-x", _NMQ, {"MC_RATIO": _chol_x_ratio}),
    "MP_HERM": Theorem(7, "mp-herm", _MQ, {"CHART": _mp_chart, "MC_EQUALITY": _mp_equality}),
    "MP_RECT": Theorem(8, "mp-rect", _NMQ, {"CHART": _mp_chart, "MC_EQUALITY": _mp_equality}),
    "UHLIG_SVD": Theorem(9, "uhlig-svd", _CONGRUENCE,
                         {"MC_EQUALITY": _uhlig_equality, "DEMO": _demo_problem}),
    "UHLIG_QR": Theorem(10, "uhlig-qr", _CONGRUENCE, {"CHART": _congruence_chart}),
    "UHLIG_MP": Theorem(11, "uhlig-mp", _CONGRUENCE, {"MC_EQUALITY": _uhlig_equality}),
    "CONGRUENCE_NS": Theorem(12, "congruence-ns", _M, {"CHART": _congruence_chart}),
}


def run_task(task: TaskSpec, jobs: int = 1) -> Report:
    """Run the task on its engine, timed, and report the records it returns;
    the engine runs on the eigenvalue box and gap divided by 2^task.unit_exp
    (the unit rule, see the module docstring).  Up to jobs threads, at most
    one per CPU and per block, share the Monte-Carlo blocks.  Each engine is
    read from its module name at each call, so a tracer's wrapper on one sees
    every task of that engine."""
    start = time.perf_counter()
    lo, hi, gap = (math.ldexp(v, -task.unit_exp) for v in (*task.eigen_box, task.gap))
    unit = replace(task, eigen_box=(lo, hi), gap=gap)
    if unit.engine == "CHART":
        records = run_chart_task(unit)
    elif unit.engine == "MC_EQUALITY":
        records = run_mc_equality_task(unit, jobs=jobs)
    elif unit.engine == "MC_RATIO":
        records = run_mc_ratio_task(unit, jobs=jobs)
    else:
        records = _demo_records(unit)
    return Report(task, tuple(records), int((time.perf_counter() - start) * 1000))
