"""Command-line front end: run verification tasks, evaluate factors, sample objects.

Subcommands
-----------
verify      run one verification task and write its report
verify-all  run a preset grid of tasks and aggregate a single pass/fail
factor      evaluate one analytic density/transform factor from inline inputs
gamma       evaluate the multivariate gamma function
volume      evaluate a Stiefel manifold volume
sample      draw a random matrix (stiefel | psd | rect) and write it to a file
demo        verify --task uhlig-svd --engine demo, with its own defaults:
            the congruence-factor discrepancy demonstration

Exit codes: 0 pass, 1 fail, 2 usage error, 3 inconclusive statistics,
4 internal error (an exception that is not a DivalgError).  Every command
reaches them through main: a command returns its verdict and raises the
rest, and only main's handler turns an exception into an exit code and a
stderr line.  Each command's usage_errors, set by the parser, names the
errors that exit 2; what any other raised task counts as is written once,
in OUTCOMES.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import sys
import time
from collections import Counter

import numpy as np

from . import __version__
from .algebra import AlgebraKind
from .charts import (
    assemble,
    factorized_draw,
    sample_stiefel_batch,
)
from .errors import (
    ConfigurationError,
    DivalgError,
    InconclusiveStatisticsError,
    RegistryError,
    UnsupportedAlgebraError,
)
from .linalg import Mat, save_matrix
from .measures import (
    UHLIG_SVD_ALT,
    FactorInput,
    factor_log,
    mv_gamma_log,
    stiefel_volume_log,
    tau,
)
from .verify import ENGINES, THEOREMS, Report, TaskSpec, check_sizes, run_task

TASK_NAMES = {t.cli_name: name for name, t in THEOREMS.items()}

ENGINE_NAMES = {e.lower().replace("_", "-"): e for e in ENGINES}

# every theorem's own factor, plus the pi exponent tau and the cross-check
# form of the UHLIG_SVD factor
FACTOR_KINDS = ("tau", *TASK_NAMES, "uhlig-svd-alt")

TABLE_DISCLAIMER = (
    "# table view is a reading convenience; field layout is not stable -- "
    "use --format json for scripts"
)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _jobs_from_args(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


def _task_from_args(args: argparse.Namespace) -> TaskSpec:
    if args.task not in TASK_NAMES:
        raise ConfigurationError(
            f"unknown task {args.task!r}; expected one of {sorted(TASK_NAMES)}"
        )
    engine = ""
    if args.engine:
        if args.engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown engine {args.engine!r}; expected one of {sorted(ENGINE_NAMES)}"
            )
        engine = ENGINE_NAMES[args.engine]
    # every other field has a flag of its own name (see _add_task_flags)
    renamed = {"theorem_id": TASK_NAMES[args.task], "engine": engine,
               "b_source": args.b_matrix, "eigen_box": (args.lambda_lo, args.lambda_hi)}
    return TaskSpec(**renamed, **{f.name: getattr(args, f.name)
                                  for f in dataclasses.fields(TaskSpec) if f.name not in renamed})


def _records_to_csv(records: list[dict]) -> str:
    keys = sorted({k for rec in records for k in rec})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, restval="")
    writer.writeheader()
    for rec in records:
        writer.writerow(rec)
    return buf.getvalue()


def _records_to_table(records: list[dict]) -> str:
    keys = sorted({k for rec in records for k in rec})
    rows = [[_cell(rec.get(k, "")) for k in keys] for rec in records]
    widths = [max(len(k), *(len(r[i]) for r in rows)) if rows else len(k)
              for i, k in enumerate(keys)]
    lines = [TABLE_DISCLAIMER]
    lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@contextlib.contextmanager
def _writing(out: str):
    """A file out that cannot be written is a usage error."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is None."""
    if not out:
        sys.stdout.write(text)
        return
    with _writing(out), open(out, "w") as fh:
        fh.write(text)


def _write_report(report: Report, fmt: str, out: str | None) -> None:
    if fmt == "json":
        return _emit(report.to_json(indent=2) + "\n", out)
    if fmt == "csv":
        return _emit(_records_to_csv(list(report.records)), out)
    header = (
        f"task={report.task.theorem_id} engine={report.task.engine} "
        f"beta={report.task.beta} pass={report.passed}\n"
    )
    return _emit(header + _records_to_table(list(report.records)), out)


# What a task that raises counts as; the first row whose class matches wins:
# (exception class, verify-all record key, stderr prefix, exit code).
OUTCOMES = (
    (InconclusiveStatisticsError, "inconclusive", "inconclusive", 3),
    (DivalgError, "error", "failed", 1),
    (Exception, "internal_error", "internal error", 4),
)

# a verify-all task's exit code by its key (a report's, or OUTCOMES');
# the grid exits with its worst, in the order 4 > 1 > 3 > 0
EXIT_CODES = {"passed": 0, "failed": 1, **{key: code for _, key, _, code in OUTCOMES}}
EXIT_PRECEDENCE = (0, 3, 1, 4)


def task_outcome(exc: Exception) -> tuple[str, str, int, str]:
    """The record key, stderr prefix and exit code OUTCOMES gives exc, and
    its message: a DivalgError's own text, any other exception's
    `Type: text`."""
    key, prefix, code = next(row[1:] for row in OUTCOMES if isinstance(exc, row[0]))
    message = str(exc) if isinstance(exc, DivalgError) else f"{type(exc).__name__}: {exc}"
    return key, prefix, code, message


def _exit_for_error(exc: Exception, usage: type | tuple[type, ...]) -> int:
    """Print exc's one stderr line and give its exit code: 2 for the
    octonion refusal and for the command's usage errors, else OUTCOMES'."""
    if isinstance(exc, UnsupportedAlgebraError):
        return _fail_usage(f"octonion results conjectural -- {exc}")
    if isinstance(exc, usage):
        return _fail_usage(str(exc))
    _, prefix, code, message = task_outcome(exc)
    print(f"{prefix}: {message}", file=sys.stderr)
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_task(_task_from_args(args), jobs=_jobs_from_args(args))
    _write_report(report, args.format, args.out)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verify-all presets


def preset_tasks(preset: str, seed: int) -> list[TaskSpec]:
    """The verification grid: every theorem through every admissible engine."""
    if preset == "desk":
        trials, points = 50_000, 8
    elif preset == "full":
        trials, points = 200_000, 20
    else:
        raise ConfigurationError(f"unknown preset {preset!r}; expected desk or full")
    tasks: list[TaskSpec] = []

    def add(theorem, beta, engine="", **kw):
        tasks.append(
            TaskSpec(
                theorem_id=theorem, beta=beta, engine=engine,
                trials=trials, points=points, seed=seed, **kw,
            )
        )

    for beta in (1, 2, 4):
        for m, q in ((2, 1), (3, 2), (4, 2)):
            add("MP_HERM", beta, m=m, q=q)
        for n, m, q in ((2, 2, 1), (3, 2, 1), (3, 3, 2)):
            add("MP_RECT", beta, n=n, m=m, q=q)
        for m, q in ((2, 1), (3, 2)):
            add("CHOL", beta, m=m, q=q)
        for m, n in ((2, 1), (3, 2)):
            add("UHLIG_QR", beta, m=m, n=n)
        for m in (2, 3):
            add("CONGRUENCE_NS", beta, m=m)
    for beta in (1, 2):
        for n, m, q in ((3, 2, 1), (3, 3, 2)):
            add("W", beta, n=n, m=m, q=q)
        for theorem in ("UHLIG_SVD", "UHLIG_MP"):
            for m, n in ((2, 1), (3, 2)):
                for b_source in ("random", "identity"):
                    add(theorem, beta, m=m, n=n, b_source=b_source)
        add("MP_HERM", beta, engine="MC_EQUALITY", m=2, q=1)
        add("MP_RECT", beta, engine="MC_EQUALITY", n=3, m=2, q=1)
        add("SD", beta, m=2, q=1)
        add("SVD", beta, n=2, m=2, q=1)
        add("QR", beta, n=2, m=2, q=2)
        add("CHOL_X", beta, n=3, m=2, q=2)
    add("UHLIG_SVD", 1, engine="DEMO", m=2, n=1, b_source="demo")
    return tasks


def grid_task(task: TaskSpec, jobs: int) -> tuple[dict, str]:
    """Run one verify-all task, printing nothing: its record, and the key it
    counts under, "passed" or "failed" for a report, OUTCOMES' record key
    for a task that raises."""
    try:
        report = run_task(task, jobs=jobs)
    except Exception as exc:  # noqa: BLE001 -- one task's bug must not end the grid
        key, _, _, message = task_outcome(exc)
        return {"task": task.to_dict(), key: message, "pass": False}, key
    return report.to_dict(), "passed" if report.passed else "failed"


def cmd_verify_all(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    jobs = _jobs_from_args(args)
    results, keys = [], []
    for task in preset_tasks(args.preset, args.seed):
        record, key = grid_task(task, jobs)
        if key == "internal_error":
            print(f"internal error: {record[key]}", file=sys.stderr)
        results.append(record)
        keys.append(key)
    count = Counter(keys)
    n_fail = count["failed"] + count["error"]
    passed = count["passed"] == len(keys)
    doc = {
        "preset": args.preset,
        "seed": args.seed,
        "version": __version__,
        "tasks": results,
        "n_tasks": len(results),
        "n_failed": n_fail,
        "n_inconclusive": count["inconclusive"],
        "pass": passed,
        "runtime_ms": int((time.perf_counter() - start) * 1000),
    }
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
        _emit(text + "\n", args.out)
    else:
        rows = []
        for item, key in zip(results, keys):
            task = item["task"]
            rows.append(
                {
                    "theorem": task["theorem_id"],
                    "engine": task["engine"],
                    "beta": task["beta"],
                    "m": task["m"],
                    "n": task["n"],
                    "q": task["q"],
                    "b_source": task["b_source"],
                    "pass": item["pass"],
                    "note": item.get(key, ""),
                }
            )
        text = _records_to_csv(rows) if args.format == "csv" else _records_to_table(rows)
        summary = (
            f"pass={passed} failed={n_fail} inconclusive={count['inconclusive']} "
            f"internal_errors={count['internal_error']}\n"
        )
        _emit(text + summary if args.format != "csv" else text, args.out)
    return max((EXIT_CODES[key] for key in keys), key=EXIT_PRECEDENCE.index, default=0)


# ---------------------------------------------------------------------------
# factor / gamma / volume / sample


def _spectrum_arg(raw: str | None, flag: str) -> tuple[float, ...] | None:
    if raw is None:
        return None
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise ConfigurationError(
            f"{flag} must be a comma-separated list of finite and positive numbers, "
            f"got {raw!r}"
        ) from None


def _print_log_value(log_value: float) -> int:
    """Print `log:` and `value:` lines for log_value (value: inf when exp
    overflows)."""
    with np.errstate(over="ignore"):
        value = np.exp(log_value)
    print(f"log: {log_value:.10g}")
    print(f"value: {value:.10g}")
    return 0


def _evaluate_factor(args: argparse.Namespace) -> float:
    """The log factor `divalg factor` prints, after the theorem's size rule."""
    name = "UHLIG_SVD" if args.kind == "uhlig-svd-alt" else TASK_NAMES[args.kind]
    n, q = check_sizes(name, args.m, args.n, args.q)
    fi = FactorInput(
        beta=args.beta, m=args.m, n=n, q=q,
        d=_spectrum_arg(args.d, "--d"),
        lam=_spectrum_arg(getattr(args, "lambda"), "--lambda"),
        delta=_spectrum_arg(args.delta, "--delta"),
        t_diag=_spectrum_arg(args.t_diag, "--t-diag"),
        det_b=args.det_b, det_t1t1=args.det_t1t1, det_l1l1=args.det_l1l1,
        det_s11=args.det_s11, det_gbh=args.det_gbh,
    )
    return factor_log(UHLIG_SVD_ALT if args.kind == "uhlig-svd-alt" else name, fi)


def cmd_factor(args: argparse.Namespace) -> int:
    if args.kind not in FACTOR_KINDS:
        raise ConfigurationError(
            f"unknown factor kind {args.kind!r}; expected one of {sorted(FACTOR_KINDS)}"
        )
    if args.kind == "tau":
        print(f"value: {tau(args.beta, args.q):.10g}")
        return 0
    return _print_log_value(_evaluate_factor(args))


def cmd_gamma(args: argparse.Namespace) -> int:
    return _print_log_value(mv_gamma_log(args.m, args.beta, args.a))


def cmd_volume(args: argparse.Namespace) -> int:
    return _print_log_value(stiefel_volume_log(args.m, args.n, args.beta))


# a draw that leaves the float range is refused below, not warned about
@np.errstate(over="ignore", invalid="ignore")
def cmd_sample(args: argparse.Namespace) -> int:
    kind = AlgebraKind.from_beta(args.beta)
    if args.beta == 8:
        raise UnsupportedAlgebraError("sampling supports beta in {1,2,4}")
    if args.seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {args.seed}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([args.seed, 0x5A])))
    box = (args.lambda_lo, args.lambda_hi)
    if args.q < 1:
        raise ConfigurationError(f"q must be at least 1, got {args.q}")
    # a frame wider than its space is refused by sample_stiefel_batch
    if args.space == "stiefel":
        data = sample_stiefel_batch(args.n, args.q, kind, (rng,), 1)[0]
    else:
        dims = (args.m,) if args.space == "psd" else (args.n, args.m)
        data = assemble(*factorized_draw((rng,), box, args.q, dims, kind, 1), args.beta)[0]
    if not np.all(np.isfinite(data)):
        raise ConfigurationError(
            f"the {args.space} sample leaves the float range; lower --lambda-hi"
        )
    with _writing(args.out):
        save_matrix(Mat(kind, data), args.out)
    print(f"wrote {args.space} sample to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


# TaskSpec's defaults, with the box split into the two flags that set it
TASK_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TaskSpec)}
TASK_DEFAULTS["lambda_lo"], TASK_DEFAULTS["lambda_hi"] = TASK_DEFAULTS["eigen_box"]


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=int, required=True, help="algebra dimension: 1, 2 or 4")
    p.add_argument("--m", type=int, default=0)
    # the other defaults are TaskSpec's own (m has none there)
    for flag, kind in (("n", int), ("q", int), ("trials", int), ("points", int),
                       ("step", float), ("rtol", float), ("ztol", float), ("cv-tol", float),
                       ("lambda-lo", float), ("lambda-hi", float), ("gap", float),
                       ("seed", int)):
        p.add_argument(f"--{flag}", type=kind, default=TASK_DEFAULTS[flag.replace("-", "_")])
    p.add_argument("--b-matrix", default=TASK_DEFAULTS["b_source"],
                   help="'random', 'identity', 'demo', or a matrix file path")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divalg",
        description="Verification toolkit for matrix factorization measures "
        "over the real normed division algebras.",
    )
    parser.add_argument("--version", action="version", version=f"divalg {__version__}")
    # the errors main reports as usage errors (exit 2); the commands that
    # only evaluate or draw from their flags widen them to every DivalgError
    parser.set_defaults(usage_errors=(RegistryError, ConfigurationError))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run one verification task")
    p.add_argument("--task", required=True, help=f"one of {sorted(TASK_NAMES)}")
    p.add_argument("--engine", default="", help=f"one of {sorted(ENGINE_NAMES)}")
    _add_task_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-all", help="run a preset grid of tasks")
    p.add_argument("--preset", choices=("desk", "full"), default="desk")
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("factor", help="evaluate one analytic factor")
    p.add_argument("--kind", required=True, help=f"one of {sorted(FACTOR_KINDS)}")
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--lambda", dest="lambda", default=None,
                   help="eigenvalues, comma separated, descending")
    p.add_argument("--d", default=None, help="singular values, comma separated")
    p.add_argument("--delta", default=None, help="image eigenvalues, comma separated")
    p.add_argument("--t-diag", default=None, help="triangular diagonal, comma separated")
    p.add_argument("--det-b", type=float, default=None)
    p.add_argument("--det-t1t1", type=float, default=None)
    p.add_argument("--det-l1l1", type=float, default=None)
    p.add_argument("--det-s11", type=float, default=None)
    p.add_argument("--det-gbh", type=float, default=None)
    p.set_defaults(func=cmd_factor, usage_errors=DivalgError)

    p = sub.add_parser("gamma", help="multivariate gamma function")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.set_defaults(func=cmd_gamma, usage_errors=DivalgError)

    p = sub.add_parser("volume", help="Stiefel manifold volume")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(func=cmd_volume, usage_errors=DivalgError)

    p = sub.add_parser("sample", help="draw a random matrix and write it to a file")
    p.add_argument("space", choices=("stiefel", "psd", "rect"))
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--lambda-lo", type=float, default=1.0)
    p.add_argument("--lambda-hi", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample, usage_errors=DivalgError)

    # verify --task uhlig-svd --engine demo with its own defaults; the task
    # defaults go first, so that the flags below keep theirs
    p = sub.add_parser("demo", help="congruence-factor discrepancy demonstration")
    p.set_defaults(**{**TASK_DEFAULTS, "task": "uhlig-svd", "engine": "demo", "jobs": 1})
    p.add_argument("--beta", type=int, default=1)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--b-matrix", default="demo")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 -- no traceback reaches a CLI user
        return _exit_for_error(exc, args.usage_errors)


if __name__ == "__main__":
    sys.exit(main())
