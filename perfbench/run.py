"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; divalg is imported from its `src/`.  The
workload repeats whole rounds of its tasks until `--seconds` have passed
and it has made `workloads.MIN_ROUNDS` rounds (one when traced).  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  Untraced times are
scaled to a fixed host speed read by `gauge.Gauge`.
See perfbench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import os

# One BLAS thread per process, set before numpy is first imported: the
# workloads' own --jobs are the only threads that do work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is the median with the run's own

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from gauge import Gauge, TaskClock, scale  # noqa: E402


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other divalg."""
    if not (SRC / "divalg" / "__init__.py").is_file():
        _fail(f"no divalg package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import divalg

    if Path(divalg.__file__).resolve().parent != SRC / "divalg":
        _fail(f"imported divalg from {divalg.__file__}, not from {SRC}")


def setup(workload: str, seed: int) -> tuple[workloads.Inputs, float]:
    """Import divalg and build the inputs; returns them with the seconds taken."""
    start = time.perf_counter()
    _import_program()
    WORKDIR.mkdir(parents=True, exist_ok=True)
    inputs = workloads.build_inputs(workload, seed, WORKDIR)
    return inputs, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up seconds and exit")
    args = parser.parse_args(argv)

    if args.setup_only:
        print(repr(setup(args.workload, args.seed)[1]))
        return
    # a traced run reports no setup_s and no scaled times, so it needs no gauge
    meter = None if args.trace else Gauge()
    try:
        result = measure(args, meter)
    finally:
        if meter:
            meter.close()
    print(json.dumps(result))


def measure(args: argparse.Namespace, meter: Gauge | None) -> dict:
    """Set up, run the rounds and check them; returns the result object."""
    setup_times, readings = [], []
    if meter:
        readings.append(meter.read())
        for _ in range(SETUP_PROBES):
            setup_times.append(probe_setup(args.workload, args.seed))
            readings.append(meter.read())
    inputs, own_setup = setup(args.workload, args.seed)
    setup_times.append(own_setup)
    if meter:
        readings.append(meter.read())

    tracer = None
    if args.trace:
        # imported after set-up, which would otherwise skip the modules it shares with divalg
        import spans

        tracer = spans.Tracer()
        tracer.install()
    min_rounds = 1 if args.trace else workloads.MIN_ROUNDS[args.workload]
    walls, scaled, problems = [], [], []
    attempted = failed = 0
    first = time.perf_counter()
    try:
        while True:
            clock = TaskClock(meter) if meter else None
            wall0 = time.perf_counter()
            docs, round_failed = workloads.run_round(inputs, clock)
            walls.append(time.perf_counter() - wall0)
            attempted += len(inputs.tasks)
            failed += round_failed
            problems += workloads.check(inputs, docs)
            note = ""
            if clock:
                scaled.append(clock.scaled())
                raw = sum(wall for wall, _ in clock.times)
                note = (f", {raw:.2f} s in tasks, {scaled[-1][0]:.2f} s scaled, gauge median "
                        f"{statistics.median(clock.readings) * 1e3:.2f} ms")
            print(f"perfbench: {args.workload} round {len(walls)}: {walls[-1]:.2f} s{note}, "
                  f"{round_failed} failed", file=sys.stderr)
            if len(walls) >= min_rounds and time.perf_counter() - first >= args.seconds:
                break
    finally:
        if tracer:
            tracer.restore()
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    if tracer:
        # one file per workload: a chart trace is tens of MB, so runs overwrite it
        tracer.write_jsonl(WORKDIR / f"trace-{args.workload}.jsonl")
        layer = spans.layer_metrics(tracer.spans)
        rounds = len(walls)
        metrics = {
            name: {"value": value if name.startswith("verify.pool.") else value / rounds,
                   "unit": spans.unit_of(name)}
            for name, value in layer.items()
        }
        # the traced round itself: minus an untraced run's wall_s, the tracing overhead
        metrics["traced.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) * scale(readings),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(w for w, _ in scaled), "unit": "s"},
            "cpu_s": {"value": statistics.median(c for _, c in scaled), "unit": "s"},
            "peak_rss_mib": {"value": rss_kib / 1024.0, "unit": "MiB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    main()
