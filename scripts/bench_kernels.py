#!/usr/bin/env python3
"""Time the algebra product linalg.mul_raw, the Stiefel sampler or the
Monte-Carlo scoring step, in microseconds per call, or one CHART point, in
microseconds per point.

    python3 scripts/bench_kernels.py [--beta 1 2 4] [--shape 3,2,3 ...]
        [--rows 1 64 256 512 1024 4096] [--repeats 7] [--src DIR]
    python3 scripts/bench_kernels.py --stiefel [--beta 1 2 4] [--rows 1 4096]
    python3 scripts/bench_kernels.py --chart [--beta 1 2 4] [--repeats 7]
    python3 scripts/bench_kernels.py --scoring [--repeats 7]

For every beta, product shape n,m,p ((n, m) times (m, p)) and batch size,
mul_raw multiplies two seeded standard normal batches of that many rows;
rows 1 is a single matrix with no batch axis.  Each repeat times
max(1, 256 // rows) calls.  With --stiefel, every frame shape (n, q) the
`desk` preset draws is timed as one charts.sample_stiefel_batch(n, q, kind,
(rng,), rows) call, by default at rows 1 and 4096, in the same way.  With
--chart, every theorem the CHART engine checks runs one task per beta, the
`full` preset's first at that theorem and beta, at CHART_POINTS points and
seed 42; each repeat times one run_task call and divides by the points.
With --scoring, every (test functions F, coordinates D) pair the `desk`
preset scores is timed as one verify._mc_estimate call on one block of
BLOCK_SIZE rows (4096) of a side that returns the same seeded draws every
time: the block's test-function scoring plus its fixed per-block costs (its
generator, the weights and the statistics), with no sampling.  Each repeat
times SCORING_CALLS calls.
The minimum over the repeats is printed, as one JSON document on stdout,
with the machine it ran on.
divalg is imported from --src, by default the `src/` of this checkout;
pointing it at another checkout times that one instead (--stiefel needs
one whose sample_stiefel_batch takes a sequence of generators; time an
older checkout with its own copy of this script).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
# the engines' hot shapes (n, m, p): outer products, inner products, scalings
HOT_SHAPES = ((3, 2, 3), (2, 3, 2), (3, 3, 2), (2, 1, 2), (2, 2, 1), (1, 3, 1), (3, 1, 1))
CHART_POINTS = 20  # the `full` preset's points per CHART task
# the frame shapes (n, q) the `desk` preset's samplers draw
STIEFEL_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2))
# the (F, D) pairs the `desk` preset's Monte-Carlo blocks score
SCORING_SHAPES = ((3, 4), (3, 6), (3, 8), (3, 9), (3, 12), (3, 18),
                  (5, 4), (5, 6), (5, 8), (5, 12))
SCORING_CALLS = 16


def _shape(text: str) -> tuple[int, int, int]:
    dims = tuple(int(v) for v in text.split(","))
    if len(dims) != 3 or min(dims) < 1:
        raise argparse.ArgumentTypeError(f"expected n,m,p with positive sizes, got {text!r}")
    return dims


def _best_us(call, number: int, repeats: int) -> float:
    """Minimum over the repeats of the microseconds per call(), each repeat
    timing number calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e6


def time_call(mul_raw, beta: int, shape: tuple[int, int, int], rows: int, repeats: int) -> float:
    """Minimum over the repeats of the microseconds per mul_raw call."""
    n, m, p = shape
    lead = () if rows == 1 else (rows,)
    rng = np.random.default_rng(rows * 100 + beta)
    a = rng.normal(size=lead + (n, m, beta))
    b = rng.normal(size=lead + (m, p, beta))
    return _best_us(lambda: mul_raw(a, b, beta), max(1, 256 // rows), repeats)


def stiefel_results(betas: list[int], rows: list[int], repeats: int) -> list[dict]:
    """Microseconds per sample_stiefel_batch call, per beta, desk frame shape
    and row count."""
    from divalg.algebra import AlgebraKind
    from divalg.charts import sample_stiefel_batch

    results = []
    for beta in betas:
        kind = AlgebraKind.from_beta(beta)
        for n, q in STIEFEL_SHAPES:
            for count in rows:
                rng = np.random.default_rng(count * 100 + beta)
                us = _best_us(lambda: sample_stiefel_batch(n, q, kind, (rng,), count),
                              max(1, 256 // count), repeats)
                results.append({"beta": beta, "n": n, "q": q, "rows": count, "us": round(us, 2)})
    return results


def scoring_results(repeats: int) -> list[dict]:
    """Microseconds per one-block verify._mc_estimate call on fixed draws,
    per desk (F, D) pair."""
    from divalg import verify

    rows = verify.BLOCK_SIZE
    results = []
    for f, d in SCORING_SHAPES:
        rng = np.random.default_rng(f * 100 + d)
        data, logw = rng.normal(size=(rows, d)), rng.normal(size=rows)
        fns = verify.make_test_functions(0, f, data[:64])
        side = lambda _rng, _count, data=data, logw=logw: (data, logw)
        us = _best_us(lambda: verify._mc_estimate(side, 0.0, fns, rows, 0, 0, 0, 1),
                      SCORING_CALLS, repeats)
        results.append({"f": f, "d": d, "rows": rows, "us": round(us, 1)})
    return results


def time_chart(task, repeats: int) -> float:
    """Minimum over the repeats of the microseconds per point of run_task."""
    from divalg.verify import run_task

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_task(task)
        best = min(best, time.perf_counter() - start)
    return best / task.points * 1e6


def chart_results(betas: list[int], repeats: int) -> list[dict]:
    """One timing per CHART theorem and beta, in theorem-table order."""
    import dataclasses

    from divalg.cli import preset_tasks
    from divalg.verify import THEOREMS

    tasks = {}
    for task in preset_tasks("full", 42):
        if task.engine == "CHART" and task.beta in betas:
            tasks.setdefault((task.theorem_id, task.beta), task)
    return [
        {"theorem": name, "beta": beta, "m": task.m, "n": task.n, "q": task.q,
         "points": CHART_POINTS,
         "us_per_point": round(time_chart(
             dataclasses.replace(task, points=CHART_POINTS), repeats), 1)}
        for name in THEOREMS for beta in betas
        if (task := tasks.get((name, beta))) is not None
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--beta", type=int, nargs="+", choices=(1, 2, 4), default=[1, 2, 4])
    parser.add_argument("--shape", type=_shape, nargs="+", default=list(HOT_SHAPES))
    parser.add_argument("--rows", type=int, nargs="+", default=None,
                        help="batch rows (default 1 64 256 512 1024 4096; 1 4096 with --stiefel)")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--src", type=Path, default=SRC)
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--chart", action="store_true",
                      help="time one CHART point per theorem and beta instead")
    what.add_argument("--stiefel", action="store_true",
                      help="time the Stiefel sampler per desk frame shape instead")
    what.add_argument("--scoring", action="store_true",
                      help="time one Monte-Carlo block's scoring per desk (F, D) pair instead")
    args = parser.parse_args(argv)
    if args.rows is None:
        args.rows = [1, 4096] if args.stiefel else [1, 64, 256, 512, 1024, 4096]
    if args.repeats < 1 or min(args.rows) < 1:
        parser.error("--repeats and --rows must be positive")
    sys.path.insert(0, str(args.src))
    from divalg.linalg import mul_raw

    if args.chart:
        results = chart_results(args.beta, args.repeats)
    elif args.stiefel:
        results = stiefel_results(args.beta, args.rows, args.repeats)
    elif args.scoring:
        results = scoring_results(args.repeats)
    else:
        results = [
            {"beta": beta, "shape": list(shape), "rows": rows,
             "us": round(time_call(mul_raw, beta, shape, rows, args.repeats), 2)}
            for beta in args.beta for shape in args.shape for rows in args.rows
        ]
    doc = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "repeats": args.repeats,
        "results": results,
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
