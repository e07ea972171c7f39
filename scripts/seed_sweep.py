#!/usr/bin/env python3
"""Run `divalg verify-all` at a range of seeds and count how often each task
passes, fails or is inconclusive with the factors as they are.

    python3 scripts/seed_sweep.py --preset desk --seeds 0:24 --jobs 2 \\
        --out SWEEP.json [--src DIR]

--seeds START:STOP runs the seeds START .. STOP - 1, one after another, each
as one in-process `verify-all --preset P --seed S --jobs N` (--jobs sets its
Monte-Carlo threads).  The JSON document holds:

- `runs`: each seed's exit code (0 pass, 1 a task failed, 3 a task was
  inconclusive, 4 an internal error), failed and inconclusive counts and
  `runtime_ms`;
- `exit_codes`: how many runs gave each exit code;
- `causes`: how many task runs did not pass, by cause: `cv` (an MC_RATIO
  cv above its bound), `z` (an MC_EQUALITY z above its bound), `chart` (a
  CHART point), `demo`, `inconclusive`, `error` (a failure the engine
  raised) and `internal_error`;
- `z`: over every MC_EQUALITY z of the sweep, their count, root mean square
  and the shares above 2 and above 3;
- `tasks`: per task of the grid (its spec without the seed), the counts of
  pass, fail and inconclusive runs, the causes, the root mean square and
  largest z, the quantiles (0, 25, 50, 75, 100%) of cv, and the median over
  its conclusive runs of the largest `rel_stderr` of its records (the
  figure both Monte-Carlo engines report and their inconclusive check
  reads).

The same seeds give the same document apart from the `runtime_ms` keys, so
`scripts/compare_reports.py` compares two sweeps too.  divalg is imported
from --src, by default the `src/` of this checkout.  Exit 0 when the
document is written, 2 on a bad argument or an unwritable --out.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
QUANTILES = (0, 25, 50, 75, 100)


def parse_seeds(text: str) -> range:
    try:
        start, stop = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:STOP, got {text!r}") from None
    if not 0 <= start < stop:
        raise argparse.ArgumentTypeError(f"need 0 <= START < STOP, got {text!r}")
    return range(start, stop)


def run_seed(preset: str, seed: int, jobs: int) -> tuple[int, dict]:
    """(exit code, report) of one in-process `divalg verify-all` run."""
    from divalg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-all", "--preset", preset, "--seed", str(seed),
                         "--jobs", str(jobs)])
    return code, json.loads(out.getvalue())


def cause(item: dict) -> str | None:
    """Why one task run did not pass, or None when it passed."""
    if item["pass"]:
        return None
    for key in ("inconclusive", "error", "internal_error"):
        if key in item:
            return key
    return {"MC_RATIO": "cv", "MC_EQUALITY": "z"}.get(item["engine"], item["engine"].lower())


def worst_rel_stderr(records: list[dict]) -> float | None:
    """The largest `rel_stderr` of a Monte-Carlo run's records: the figure
    its engine's inconclusive check read."""
    rels = [rec["rel_stderr"] for rec in records if "rel_stderr" in rec]
    return max(rels) if rels else None


def _rms(values: list[float]) -> float | None:
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else None


def _count(values) -> dict[str, int]:
    return dict(sorted(Counter(map(str, values)).items()))


def _without_seed(task: dict) -> dict:
    return {k: v for k, v in task.items() if k != "seed"}


def summarize(preset: str, jobs: int, results: list[tuple[int, int, dict]]) -> dict:
    """The sweep document from (seed, exit code, report) per run."""
    per_task = list(zip(*(doc["tasks"] for _, _, doc in results), strict=True))
    runs = [{"seed": seed, "exit": code, "n_failed": doc["n_failed"],
             "n_inconclusive": doc["n_inconclusive"], "runtime_ms": doc["runtime_ms"]}
            for seed, code, doc in results]
    rows, all_z, all_causes = [], [], []
    for items in per_task:
        spec = _without_seed(items[0]["task"])
        if any(_without_seed(item["task"]) != spec for item in items):
            raise ValueError(f"the seeds ran different grids at task {spec}")
        causes = [c for c in map(cause, items) if c is not None]
        all_causes += causes
        records = [rec for item in items for rec in item.get("records", [])]
        z = [rec["z"] for rec in records if "z" in rec]
        all_z += z
        cv = [rec["cv"] for rec in records if "cv" in rec]
        rel = [r for r in (worst_rel_stderr(item.get("records", [])) for item in items)
               if r is not None]
        rows.append({
            "task": spec,
            "pass": sum(item["pass"] for item in items),
            "fail": len(causes) - causes.count("inconclusive"),
            "inconclusive": causes.count("inconclusive"),
            "causes": _count(causes),
            "z_rms": _rms(z),
            "z_max": max(z) if z else None,
            "cv_quantiles": (dict(zip(map(str, QUANTILES), np.percentile(cv, QUANTILES).tolist()))
                             if cv else None),
            "rel_stderr_median": float(np.median(rel)) if rel else None,
        })
    return {
        "preset": preset,
        "seeds": [seed for seed, _, _ in results],
        "jobs": jobs,
        "runs": runs,
        "exit_codes": _count(code for _, code, _ in results),
        "causes": _count(all_causes),
        "z": {
            "count": len(all_z),
            "rms": _rms(all_z),
            "share_above_2": sum(v > 2.0 for v in all_z) / len(all_z) if all_z else None,
            "share_above_3": sum(v > 3.0 for v in all_z) / len(all_z) if all_z else None,
        },
        "tasks": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=("desk", "full"), default="desk")
    parser.add_argument("--seeds", type=parse_seeds, default=range(0, 24))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    sys.path.insert(0, str(args.src))
    start = time.perf_counter()
    results = [(seed, *run_seed(args.preset, seed, args.jobs)) for seed in args.seeds]
    doc = summarize(args.preset, args.jobs, results)
    doc["runtime_ms"] = int((time.perf_counter() - start) * 1000)
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
