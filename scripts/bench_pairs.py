#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and summarise them.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --pairs 10 --out BENCH_6.json

--parent and --change are git tree-ishes: a commit, or the tree of the
staged index (`git write-tree`).  Each is exported with `git archive` into
its own directory under --workdir, so both sides run their committed files
and the working tree is never touched.  For every workload of the
change's BENCHMARK.json, pair i (from 0) runs `perfbench/run.py --trace 0`
for both sides at benchmark seed i + 1, each in its own process, the parent
first when i is even and the change first when i is odd.  The run length
(`run_seconds`), the end-to-end metrics and their direction come from the
same file.

The output JSON holds the machine (nproc, Python, numpy), the seeds, every
run's result and, per workload and metric, each side's median and quartiles,
the number of pairs the change won (ties count for neither side), its
relative change against the parent's median and the benchmark's bound.
A gain holds when the change wins at least nine pairs in ten and the
medians differ by more than the parent's interquartile range.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Write the files of tree-ish rev into dest; returns its resolved id."""
    ident = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{tree}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "-C", str(REPO), "archive", ident], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {rev} failed")
    return ident


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"bench_pairs: {workload} at {checkout} exited {proc.returncode}: "
            f"{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: list[dict], metric: dict) -> dict:
    """Medians, quartiles, wins and the claim rule for one workload and metric."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [r["parent"]["metrics"][name]["value"] for r in runs]
    change = [r["change"]["metrics"][name]["value"] for r in runs]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    gain = (pm - cm) if lower else (cm - pm)
    worse = -gain / pm
    return {
        "unit": runs[0]["parent"]["metrics"][name]["unit"],
        "better": metric["better"],
        "parent": {"median": pm, "q1": p1, "q3": p3, "iqr": p3 - p1, "runs": parent},
        "change": {"median": cm, "q1": c1, "q3": c3, "iqr": c3 - c1, "runs": change},
        "change_wins": wins,
        "parent_wins": losses,
        "relative_change": (cm - pm) / pm,
        "bound": metric["bound"],
        "within_bound": worse <= metric["bound"],
        "gain_holds": wins >= 0.9 * len(runs) and gain > p3 - p1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git tree-ish of the parent")
    parser.add_argument("--change", required=True, help="git tree-ish of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workdir", type=Path, default=REPO / ".bench_build" / "pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    sides = {}
    for side in ("parent", "change"):
        dest = args.workdir.resolve() / side
        sides[side] = (export(getattr(args, side), dest), dest)
    bench = json.loads((sides["change"][1] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.pairs + 1))

    import numpy

    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "parent_tree": sides["parent"][0],
        "change_tree": sides["change"][0],
        "run_seconds": seconds,
        "seeds": seeds,
        "order": "pair i runs the parent first when i is even, the change first when odd",
        "workloads": {},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side][1], workload, seed, seconds)
                print(f"bench_pairs: {workload} pair {i} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
            runs.append(pair)
        doc["workloads"][workload] = {
            "failed": {side: [r[side]["failed"] for r in runs] for side in sides},
            "correct": {side: [r[side]["correct"] for r in runs] for side in sides},
            "metrics": {m["name"]: summarise(runs, m) for m in bench["end_to_end"]},
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
