#!/usr/bin/env python3
"""Write the reports of every task the benchmark and `verify-all` run as
one JSON document, to compare two trees report by report.

    python3 scripts/workload_reports.py --out REPORTS.json [--src DIR]

The task sets, in SETS order:

- `desk-jobs1`, `desk-jobs2`: `verify-all --preset desk` at `--jobs 1` and 2;
- `full-jobs2`: `verify-all --preset full` at `--jobs 2`;
- `chart`, `mc-quaternion`: the task lists of perfbench/workloads.py, in
  the order its benchmark seed BENCH_SEED gives, run as its rounds run them.

Every task runs at workloads.PROGRAM_SEED.  The document's `tasks` list
holds every report (or the record of a task that raised), each tagged with
its set under `set`, so

    python3 scripts/compare_reports.py A.json B.json

exits 0 when two trees give the same reports apart from `runtime_ms`, and
lists every verdict that changed.  divalg is imported from --src, by default
the `src/` of this checkout.  perfbench/workloads.py is always this
checkout's, and the chart set's B file is written under this checkout's
`.bench_build/reports/`, so both trees see the same task specs.  Exit 0 when
the document is written, 2 when --src holds no divalg or --out cannot be
written.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "reports"
SETS = ("desk-jobs1", "desk-jobs2", "full-jobs2", "chart", "mc-quaternion")
BENCH_SEED = 1

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def set_reports(name: str) -> list[dict]:
    """The report documents of one task set, in its run order."""
    preset, _, jobs = name.partition("-jobs")
    if not jobs:
        WORKDIR.mkdir(parents=True, exist_ok=True)
        docs, _ = workloads.run_round(workloads.build_inputs(name, BENCH_SEED, WORKDIR))
        return docs
    from divalg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify-all", "--preset", preset, "--seed", str(workloads.PROGRAM_SEED),
                  "--jobs", jobs])
    return json.loads(out.getvalue())["tasks"]


def _import_divalg(src: Path) -> str | None:
    """Import divalg from src; the reason it cannot be, or None."""
    if not (src / "divalg" / "__init__.py").is_file():
        return f"no divalg package under {src}"
    sys.path.insert(0, str(src))
    import divalg

    home = Path(divalg.__file__).resolve().parent
    if home != (src / "divalg").resolve():
        return f"divalg is already imported from {home}, not from {src}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output path")
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args(argv)
    problem = _import_divalg(args.src)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    tasks = [{**doc, "set": name} for name in SETS for doc in set_reports(name)]
    doc = {"program_seed": workloads.PROGRAM_SEED, "bench_seed": BENCH_SEED,
           "sets": list(SETS), "tasks": tasks}
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
