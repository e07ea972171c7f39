#!/usr/bin/env python3
"""Seconds per (theorem, engine) of a ``divalg verify-all`` JSON report.

    python3 scripts/task_seconds.py REPORT.json

Print one JSON document: ``rows``, one per (theorem, engine) with its task
count, the tasks that raised and its seconds (the sum of the tasks'
``runtime_ms`` / 1000), sorted by seconds, descending; then ``total``, the
same counts over every task.  A task that raised has no ``runtime_ms``: it
counts as 0 s and under ``raised``.  Exit 2 with one ``error:`` line when
the file cannot be read or holds no ``tasks`` list.
"""
from __future__ import annotations

import json
import sys


def _seconds(counts: dict) -> dict:
    out = dict(counts)
    out["seconds"] = out.pop("ms") / 1000
    return out


def task_seconds(doc: dict) -> dict:
    """The rows and total of a verify-all document's tasks."""
    rows: dict[tuple[str, str], dict] = {}
    for task in doc["tasks"]:
        theorem, engine = task["task"]["theorem_id"], task["task"]["engine"]
        row = rows.setdefault((theorem, engine), {
            "theorem": theorem, "engine": engine, "tasks": 0, "raised": 0, "ms": 0,
        })
        row["tasks"] += 1
        row["raised"] += "runtime_ms" not in task
        row["ms"] += task.get("runtime_ms", 0)
    ordered = sorted(rows.values(), key=lambda r: (-r["ms"], r["theorem"], r["engine"]))
    total = {key: sum(r[key] for r in ordered) for key in ("tasks", "raised", "ms")}
    return {"rows": [_seconds(r) for r in ordered], "total": _seconds(total)}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: task_seconds.py REPORT.json", file=sys.stderr)
        return 2
    try:
        with open(argv[0]) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {argv[0]}: {exc}", file=sys.stderr)
        return 2
    try:
        result = task_seconds(doc)
    except (KeyError, TypeError):
        print(f"error: {argv[0]} is not a verify-all report with a tasks list",
              file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
