#!/usr/bin/env python3
"""Compare two ``divalg verify-all`` JSON reports.

    python3 scripts/compare_reports.py A.json B.json

Exit 0 when the documents are identical apart from their ``runtime_ms``
keys.  Otherwise print the tasks whose verdicts changed, every non-numeric
field that differs, and the largest relative difference per numeric field
(keyed by field name), then exit 1.  Exit 2 when a file cannot be read.
"""
from __future__ import annotations

import json
import sys


def _strip_runtime(node):
    if isinstance(node, dict):
        return {k: _strip_runtime(v) for k, v in node.items() if k != "runtime_ms"}
    if isinstance(node, list):
        return [_strip_runtime(v) for v in node]
    return node


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(a, b, path: str, field: str, other: list[str], rel: dict[str, float]) -> None:
    """Collect differing non-numeric leaves in `other` and the largest
    relative difference of each numeric field in `rel`."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                other.append(f"{path}.{key}: only in {'B' if key not in a else 'A'}")
            else:
                _walk(a[key], b[key], f"{path}.{key}", key, other, rel)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{path}: {len(a)} items in A, {len(b)} in B")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", field, other, rel)
    elif _is_number(a) and _is_number(b):
        scale = max(abs(a), abs(b))
        diff = abs(a - b) / scale if scale else 0.0
        rel[field] = max(rel.get(field, 0.0), diff)
    elif a != b:
        other.append(f"{path}: {a!r} -> {b!r}")


def _label(task: dict) -> str:
    spec = task.get("task", {})
    sizes = " ".join(f"{k}={spec.get(k)}" for k in ("beta", "m", "n", "q", "b_source"))
    return f"{spec.get('theorem_id')}/{spec.get('engine')} {sizes}"


def compare(a: dict, b: dict) -> list[str]:
    """Report lines for two documents; empty when they match apart from runtime_ms."""
    a, b = _strip_runtime(a), _strip_runtime(b)
    if a == b:
        return []
    lines = []
    for ta, tb in zip(a.get("tasks", []), b.get("tasks", [])):
        if ta.get("pass") != tb.get("pass"):
            lines.append(f"verdict changed: {_label(ta)}: {ta.get('pass')} -> {tb.get('pass')}")
    other: list[str] = []
    rel: dict[str, float] = {}
    _walk(a, b, "", "", other, rel)
    lines += [f"differs: {line}" for line in other]
    for field, diff in sorted(rel.items(), key=lambda item: -item[1]):
        if diff:
            lines.append(f"largest relative difference: {field} {diff:.3g}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_reports.py A.json B.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        try:
            with open(path) as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    lines = compare(*docs)
    if not lines:
        print("identical apart from runtime_ms")
        return 0
    print("\n".join(lines))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
