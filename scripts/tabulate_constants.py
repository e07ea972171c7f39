#!/usr/bin/env python3
"""Tabulate the surface-measure to factorized-measure ratio constants.

For each decomposition the ratio of a Hausdorff-measure integral to the
matching factorized integral is a test-function-independent constant.  The
verification engine only asserts constancy; this script prints the constants
themselves so they can be compared against closed-form evaluations where one
has been derived (the rank-1 spectral case on 2x2 real matrices equals
2*sqrt(2)).

A task that raises a divalg error gives a row with no constant and the
error in its note column, labelled with the record key `divalg verify-all`
gives it (`inconclusive: ...` for statistics too weak to conclude, else
`error: ...`), and the table goes on.  A --beta, --trials, --seed or --jobs
that no task accepts exits 2 with one `error:` line before the header.
Exit 1 when some row has no constant, else 0.
"""
import argparse
import math
import sys

from divalg.cli import task_outcome
from divalg.errors import DivalgError
from divalg.verify import TaskSpec, run_task

CONFIGS = [
    ("SD", dict(m=2, q=1)),
    ("SD", dict(m=3, q=1)),
    ("SD", dict(m=3, q=2)),
    ("SVD", dict(n=2, m=2, q=1)),
    ("SVD", dict(n=3, m=2, q=1)),
    ("QR", dict(n=2, m=2, q=2)),
    ("QR", dict(n=3, m=2, q=2)),
    ("CHOL_X", dict(n=3, m=2, q=2)),
]

SD_RANK1_2X2_REAL = 2.0 * math.sqrt(2.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        rows = [
            (theorem, beta, sizes, TaskSpec(
                theorem_id=theorem, beta=beta, trials=args.trials, seed=args.seed, **sizes,
            ))
            for beta in args.beta for theorem, sizes in CONFIGS
        ]
    except DivalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = f"{'task':8s} {'beta':>4s} {'sizes':16s} {'constant':>12s} {'cv':>8s}  note"
    print(header)
    print("-" * len(header))
    missing = 0
    for theorem, beta, sizes, task in rows:
        size_str = ",".join(f"{k}={v}" for k, v in sizes.items())
        try:
            rep = run_task(task, jobs=args.jobs)
        except DivalgError as exc:
            missing += 1
            label, _, _, message = task_outcome(exc)
            print(f"{theorem:8s} {beta:4d} {size_str:16s} {'-':>12s} {'-':>8s}  "
                  f"{label}: {message}")
            continue
        note = ""
        if theorem == "SD" and beta == 1 and sizes == dict(m=2, q=1):
            note = f"closed form {SD_RANK1_2X2_REAL:.6f}"
        print(
            f"{theorem:8s} {beta:4d} {size_str:16s} "
            f"{rep.constant_estimate:12.6f} {rep.records[-1]['cv']:8.4f}  {note}"
        )
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
