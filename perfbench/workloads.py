"""Workload definitions: inputs, one round of operations, and output checks.

An operation is one verification task.  A task that raises, is inconclusive
or reports `pass: false` counts as failed.  Every task runs at the program
seed `PROGRAM_SEED`: the Monte-Carlo verdicts are 3-sigma tests, so drawing
the program seed from the benchmark seed would make failures depend on the
seed.  The benchmark seed shuffles the task order of `chart` and
`mc-quaternion`; `desk` runs verify-all's own order.
"""
from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
import traceback

PROGRAM_SEED = 42
WORKLOADS = ("desk", "chart", "mc-quaternion")
JOBS = {"desk": 1, "chart": 1, "mc-quaternion": 2}
# Rounds an untraced run makes at least.  A chart round follows the host's
# speed less closely than the others (README, "Reference figures"), so its
# runs take the median of two.
MIN_ROUNDS = {"desk": 1, "chart": 2, "mc-quaternion": 1}

DESK_TASKS = 69
CHART_POINTS = 20  # the `full` preset's points per CHART task
SD_CONSTANT = 2.0 * math.sqrt(2.0)  # ratio constant of SD at beta=1, m=2, q=1
CONTROL_Z = 3.0
B_DIAG_12 = {"beta": 1, "rows": 2, "cols": 2, "entries": [[[1.0], [0.0]], [[0.0], [2.0]]]}


@dataclasses.dataclass
class Inputs:
    workload: str
    tasks: list  # TaskSpec list; for desk, the verify-all grid it will run
    argv: list[str] | None = None  # desk only: the verify-all command line
    out_path: str | None = None


def build_inputs(workload: str, seed: int, workdir) -> Inputs:
    """Everything a round needs before its first task: imports, files, task list."""
    from divalg import cli, verify

    if workload == "desk":
        out = str(workdir / "desk-report.json")
        argv = ["verify-all", "--preset", "desk", "--seed", str(PROGRAM_SEED),
                "--jobs", str(JOBS["desk"]), "--out", out]
        return Inputs(workload, cli.preset_tasks("desk", PROGRAM_SEED), argv, out)
    if workload == "chart":
        b_path = workdir / "b_diag_1_2.json"
        b_path.write_text(json.dumps(B_DIAG_12) + "\n")
        tasks = [t for t in cli.preset_tasks("full", PROGRAM_SEED) if t.engine == "CHART"]
        tasks.append(verify.TaskSpec(
            theorem_id="CONGRUENCE_NS", beta=1, m=2, b_source=str(b_path),
            points=CHART_POINTS, seed=PROGRAM_SEED,
        ))
        tasks.append(verify.TaskSpec(
            theorem_id="UHLIG_SVD", beta=1, m=2, n=1, engine="DEMO",
            b_source="demo", seed=PROGRAM_SEED,
        ))
    elif workload == "mc-quaternion":
        tasks = [dataclasses.replace(t, beta=4)
                 for t in cli.preset_tasks("desk", PROGRAM_SEED) if _mc_kept(t)]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    random.Random(seed).shuffle(tasks)
    return Inputs(workload, tasks)


def _mc_kept(task) -> bool:
    """The desk grid's beta=2 Monte-Carlo tasks that run at beta=4 here.

    Left out: CHOL_X (at 50 000 trials its Hausdorff side has ~13% relative
    stderr and the cv check fails at program seeds 42, 1 and 3; it passes at
    800 000), and
    the UHLIG tasks other than UHLIG_SVD (2, 1) with random B and the
    UHLIG_MP (2, 1) identity-B control, which would double the run."""
    if task.beta != 2 or task.engine not in ("MC_EQUALITY", "MC_RATIO"):
        return False
    if task.theorem_id == "CHOL_X":
        return False
    if task.theorem_id == "UHLIG_SVD":
        return (task.m, task.n, task.b_source) == (2, 1, "random")
    if task.theorem_id == "UHLIG_MP":
        return (task.m, task.n, task.b_source) == (2, 1, "identity")
    return True


# ---------------------------------------------------------------------------
# running one round


def _strict_loads(text: str):
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def run_round(inputs: Inputs, clock=None) -> tuple[list[dict], int]:
    """Runs every task once; returns (task documents, failed count).

    Each document is the task's report as parsed back from the program's
    JSON, or {"task": ..., "pass": False, ...} for a task that raised.  With
    a `gauge.TaskClock`, every task call goes through it, desk's too: its
    `run_task` binding in `divalg.cli` is wrapped for the round."""
    from divalg import cli, verify

    if inputs.workload == "desk":
        original = cli.run_task
        if clock:
            cli.run_task = clock.wrap(original)
        try:
            code = cli.main(inputs.argv)
        finally:
            cli.run_task = original
        with open(inputs.out_path) as fh:
            doc = _strict_loads(fh.read())
        docs = doc["tasks"]
        failed = sum(not d["pass"] for d in docs)
        if (code == 0) != (failed == 0):
            raise RuntimeError(f"verify-all exit {code} disagrees with {failed} failed tasks")
        return docs, failed
    run_task = clock.wrap(verify.run_task) if clock else verify.run_task
    docs, failed = [], 0
    for task in inputs.tasks:
        try:
            report = run_task(task, jobs=JOBS[inputs.workload])
        except Exception as exc:  # noqa: BLE001 -- a task that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            docs.append({"task": task.to_dict(), "error": repr(exc), "pass": False})
            failed += 1
            continue
        docs.append(_strict_loads(report.to_json()))
        failed += not report.passed
    return docs, failed


# ---------------------------------------------------------------------------
# checks made apart from the program's own verdicts


def check(inputs: Inputs, docs: list[dict]) -> list[str]:
    """Problems found in one round's documents; empty when all hold.

    Failed tasks are counted by the caller; these checks cover the tasks
    that passed, and that every checked task is part of the workload."""
    problems = []
    if len(docs) != len(inputs.tasks):
        problems.append(f"{len(docs)} task documents for {len(inputs.tasks)} tasks")
    if inputs.workload == "desk" and len(docs) != DESK_TASKS:
        problems.append(f"desk ran {len(docs)} tasks, expected {DESK_TASKS}")
    seen_sd = seen_b12 = seen_demo = False
    for doc in docs:
        task = doc["task"]
        is_sd = (task["theorem_id"], task["beta"], task["m"], task["q"]) == ("SD", 1, 2, 1)
        is_b12 = task["b_source"].endswith("b_diag_1_2.json")
        seen_sd |= is_sd
        seen_b12 |= is_b12
        seen_demo |= task["engine"] == "DEMO"
        if not doc["pass"]:
            continue
        records = doc["records"]
        where = f"{task['theorem_id']}/{task['engine']}/beta={task['beta']}"
        if task["engine"] == "CHART":
            for r in records:
                bound = max(task["rtol"] * abs(r["analytic_log"]), 1e-7)
                if not abs(r["numeric_log"] - r["analytic_log"]) <= bound:
                    problems.append(f"{where} point {r['point']}: |numeric - analytic| > {bound:g}")
            if is_b12:
                for r in records:
                    if not (abs(r["analytic_log"] - math.log(8.0)) <= 1e-12
                            and abs(math.exp(r["numeric_log"]) - 8.0) <= 8.0 * 1e-4):
                        problems.append(f"{where} diag(1,2) point {r['point']}: determinant is not 8")
        elif task["engine"] == "DEMO":
            r = records[0]
            got = (r["chart_det"], r["uhlig_qr_factor"], r["uhlig_svd_factor"])
            if not all(abs(g - e) <= 1e-4 * e for g, e in zip(got, (1.0, 1.0, 2.0))):
                problems.append(f"demo reports {got}, expected (1, 1, 2)")
        elif task["engine"] == "MC_EQUALITY" and task["b_source"] == "identity":
            for r in records:
                if not r["z"] <= CONTROL_Z:
                    problems.append(f"{where} identity-B control: z = {r['z']:.3f} > {CONTROL_Z}")
        if is_sd:
            c = doc["constant_estimate"]
            if not abs(c - SD_CONSTANT) <= 0.02 * SD_CONSTANT:
                problems.append(f"SD beta=1 m=2 q=1 ratio constant {c:.5f} not within 2% of 2*sqrt(2)")
    expected = {"desk": (True, False, True), "chart": (False, True, True),
                "mc-quaternion": (False, False, False)}[inputs.workload]
    for name, want, got in zip(("SD constant", "diag(1,2) determinant", "demo"),
                               expected, (seen_sd, seen_b12, seen_demo)):
        if want and not got:
            problems.append(f"{name} check: its task is missing from the workload")
    return problems
