import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "task_seconds.py"
_spec = importlib.util.spec_from_file_location("task_seconds", SCRIPT)
task_seconds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(task_seconds)


def _task(theorem, engine, outcome):
    return {"task": {"theorem_id": theorem, "engine": engine, "beta": 1}, **outcome}


# three tasks: two CHART tasks of one theorem, one of which raised, and a
# Monte-Carlo task that took longer than both
REPORT = {
    "preset": "desk",
    "runtime_ms": 2000,
    "tasks": [
        _task("MP_HERM", "CHART", {"pass": True, "runtime_ms": 250}),
        _task("MP_HERM", "CHART", {"pass": False, "error": "chart Jacobian is singular"}),
        _task("UHLIG_SVD", "MC_EQUALITY", {"pass": True, "runtime_ms": 1500}),
    ],
}


def test_rows_sum_seconds_per_theorem_and_engine(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(REPORT))
    assert task_seconds.main([str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "rows": [
            {"theorem": "UHLIG_SVD", "engine": "MC_EQUALITY", "tasks": 1, "raised": 0,
             "seconds": 1.5},
            {"theorem": "MP_HERM", "engine": "CHART", "tasks": 2, "raised": 1,
             "seconds": 0.25},
        ],
        "total": {"tasks": 3, "raised": 1, "seconds": 1.75},
    }


@pytest.mark.parametrize("text", ["not json", json.dumps({"preset": "desk"}),
                                  json.dumps([1, 2]), json.dumps({"tasks": [{}]})])
def test_a_file_that_is_no_report_exits_two(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert task_seconds.main([str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_missing_file_exits_two(tmp_path, capsys):
    assert task_seconds.main([str(tmp_path / "missing.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read ")
