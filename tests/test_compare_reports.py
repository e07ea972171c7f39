import copy
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

DOC = {
    "preset": "desk",
    "seed": 42,
    "pass": True,
    "runtime_ms": 1200,
    "tasks": [
        {
            "task": {"theorem_id": "MP_HERM", "engine": "CHART", "beta": 1, "m": 2,
                     "n": 0, "q": 1, "b_source": "random"},
            "records": [{"point": 0, "analytic_log": -1.5, "numeric_log": -1.5000001,
                         "pass": True}],
            "pass": True,
            "runtime_ms": 40,
        },
        {
            "task": {"theorem_id": "SD", "engine": "MC_RATIO", "beta": 1, "m": 2,
                     "n": 0, "q": 1, "b_source": "random"},
            "records": [{"summary": True, "cv": 0.01, "constant": 2.83, "pass": True}],
            "pass": True,
            "runtime_ms": 900,
        },
    ],
}


def _run(tmp_path, capsys, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2))
        paths.append(str(path))
    code = compare_reports.main(paths)
    return code, capsys.readouterr().out


def test_identical_apart_from_runtime(tmp_path, capsys):
    other = copy.deepcopy(DOC)
    other["runtime_ms"] = 7
    other["tasks"][1]["runtime_ms"] = 3
    code, out = _run(tmp_path, capsys, DOC, other)
    assert code == 0
    assert out == "identical apart from runtime_ms\n"


def test_reports_verdicts_fields_and_relative_differences(tmp_path, capsys):
    other = copy.deepcopy(DOC)
    other["tasks"][0]["records"][0]["numeric_log"] = -1.5000004
    other["tasks"][1]["records"][0]["cv"] = 0.03
    other["tasks"][1]["records"][0]["pass"] = False
    other["tasks"][1]["pass"] = False
    other["preset"] = "full"
    code, out = _run(tmp_path, capsys, DOC, other)
    assert code == 1
    lines = out.splitlines()
    assert "verdict changed: SD/MC_RATIO beta=1 m=2 n=0 q=1 b_source=random: True -> False" in lines
    assert "differs: .preset: 'desk' -> 'full'" in lines
    assert "differs: .tasks[1].pass: True -> False" in lines
    rel = [line for line in lines if line.startswith("largest relative difference")]
    assert rel == [
        "largest relative difference: cv 0.667",
        "largest relative difference: numeric_log 2e-07",
    ]


def test_unreadable_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert compare_reports.main([str(bad), str(bad)]) == 2
    assert compare_reports.main([str(tmp_path / "missing.json"), str(bad)]) == 2
