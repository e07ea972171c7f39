import importlib.util
import json
import sys
from pathlib import Path

import divalg

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workload_reports = _load("workload_reports")
compare_reports = _load("compare_reports")
SRC = Path(divalg.__file__).resolve().parent.parent


def test_two_runs_of_the_chart_set_compare_identical(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "path", sys.path[:])
    monkeypatch.setattr(workload_reports, "SETS", ("chart",))
    monkeypatch.setattr(workload_reports, "WORKDIR", tmp_path / "work")
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert workload_reports.main(["--src", str(SRC), "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    assert capsys.readouterr().out == ""
    tasks = docs[0]["tasks"]
    chart = workload_reports.workloads.build_inputs(
        "chart", workload_reports.BENCH_SEED, tmp_path / "work")
    assert len(tasks) == len(chart.tasks)
    assert {t["set"] for t in tasks} == {"chart"}
    assert all(t["pass"] for t in tasks)
    assert {t["task"]["engine"] for t in tasks} == {"CHART", "DEMO"}
    assert compare_reports.compare(*docs) == []


def test_a_src_without_divalg_exits_two(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert workload_reports.main(["--src", str(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no divalg package under {tmp_path}\n"
    assert not out.exists()
