import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernels.py"
_spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
bench_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernels)


def test_one_shape_at_one_repeat(capsys):
    argv = ["--beta", "4", "--shape", "3,2,3", "--rows", "1", "64", "--repeats", "1"]
    assert bench_kernels.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["repeats"] == 1 and set(doc["machine"]) == {"nproc", "python", "numpy"}
    assert [(r["beta"], r["shape"], r["rows"]) for r in doc["results"]] == [
        (4, [3, 2, 3], 1), (4, [3, 2, 3], 64)
    ]
    assert all(r["us"] > 0.0 for r in doc["results"])


def test_bad_shape_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_kernels.main(["--shape", "3,2"])
    assert exc.value.code == 2
    assert "expected n,m,p" in capsys.readouterr().err


def test_chart_times_one_task_per_theorem_and_beta(capsys):
    assert bench_kernels.main(["--chart", "--beta", "1", "--repeats", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(r["theorem"], r["beta"], r["points"]) for r in doc["results"]] == [
        (name, 1, 20) for name in ("CHOL", "MP_HERM", "MP_RECT", "UHLIG_QR", "CONGRUENCE_NS")
    ]
    assert all(r["us_per_point"] > 0.0 for r in doc["results"])


def test_stiefel_times_every_desk_frame_shape(capsys):
    argv = ["--stiefel", "--beta", "2", "--rows", "1", "8", "--repeats", "1"]
    assert bench_kernels.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(r["beta"], r["n"], r["q"], r["rows"]) for r in doc["results"]] == [
        (2, n, q, rows) for n, q in bench_kernels.STIEFEL_SHAPES for rows in (1, 8)
    ]
    assert all(r["us"] > 0.0 for r in doc["results"])


def test_stiefel_and_chart_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_kernels.main(["--stiefel", "--chart"])
    assert exc.value.code == 2


def test_scoring_times_every_desk_shape(capsys):
    assert bench_kernels.main(["--scoring", "--repeats", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(r["f"], r["d"], r["rows"]) for r in doc["results"]] == [
        (f, d, 4096) for f, d in bench_kernels.SCORING_SHAPES
    ]
    assert all(r["us"] > 0.0 for r in doc["results"])


def test_scoring_and_stiefel_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_kernels.main(["--scoring", "--stiefel"])
    assert exc.value.code == 2


def test_completion_times_every_desk_chart(capsys):
    argv = ["--completion", "--beta", "1", "--rows", "1", "3", "--repeats", "1"]
    assert bench_kernels.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    charts = [(r["space"], tuple(r["sizes"])) for r in doc["results"] if r["rows"] == 1]
    # CHART inputs and outputs (mp-rect's (2, 3, 1)), MC_RATIO surfaces and regions
    assert {("rect", (2, 3, 1)), ("tri", (2, 2)), ("rect", (3, 2, 2)), ("psd", (3, 3))} <= set(charts)
    assert len(set(charts)) == len(charts)
    assert [(r["space"], tuple(r["sizes"]), r["rows"]) for r in doc["results"]] == [
        (space, sizes, rows) for space, sizes in charts for rows in (1, 3)
    ]
    assert all(r["beta"] == 1 for r in doc["results"])
    assert all(r[f] > 0.0 for r in doc["results"]
               for f in ("complete_us", "extract_us", "density_us"))
