import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import divalg.cli as cli
from divalg.verify import EQUALITY_TEST_FUNCTIONS, TaskSpec, run_task

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"
_spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)


def _two_small_tasks(preset, seed):
    """An SD MC_RATIO task whose cv bound no run meets, and a small
    MP_HERM MC_EQUALITY task."""
    return [
        TaskSpec(theorem_id="SD", beta=1, m=2, q=1, trials=10_000, seed=seed, cv_tol=1e-9),
        TaskSpec(theorem_id="MP_HERM", beta=1, m=2, q=1, engine="MC_EQUALITY",
                 trials=10_000, seed=seed),
    ]


def _sweep(tmp_path, name, jobs):
    out = tmp_path / name
    assert seed_sweep.main(["--seeds", "4:6", "--jobs", str(jobs), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_sweep_counts_runs_and_causes(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "preset_tasks", _two_small_tasks)
    doc = _sweep(tmp_path, "a.json", 1)
    assert capsys.readouterr().out == ""
    assert doc["seeds"] == [4, 5]
    assert [run["seed"] for run in doc["runs"]] == [4, 5]
    assert all(run["exit"] == 1 and run["n_failed"] >= 1 for run in doc["runs"])
    assert doc["exit_codes"] == {"1": 2}
    sd, mp_herm = doc["tasks"]
    assert sd["task"]["theorem_id"] == "SD" and "seed" not in sd["task"]
    assert (sd["pass"], sd["fail"], sd["inconclusive"]) == (0, 2, 0)
    assert sd["causes"] == {"cv": 2}
    cv = sd["cv_quantiles"]
    assert 0.0 < cv["0"] <= cv["50"] <= cv["100"]
    assert sd["z_rms"] is None and sd["rel_stderr_median"] > 0.0
    # the median of each run's largest record rel_stderr, as the engine gave it
    sd_runs = [run_task(_two_small_tasks("desk", seed)[0]) for seed in (4, 5)]
    largest = [max(rec["rel_stderr"] for rec in run.records[:-1]) for run in sd_runs]
    assert sd["rel_stderr_median"] == float(np.median(largest))
    assert mp_herm["pass"] + mp_herm["fail"] + mp_herm["inconclusive"] == 2
    assert mp_herm["cv_quantiles"] is None
    assert 0.0 < mp_herm["z_rms"] <= mp_herm["z_max"]
    assert doc["z"]["count"] == 2 * EQUALITY_TEST_FUNCTIONS
    assert doc["causes"]["cv"] == 2


def test_same_seeds_give_the_same_document(monkeypatch, tmp_path):
    """Apart from runtime_ms, whatever the Monte-Carlo threads."""
    monkeypatch.setattr(cli, "preset_tasks", _two_small_tasks)
    docs = [_sweep(tmp_path, f"{jobs}.json", jobs) for jobs in (1, 2)]
    for doc in docs:
        doc.pop("jobs")
    compare = importlib.util.spec_from_file_location(
        "compare_reports", SCRIPT.parent / "compare_reports.py")
    module = importlib.util.module_from_spec(compare)
    compare.loader.exec_module(module)
    assert module.compare(*docs) == []


@pytest.mark.parametrize("seeds", ["3", "5:5", "-1:2", "a:b"])
def test_bad_seed_range_is_a_usage_error(seeds):
    with pytest.raises(SystemExit) as exc:
        seed_sweep.main(["--seeds", seeds])
    assert exc.value.code == 2
