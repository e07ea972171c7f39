import importlib.util
from pathlib import Path

import pytest

from divalg.errors import ConfigurationError, InconclusiveStatisticsError

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "tabulate_constants.py"
_spec = importlib.util.spec_from_file_location("tabulate_constants", SCRIPT)
tabulate_constants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tabulate_constants)


@pytest.mark.parametrize("argv,message", [
    (["--beta", "8"], "octonion"),
    (["--beta", "1", "3"], "beta must be 1, 2 or 4"),
    (["--trials", "100"], "trials >= 10000"),
])
def test_bad_beta_or_trials_is_a_usage_error_before_the_header(capsys, argv, message):
    assert tabulate_constants.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_a_raising_task_fills_its_note_and_the_table_goes_on(capsys, monkeypatch):
    run_task = tabulate_constants.run_task

    def raising(task, jobs=1):
        if task.theorem_id == "CHOL_X":
            raise InconclusiveStatisticsError("relative stderr 24.7% exceeds 20%")
        if task.theorem_id == "QR" and task.n == 3:
            raise ConfigurationError("no valid pilot samples")
        return run_task(task, jobs)

    argv = ["--beta", "1", "--trials", "10000", "--seed", "3"]
    assert tabulate_constants.main(argv) == 0
    complete = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(tabulate_constants, "run_task", raising)
    assert tabulate_constants.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(complete) == 2 + len(tabulate_constants.CONFIGS)
    for row, before in zip(lines[2:], complete[2:]):
        if row.startswith("CHOL_X"):
            assert row.endswith("-  inconclusive: relative stderr 24.7% exceeds 20%")
        elif row.startswith("QR") and "n=3" in row:
            assert row.endswith("-  error: no valid pilot samples")
        else:
            assert row == before
