import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from divalg.cli import FACTOR_KINDS, TASK_NAMES, build_parser, main, preset_tasks
from divalg.errors import ConfigurationError, InconclusiveStatisticsError, RankError
from divalg.algebra import REAL, AlgebraKind
from divalg.linalg import Mat, conj_transpose, load_matrix, save_matrix
from divalg.verify import STEP_RANGE, THEOREMS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON token {token}")


def value_of(out: str) -> float:
    match = re.search(r"^value: (\S+)$", out, re.MULTILINE)
    assert match, out
    return float(match.group(1))


# verify probes whose box leaves the unit of [1, 2]
BOX_PROBES = [
    "--task sd --beta 1 --m 2 --q 1 --trials 10000 --lambda-lo 1e150 --lambda-hi 1e151",
    "--task w --beta 1 --n 3 --m 2 --q 1 --trials 10000 --lambda-lo 1e200 --lambda-hi 1e201",
    "--task sd --beta 1 --m 2 --q 1 --trials 10000 --lambda-lo 3e-308 --lambda-hi 6e-308",
    "--task mp-herm --engine mc-equality --beta 1 --m 2 --q 1 --trials 10000 "
    "--lambda-lo 1e-300 --lambda-hi 2e-300",
    "--task sd --beta 1 --m 2 --q 1 --trials 10000 --lambda-lo 1 --lambda-hi 1e300",
    "--task qr --beta 1 --n 2 --m 2 --q 2 --trials 10000 --lambda-lo 1e-200 --lambda-hi 2e-200",
    "--task qr --beta 1 --n 2 --m 2 --q 2 --trials 10000 --lambda-lo 1e200 --lambda-hi 2e200",
    "--task mp-herm --engine mc-equality --beta 1 --m 2 --q 1 --trials 10000 "
    "--lambda-lo 1e90 --lambda-hi 2e90",
    "--task uhlig-mp --beta 1 --m 2 --n 1 --trials 10000 --lambda-lo 1e90 --lambda-hi 2e90",
    *(f"--task mp-herm --beta {beta} --m 3 --q 2 --points 4 --lambda-lo {lo} --lambda-hi {hi}"
      for lo, hi in (("1e200", "2e200"), ("1e-200", "2e-200")) for beta in (1, 2, 4)),
    "--task mp-herm --beta 1 --m 3 --q 2 --points 8 --lambda-lo 1e-3 --lambda-hi 2e-3",
    "--task uhlig-qr --beta 1 --m 3 --n 2 --points 8 --lambda-lo 1e-3 --lambda-hi 2e-3",
    "--task mp-herm --beta 1 --m 3 --q 2 --points 8 --lambda-lo 1e-4 --lambda-hi 2e-4",
    "--task mp-rect --beta 1 --n 3 --m 2 --q 1 --points 8 --lambda-lo 1e-4 --lambda-hi 2e-4",
    "--task uhlig-qr --beta 1 --m 3 --n 2 --points 8 --lambda-lo 1e-4 --lambda-hi 2e-4",
]


class TestFactorCommand:
    def test_pseudo_inverse_factor(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "--kind", "mp-herm", "--beta", "1",
            "--m", "2", "--q", "1", "--lambda", "2",
        )
        assert code == 0
        assert value_of(out) == pytest.approx(0.0625, rel=1e-9)

    def test_exponent_offset(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--kind", "tau", "--beta", "2", "--q", "3")
        assert code == 0
        assert value_of(out) == pytest.approx(-3.0)

    def test_nonsingular_congruence_factor(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "--kind", "congruence-ns", "--beta", "1",
            "--m", "2", "--det-b", "2",
        )
        assert code == 0
        assert value_of(out) == pytest.approx(8.0, rel=1e-9)

    def test_spectrum_list_parsing(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "--kind", "sd", "--beta", "1",
            "--m", "2", "--q", "2", "--lambda", "2.0,1.0",
        )
        assert code == 0
        # -q ln2 + tau ln pi + 0 + ln(2-1) = -2 ln 2
        assert value_of(out) == pytest.approx(0.25, rel=1e-9)

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--kind", "lu", "--beta", "1")
        assert code == 2
        assert "unknown factor kind" in err

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "factor", "--kind", "mp-herm", "--beta", "1", "--m", "2", "--q", "1",
        )
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--lambda", "nan"), ("--lambda", "inf"),
                                            ("--det-b", "nan"), ("--lambda", "abc"),
                                            ("--lambda", "2,,1")])
    def test_non_finite_input_is_usage_error(self, capsys, flag, value):
        kind = "mp-herm" if flag == "--lambda" else "congruence-ns"
        code, out, err = run_cli(
            capsys, "factor", "--kind", kind, "--beta", "1", "--m", "2", "--q", "1",
            flag, value,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite and positive" in err

    @pytest.mark.parametrize("argv", [
        ("--kind", "sd", "--m", "2", "--q", "3", "--lambda", "3,2,1"),
        ("--kind", "sd", "--m", "-2", "--q", "1", "--lambda", "3"),
        ("--kind", "uhlig-svd", "--m", "1", "--n", "3", "--delta", "3,2,1",
         "--lambda", "3,2,1", "--det-b", "1"),
        ("--kind", "chol", "--m", "1", "--q", "3", "--t-diag", "1,2,3"),
        ("--kind", "qr", "--n", "1", "--m", "1", "--q", "3", "--t-diag", "1,2,3"),
    ], ids=["sd-q-above-m", "sd-negative-m", "uhlig-n-above-m", "chol-q-above-m",
            "qr-q-above-n"])
    def test_sizes_a_task_rejects_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "factor", "--beta", "1", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    ENTRIES = st.sampled_from(["0", "-1", "1e308", "nan", "inf", "", "0.5", "1", "2", "3"])
    DETS = st.none() | st.sampled_from(["0", "-1", "1e308", "nan", "inf", "0.5", "2"])

    @given(
        kind=st.sampled_from([*FACTOR_KINDS, "lu"]),
        beta=st.sampled_from([1, 2, 4, 8, 3, 0, -1]),
        sizes=st.tuples(*[st.integers(-1, 5)] * 3),
        spectra=st.tuples(*[st.none() | st.lists(ENTRIES, min_size=1, max_size=4)] * 4),
        dets=st.tuples(*[DETS] * 5),
    )
    @example(kind="mp-herm", beta=1, sizes=(2, 0, 1), spectra=(["2"], None, None, None),
             dets=(None,) * 5)
    @example(kind="mp-herm", beta=2, sizes=(3, 0, 2), spectra=(["2", "", "1"], None, None, None),
             dets=(None,) * 5)
    @example(kind="svd", beta=4, sizes=(2, 3, 2), spectra=(None, ["1e308", "3"], None, None),
             dets=(None,) * 5)
    @example(kind="uhlig-svd-alt", beta=1, sizes=(3, 1, 0), spectra=(None,) * 4,
             dets=("1e308", None, None, None, "0.5"))
    @example(kind="tau", beta=8, sizes=(0, 0, 5), spectra=(None,) * 4, dets=(None,) * 5)
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_factor_input_exits_cleanly(self, capsys, kind, beta, sizes, spectra, dets):
        """`divalg factor` is the one FactorInput boundary: any kind, beta,
        sizes, spectra and determinants exit 0 with float `log:`/`value:`
        lines or 2 with one error line."""
        argv = ["factor", "--kind", kind, f"--beta={beta}"]
        argv += [f"--{name}={v}" for name, v in zip(("m", "n", "q"), sizes)]
        argv += [f"--{flag}={','.join(v)}" for flag, v in
                 zip(("lambda", "d", "delta", "t-diag"), spectra) if v is not None]
        argv += [f"--{flag}={v}" for flag, v in
                 zip(("det-b", "det-t1t1", "det-l1l1", "det-s11", "det-gbh"), dets) if v is not None]
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        if code == 0:
            lines = out.splitlines()
            assert err == "" and lines, argv
            for line in lines:
                label, value = line.split(": ")
                assert label in ("log", "value"), line
                float(value)
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv


    def test_svd_factor_past_the_float_range_sum(self, capsys):
        """d_1 + d_2 overflows a float, the factor's log does not."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "factor", "--kind", "svd", "--beta", "1", "--n", "2", "--m", "2",
                "--q", "2", "--d", "1.5e308,1e308",
            )
        assert code == 0 and err == ""
        # -q ln 2 plus the squared Vandermonde term log(d_1^2 - d_2^2)
        expected = 1418.6155608356464 - 2 * math.log(2.0)
        assert log_of(out) == pytest.approx(expected, rel=1e-9)  # printed to 10 digits


def log_of(out: str) -> float:
    match = re.search(r"^log: (\S+)$", out, re.MULTILINE)
    assert match, out
    return float(match.group(1))


def _assert_log_value_lines(code: int, out: str, err: str, argv) -> None:
    """Exit 0 with float `log:` and `value:` lines, or 2 with one error line."""
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        lines = out.splitlines()
        assert err == "" and [line.split(": ")[0] for line in lines] == ["log", "value"], argv
        for line in lines:
            float(line.split(": ")[1])
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv


# values for --a and the sample box, the float range's edges among them
CLI_FLOATS = st.sampled_from(["0", "-1", "-2.5", "0.5", "1", "2", "3.5", "40", "1e-300",
                              "1e308", "nan", "inf", "-inf"])
CLI_BETAS = st.sampled_from([1, 2, 4, 8, 3, 0, -1])
CLI_SIZES = st.integers(-1, 5)


class TestGammaVolumeCommands:
    def test_gamma_sqrt_pi(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--m", "1", "--beta", "1", "--a", "0.5")
        assert code == 0
        assert value_of(out) == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_gamma_domain_violation(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--m", "3", "--beta", "2", "--a", "1.0")
        assert code == 2

    def test_volume_sphere(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--m", "1", "--n", "3", "--beta", "1")
        assert code == 0
        assert value_of(out) == pytest.approx(4.0 * math.pi, rel=1e-9)

    def test_volume_domain_violation(self, capsys):
        code, _, err = run_cli(capsys, "volume", "--m", "3", "--n", "1", "--beta", "1")
        assert code == 2

    def test_overflowing_value_prints_inf_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "gamma", "--m", "1", "--beta", "1", "--a", "200")
        assert code == 0 and err == ""
        assert float(re.search(r"^log: (\S+)$", out, re.MULTILINE).group(1)) == pytest.approx(
            math.lgamma(200.0), rel=1e-9
        )
        assert value_of(out) == math.inf

    @pytest.mark.parametrize("beta", ["0", "-1", "3"])
    @pytest.mark.parametrize("argv", [
        ["gamma", "--m", "2", "--a", "5"],
        ["volume", "--m", "1", "--n", "2"],
        ["volume", "--m", "0", "--n", "2"],
    ])
    def test_beta_outside_the_algebras_is_usage_error(self, capsys, argv, beta):
        code, out, err = run_cli(capsys, *argv, "--beta", beta)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_octonion_gamma_and_volume_still_evaluate(self, capsys):
        for argv in (["gamma", "--m", "2", "--a", "5"], ["volume", "--m", "1", "--n", "2"]):
            code, out, _ = run_cli(capsys, *argv, "--beta", "8")
            assert code == 0 and math.isfinite(value_of(out))

    @given(m=CLI_SIZES, beta=CLI_BETAS, a=CLI_FLOATS)
    @example(m=3, beta=1, a="nan")
    @example(m=3, beta=1, a="inf")
    @example(m=2, beta=2, a="3e307")
    @example(m=10**400, beta=1, a="1")  # (m-1)*beta/2 leaves the float range
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_gamma_input_exits_cleanly(self, capsys, m, beta, a):
        argv = ["gamma", f"--m={m}", f"--beta={beta}", f"--a={a}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        _assert_log_value_lines(code, out, err, argv)
        if a in ("nan", "inf", "-inf", "3e307") or m == 10**400:
            assert code == 2, argv

    @given(m=CLI_SIZES, n=CLI_SIZES, beta=CLI_BETAS)
    @example(m=1, n=10**306, beta=1)
    @example(m=1, n=10**400, beta=1)  # m*n*beta/2 leaves the float range
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_volume_input_exits_cleanly(self, capsys, m, n, beta):
        argv = ["volume", f"--m={m}", f"--n={n}", f"--beta={beta}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        _assert_log_value_lines(code, out, err, argv)
        if n in (10**306, 10**400):
            assert code == 2 and "float range" in err


class TestSampleCommand:
    def test_stiefel_sample_is_orthonormal(self, capsys, tmp_path):
        out_file = tmp_path / "h1.json"
        code, out, _ = run_cli(
            capsys, "sample", "stiefel", "--n", "4", "--q", "2", "--beta", "4",
            "--seed", "3", "--out", str(out_file),
        )
        assert code == 0
        h = load_matrix(out_file)
        assert h.kind.beta == 4 and h.rows == 4 and h.cols == 2
        gram = conj_transpose(h) @ h
        eye = np.zeros_like(gram.data)
        eye[range(2), range(2), 0] = 1.0
        assert np.abs(gram.data - eye).max() <= 1e-10

    def test_psd_sample_has_requested_rank(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        code, _, _ = run_cli(
            capsys, "sample", "psd", "--m", "3", "--q", "2", "--beta", "2",
            "--seed", "1", "--out", str(out_file),
        )
        assert code == 0
        s = load_matrix(out_file)
        from divalg.linalg import numerical_rank

        assert numerical_rank(s) == 2
        assert np.abs(s.data - conj_transpose(s).data).max() <= 1e-12

    def test_rect_sample_shape(self, capsys, tmp_path):
        out_file = tmp_path / "x.json"
        code, _, _ = run_cli(
            capsys, "sample", "rect", "--n", "3", "--m", "2", "--q", "1",
            "--beta", "1", "--seed", "2", "--out", str(out_file),
        )
        assert code == 0
        x = load_matrix(out_file)
        assert (x.rows, x.cols) == (3, 2)

    def test_sample_determinism(self, capsys, tmp_path):
        files = []
        for name in ("a.json", "b.json"):
            out_file = tmp_path / name
            run_cli(
                capsys, "sample", "psd", "--m", "2", "--q", "1", "--beta", "1",
                "--seed", "9", "--out", str(out_file),
            )
            files.append(out_file.read_text())
        assert files[0] == files[1]

    def test_invalid_rank_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sample", "stiefel", "--n", "1", "--q", "2", "--beta", "1",
            "--out", str(tmp_path / "h.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["stiefel", "--n", "1", "--q", "2"],
        ["rect", "--n", "1", "--m", "3", "--q", "2"],
        ["psd", "--m", "1", "--q", "2"],
    ])
    def test_frame_wider_than_its_space_is_refused_by_the_sampler(self, capsys, tmp_path,
                                                                  flags):
        out_file = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "sample", *flags, "--beta", "1", "--out", str(out_file))
        assert (code, out, err) == (2, "", "error: need q <= n, got q=2 n=1\n")
        assert not out_file.exists()
        # the octonion refusal stays at the command boundary, before any size
        code, out, err = run_cli(capsys, "sample", *flags, "--beta", "8", "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: octonion results conjectural") and err.count("\n") == 1
        assert not out_file.exists()

    def test_octonion_sample_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sample", "stiefel", "--n", "2", "--q", "1", "--beta", "8",
            "--out", str(tmp_path / "h.json"),
        )
        assert code == 2
        assert "conjectural" in err

    @pytest.mark.parametrize("beta", ["0", "-1", "3"])
    def test_beta_outside_the_algebras_is_usage_error(self, capsys, tmp_path, beta):
        out_file = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys, "sample", "psd", "--beta", beta, "--m", "2", "--out", str(out_file)
        )
        assert code == 2 and out == ""
        assert err == f"error: beta must be one of (1, 2, 4, 8), got {beta}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("flags", [
        ["psd", "--m", "2", "--q", "1", "--lambda-hi", "inf"],
        ["psd", "--m", "2", "--q", "1", "--lambda-lo", "2", "--lambda-hi", "1"],
        ["psd", "--m", "2", "--q", "1", "--lambda-lo", "-3"],
        ["rect", "--n", "2", "--m", "2", "--q", "1", "--lambda-lo", "nan"],
        ["psd", "--m", "2", "--q", "0"],
    ])
    def test_bad_box_or_rank_is_usage_error(self, capsys, tmp_path, flags):
        out_file = tmp_path / "s.json"
        code, out, err = run_cli(
            capsys, "sample", *flags, "--beta", "1", "--out", str(out_file)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not out_file.exists()


    @given(
        space=st.sampled_from(["stiefel", "psd", "rect"]),
        beta=CLI_BETAS,
        sizes=st.tuples(CLI_SIZES, CLI_SIZES, CLI_SIZES),
        box=st.tuples(CLI_FLOATS, CLI_FLOATS),
    )
    @example(space="psd", beta=1, sizes=(0, 2, 1), box=("1.7e308", "1.79e308"))
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_sample_input_exits_cleanly(self, capsys, tmp_path, space, beta, sizes, box):
        """`divalg sample` exits 0 with a strict-JSON matrix file or 2 with
        one error line and no file."""
        out_file = tmp_path / "sample.json"
        out_file.unlink(missing_ok=True)
        argv = ["sample", space, f"--beta={beta}", f"--lambda-lo={box[0]}",
                f"--lambda-hi={box[1]}", f"--out={out_file}"]
        argv += [f"--{name}={v}" for name, v in zip(("n", "m", "q"), sizes)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        if code == 0:
            assert err == "" and out == f"wrote {space} sample to {out_file}\n"
            doc = json.loads(out_file.read_text(), parse_constant=_reject_constant)
            assert doc["beta"] == beta
            assert np.all(np.isfinite(load_matrix(out_file).data))
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
            assert not out_file.exists()
        if box == ("1.7e308", "1.79e308") and space != "stiefel":
            assert code == 2, argv


# small Monte-Carlo tasks: (CLI name, engine, size flags); each has m = 2
MC_TASKS = [
    ("sd", "mc-ratio", "--m", "2", "--q", "1"),
    ("svd", "mc-ratio", "--n", "2", "--m", "2", "--q", "1"),
    ("mp-herm", "mc-equality", "--m", "2", "--q", "1"),
    ("uhlig-mp", "mc-equality", "--m", "2", "--n", "1"),
    ("qr", "mc-ratio", "--n", "2", "--m", "2", "--q", "2"),
    ("w", "mc-equality", "--n", "3", "--m", "2", "--q", "1"),
]
# one invalid (flag, value) each; lambda-lo 1.5e300 is at or above every valid
# lambda-hi, and the b-matrix faults are resolved to files in the test
MC_FAULTS = [
    ("trials", "9999"), ("trials", "0"), ("trials", "-5"),
    ("ztol", "nan"), ("ztol", "-1"), ("cv-tol", "-1"), ("cv-tol", "inf"),
    ("rtol", "nan"), ("rtol", "inf"), ("gap", "-0.1"), ("gap", "nan"), ("gap", "inf"),
    ("lambda-lo", "0"), ("lambda-lo", "-1"), ("lambda-lo", "nan"), ("lambda-hi", "inf"),
    ("lambda-lo", "1.5e300"), ("b-matrix", "demo"), ("b-matrix", "missing"),
    ("b-matrix", "wrong-shape"),
]
# valid flags of test_monte_carlo_flags_exit_cleanly on a task that reads B
MC_VALID = dict(task=MC_TASKS[3], beta="1", trials="10000", box=("1", "2"), gap=None,
                tols=(None, None, None), b_matrix="random")


class TestVerifyCommand:
    def test_flag_defaults_are_the_task_specs(self):
        from dataclasses import fields

        from divalg.verify import TaskSpec

        args = build_parser().parse_args(["verify", "--task", "sd", "--beta", "1"])
        default = {f.name: f.default for f in fields(TaskSpec)}
        flags = ("n", "q", "trials", "points", "step", "rtol", "ztol", "cv_tol", "gap", "seed")
        for name in flags:
            assert getattr(args, name) == default[name], name
        assert (args.lambda_lo, args.lambda_hi) == default["eigen_box"]
        assert args.b_matrix == default["b_source"]

    def test_every_task_flag_reaches_the_task_spec(self):
        from dataclasses import MISSING, fields

        from divalg.cli import _task_from_args
        from divalg.verify import TaskSpec

        args = build_parser().parse_args([
            "verify", "--task", "mp-rect", "--engine", "mc-equality", "--beta", "2",
            "--m", "2", "--n", "3", "--q", "1", "--b-matrix", "identity", "--trials", "12345",
            "--points", "7", "--step", "1e-4", "--lambda-lo", "0.5", "--lambda-hi", "3",
            "--gap", "0.01", "--rtol", "1e-4", "--ztol", "2.5", "--cv-tol", "0.05",
            "--seed", "9",
        ])
        expected = {
            "theorem_id": "MP_RECT", "beta": 2, "m": 2, "n": 3, "q": 1,
            "engine": "MC_EQUALITY", "b_source": "identity", "trials": 12345, "points": 7,
            "step": 1e-4, "eigen_box": [0.5, 3.0], "gap": 0.01, "rtol": 1e-4, "ztol": 2.5,
            "cv_tol": 0.05, "seed": 9,
        }
        assert _task_from_args(args).to_dict() == expected
        for f in fields(TaskSpec):  # every flag is set away from its default
            if f.default is not MISSING:
                default = list(f.default) if f.name == "eigen_box" else f.default
                assert expected[f.name] != default, f.name

    def test_chart_task_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--task", "mp-herm", "--beta", "2", "--m", "3",
            "--q", "2", "--points", "20", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert len(doc["records"]) == 20

    def test_equality_task_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--task", "uhlig-svd", "--beta", "1", "--m", "2",
            "--n", "1", "--trials", "200000", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert all(rec["z"] < 3.0 for rec in doc["records"])

    def test_failing_task_returns_one(self, capsys):
        # a coarse finite-difference step breaks the chart tolerance
        code, out, _ = run_cli(
            capsys, "verify", "--task", "mp-herm", "--beta", "1", "--m", "2",
            "--q", "1", "--points", "2", "--seed", "0", "--step", "0.3",
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_octonion_task_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--task", "sd", "--beta", "8", "--m", "2", "--q", "1",
        )
        assert code == 2
        assert "octonion results conjectural" in err

    def test_unknown_task_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--task", "lu", "--beta", "1", "--m", "2")
        assert code == 2

    def test_inadmissible_engine_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--task", "sd", "--engine", "chart", "--beta", "1",
            "--m", "2", "--q", "1",
        )
        assert code == 2

    def test_inconclusive_returns_three(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--task", "uhlig-svd", "--beta", "1", "--m", "3",
            "--n", "2", "--trials", "30000", "--seed", "1", "--gap", "0.99",
        )
        assert code == 3
        assert "inconclusive" in err

    @pytest.mark.parametrize("probe", BOX_PROBES)
    def test_box_probes_run_on_one_unit(self, capsys, probe):
        """Boxes near 1e+-90, 1e+-200 and 1e+-300, [1, 1e300] and small CHART
        boxes once gave a NaN or zero stderr, no mass, a singular chart or
        an internal error (exit 1, 3 or 4).  Each runs on the box divided by
        2^unit_exp, with hi in [2, 4), and passes without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", *probe.split())
        assert (code, err) == (0, "")
        doc = json.loads(out, parse_constant=_reject_constant)
        lo, hi = doc["task"]["eigen_box"]
        assert 2.0 <= math.ldexp(hi, -doc["unit_exp"]) < 4.0

    def test_box_too_wide_for_one_unit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--task", "sd", "--beta", "1", "--m", "2",
                                 "--q", "1", "--lambda-lo", "1e-300", "--lambda-hi", "1e300")
        assert (code, out) == (2, "")
        assert err.startswith("error: eigenvalue box (1e-300, 1e+300) with gap")

    @pytest.mark.parametrize("command", ["verify", "verify-all"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, command, jobs):
        task = ["--task", "sd", "--beta", "1", "--m", "2", "--q", "1"]
        argv = [command] + (task if command == "verify" else []) + ["--jobs", jobs]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    @pytest.mark.parametrize("task,step", [
        ("mp-herm", "0"), ("mp-herm", "-0.001"), ("mp-herm", "nan"), ("mp-herm", "inf"),
        ("chol", "1e300"), ("mp-herm", "10"), ("mp-herm", "1e-300"),
    ], ids=["0", "-0.001", "nan", "inf", "chol-1e300", "10", "1e-300"])
    def test_bad_step_is_usage_error(self, capsys, task, step):
        code, out, err = run_cli(
            capsys, "verify", "--task", task, "--beta", "1", "--m", "2", "--q", "1",
            "--points", "2", "--step", step,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: step must be finite and positive")
        assert err.count("\n") == 1

    @given(task=st.sampled_from(["chol", "mp-herm"]), step=st.floats())
    @example(task="chol", step=5e-324)
    @example(task="mp-herm", step=1e-310)
    @example(task="chol", step=1e300)
    @example(task="mp-herm", step=math.nan)
    @example(task="chol", step=-math.inf)
    @example(task="mp-herm", step=0.5)
    @settings(max_examples=12, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_step_exits_cleanly(self, capsys, task, step):
        code, out, err = run_cli(
            capsys, "verify", "--task", task, "--beta", "1", "--m", "2", "--q", "1",
            "--points", "2", f"--step={step!r}",
        )
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if out:
            json.loads(out, parse_constant=_reject_constant)

    @given(
        task=st.sampled_from([
            ("chol", "1", "--m", "3", "--q", "2"),
            ("mp-herm", "2", "--m", "2", "--q", "1"),
            ("mp-rect", "1", "--n", "3", "--m", "2", "--q", "1"),
            ("uhlig-qr", "4", "--m", "2", "--n", "1"),
            ("congruence-ns", "1", "--m", "2"),
        ]),
        points=st.integers(1, 40),
        log_step=st.floats(math.log10(STEP_RANGE[0]), math.log10(STEP_RANGE[1])),
    )
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_chart_points_and_steps_exit_cleanly(self, capsys, task, points, log_step):
        """Any point count (across chunk boundaries) and any admissible step
        gives an exit code, one error line at most and strict JSON."""
        name, beta, *sizes = task
        step = min(max(10.0**log_step, STEP_RANGE[0]), STEP_RANGE[1])
        code, out, err = run_cli(
            capsys, "verify", "--task", name, "--beta", beta, *sizes,
            "--points", str(points), f"--step={step!r}",
        )
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if out:
            doc = json.loads(out, parse_constant=_reject_constant)
            assert [r["point"] for r in doc["records"]] == list(range(points))

    @given(
        task=st.sampled_from(MC_TASKS),
        beta=st.sampled_from(["1", "2"]),
        trials=st.sampled_from(["10000", "11111", "12345"]),
        box=st.sampled_from([("1", "2"), ("1e-3", "2e-3"), ("0.5", "1e3"), ("100", "1e3"),
                             ("2.2250738585072014e-308", "4.5e-308"), ("1e-300", "2e-300"),
                             ("1e300", "1.5e300"), ("1", "1e300")]),
        gap=st.sampled_from([None, "0", "0.05", "5"]),
        tols=st.tuples(*[st.sampled_from([None, "0", "0.02", "3"])] * 3),
        b_matrix=st.sampled_from(["random", "identity", "file"]),
        fault=st.one_of(st.none(), st.sampled_from(MC_FAULTS)),
    )
    @example(**MC_VALID, fault=("trials", "9999"))
    @example(**MC_VALID, fault=("trials", "0"))
    @example(**MC_VALID, fault=("trials", "-5"))
    @example(**MC_VALID, fault=("ztol", "nan"))
    @example(**MC_VALID, fault=("cv-tol", "-1"))
    @example(**MC_VALID, fault=("rtol", "inf"))
    @example(**MC_VALID, fault=("gap", "-0.1"))
    @example(**MC_VALID, fault=("gap", "nan"))
    @example(**MC_VALID, fault=("gap", "inf"))
    @example(**MC_VALID, fault=("lambda-lo", "0"))
    @example(**MC_VALID, fault=("lambda-lo", "-1"))
    @example(**MC_VALID, fault=("lambda-lo", "nan"))
    @example(**MC_VALID, fault=("lambda-hi", "inf"))
    @example(**MC_VALID, fault=("lambda-lo", "1.5e300"))
    @example(**MC_VALID, fault=("b-matrix", "demo"))
    @example(**MC_VALID, fault=("b-matrix", "missing"))
    @example(**MC_VALID, fault=("b-matrix", "wrong-shape"))
    @example(**MC_VALID | {"tols": ("0", "0", "0")}, fault=None)  # valid; may fail a gate
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_monte_carlo_flags_exit_cleanly(self, capsys, tmp_path, task, beta, trials, box,
                                            gap, tols, b_matrix, fault):
        """Valid Monte-Carlo flags on a small task, with at most one flag set
        to an invalid value (`fault`), give a documented exit code: strict
        JSON for a verdict, one `error:` or `inconclusive:` line otherwise,
        and a usage error for any number out of its range, also on boxes
        at the ends of the float range."""
        name, engine, *sizes = task
        values = {"trials": trials, "lambda-lo": box[0], "lambda-hi": box[1], "gap": gap,
                  "ztol": tols[0], "cv-tol": tols[1], "rtol": tols[2], "b-matrix": b_matrix}
        values.update([fault] if fault else [])
        if values["b-matrix"] in ("file", "wrong-shape"):  # every task here has m = 2
            path = tmp_path / "b.json"
            kind = AlgebraKind.from_beta(int(beta))
            save_matrix(Mat.eye(kind, 2 if values["b-matrix"] == "file" else 3), path)
            values["b-matrix"] = str(path)
        elif values["b-matrix"] == "missing":
            values["b-matrix"] = str(tmp_path / "missing.json")
        flags = [f"--{flag}={value}" for flag, value in values.items() if value is not None]
        argv = ["verify", "--task", name, "--engine", engine, "--beta", beta, *sizes, *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code in (0, 1):
            doc = json.loads(out, parse_constant=_reject_constant)
            assert doc["pass"] is (code == 0) and err == "", argv
        else:
            prefix = "error: " if code == 2 else "inconclusive: "
            assert out == "" and err.startswith(prefix) and err.count("\n") == 1, argv
        if fault and fault[0] != "b-matrix":  # the task spec rejects it
            assert code == 2, argv

    @pytest.mark.parametrize("flags,message", [
        (["--task", "sd", "--m", "2", "--q", "1", "--lambda-hi", "inf"], "eigenvalue box"),
        (["--task", "sd", "--m", "2", "--q", "1", "--lambda-lo", "nan"], "eigenvalue box"),
        # a subnormal box once ran to a singular X11 block: exit 1, no theorem failure
        (["--task", "svd", "--n", "2", "--m", "2", "--q", "1", "--trials", "10000",
          "--lambda-lo", "1e-310", "--lambda-hi", "2e-310"], "eigenvalue box"),
        (["--task", "sd", "--m", "2", "--q", "1", "--gap", "nan"], "gap must be finite"),
        (["--task", "sd", "--m", "2", "--q", "1", "--gap", "inf"], "gap must be finite"),
        (["--task", "mp-herm", "--m", "3", "--q", "2", "--points", "2", "--rtol", "nan"],
         "rtol must be finite"),
        (["--task", "mp-herm", "--m", "3", "--q", "2", "--points", "2", "--rtol", "inf"],
         "rtol must be finite"),
        (["--task", "mp-herm", "--m", "3", "--q", "2", "--points", "2", "--rtol=-1e-5"],
         "rtol must be finite"),
        (["--task", "w", "--n", "3", "--m", "2", "--q", "2", "--trials", "10000",
          "--ztol", "nan"], "ztol must be finite"),
        (["--task", "sd", "--m", "2", "--q", "1", "--cv-tol", "inf"], "cv_tol must be finite"),
    ])
    def test_non_finite_box_gap_and_tolerances_are_usage_errors(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "verify", "--beta", "1", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("task", [
        ["--task", "sd", "--m", "2", "--q", "2"],
        ["--task", "svd", "--n", "2", "--m", "2", "--q", "2"],
    ])
    def test_gap_that_keeps_no_pilot_draw_is_usage_error(self, capsys, task):
        code, out, err = run_cli(
            capsys, "verify", *task, "--beta", "1", "--lambda-lo", "1", "--lambda-hi", "1.01",
            "--gap", "0.5", "--trials", "10000",
        )
        assert code == 2
        assert out == ""
        assert err == "error: no valid pilot samples; widen the box or gap\n"

    @pytest.mark.parametrize("case", ["missing", "not-json", "no-header", "size", "beta"])
    def test_bad_b_matrix_is_usage_error(self, capsys, tmp_path, case):
        bfile = tmp_path / "b.json"
        m, beta = "2", "1"
        if case == "not-json":
            bfile.write_text("B = diag(1, 2)\n")
        elif case == "no-header":
            bfile.write_text("{}\n")
        elif case != "missing":
            save_matrix(Mat(REAL, np.eye(2)[:, :, None]), bfile)
            m, beta = ("3", "1") if case == "size" else ("2", "2")
        code, out, err = run_cli(
            capsys, "verify", "--task", "congruence-ns", "--beta", beta, "--m", m,
            "--points", "2", "--b-matrix", str(bfile),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert str(bfile) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--task", "congruence-ns", "--beta", "1", "--m", "2", "--points", "2"],
        ["verify", "--task", "uhlig-qr", "--beta", "1", "--m", "2", "--n", "1", "--points", "2"],
        ["verify", "--task", "uhlig-svd", "--beta", "1", "--m", "2", "--n", "1",
         "--trials", "10000"],
        ["demo"],
    ], ids=["congruence-ns", "uhlig-qr", "uhlig-svd", "demo"])
    def test_singular_b_matrix_is_usage_error(self, capsys, tmp_path, argv):
        """Every congruence theorem assumes a nonsingular B."""
        bfile = tmp_path / "b.json"
        save_matrix(Mat(REAL, np.array([[1.0, 0.0], [0.0, 0.0]])[:, :, None]), bfile)
        code, out, err = run_cli(capsys, *argv, "--b-matrix", str(bfile))
        assert code == 2
        assert out == ""
        assert err == f"error: B matrix {bfile} is singular (numerical rank 1 < 2)\n"

    @pytest.mark.parametrize("argv", [
        ["--task", "congruence-ns", "--m", "2", "--points", "2"],
        ["--task", "uhlig-qr", "--m", "2", "--n", "1", "--points", "2"],
    ], ids=["congruence-ns", "uhlig-qr"])
    def test_demo_b_matrix_serves_every_congruence_task(self, capsys, argv):
        """`--b-matrix demo` is the pinned upper-bidiagonal B for any task,
        not only for the DEMO engine: it was read as a file name."""
        code, out, err = run_cli(capsys, "verify", "--beta", "1", *argv, "--b-matrix", "demo")
        assert (code, err) == (0, "")
        assert json.loads(out)["task"]["b_source"] == "demo"

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--task", "sd", "--beta", "1", "--m", "2", "--q", "1",
                  "--bogus", "1"])
        assert exc.value.code == 2

    def test_output_file_and_determinism(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "verify", "--task", "w", "--beta", "1", "--n", "2",
                "--m", "2", "--q", "1", "--trials", "20000", "--seed", "5",
                "--out", str(path),
            )
            assert code == 0
        texts = [re.sub(r'"runtime_ms": \d+', "", p.read_text()) for p in paths]
        assert texts[0] == texts[1]

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--task", "congruence-ns", "--beta", "1", "--m", "2",
            "--points", "3", "--seed", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 records
        assert "analytic_log" in lines[0]

    @pytest.mark.parametrize("flags,message", [
        (["--task", "mp-herm", "--beta", "1", "--m", "3", "--q", "2"],
         "lam must be strictly decreasing, got (2.0, 2.0)"),
        (["--task", "mp-rect", "--beta", "1", "--n", "3", "--m", "2", "--q", "2"],
         "d must be strictly decreasing, got (2.0000000000000004, 2.0000000000000004)"),
    ], ids=["mp-herm", "mp-rect"])
    def test_tied_chart_spectra_are_usage_errors(self, capsys, flags, message):
        """A box one ulp wide ties the drawn spectra: the CHART factor's
        input check names the first tied point's spectrum.  The box has
        unit_exp 0, so the spectrum is named as drawn."""
        code, out, err = run_cli(
            capsys, "verify", *flags, "--points", "20",
            "--lambda-lo", "2", "--lambda-hi", repr(math.nextafter(2.0, 4.0)),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_table_output_carries_disclaimer(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--task", "congruence-ns", "--beta", "1", "--m", "2",
            "--points", "2", "--seed", "2", "--format", "table",
        )
        assert code == 0
        assert "not stable" in out


class TestDemoCommand:
    def test_pinned_demo(self, capsys):
        code, out, _ = run_cli(capsys, "demo")
        assert code == 0
        doc = json.loads(out)
        (rec,) = doc["records"]
        assert rec["chart_det"] == pytest.approx(1.0, abs=1e-6)
        assert rec["uhlig_qr_factor"] == pytest.approx(1.0, abs=1e-6)
        assert rec["uhlig_svd_factor"] == pytest.approx(2.0, abs=1e-6)
        assert rec["expected_mismatch"] is True

    @pytest.mark.parametrize("flags", [
        [], ["--beta", "4", "--m", "3", "--n", "2"],
        ["--b-matrix", "random", "--seed", "3", "--beta", "2", "--m", "3", "--n", "1"],
        ["--format", "csv"], ["--format", "table"],
    ], ids=["defaults", "beta4", "random-b", "csv", "table"])
    def test_demo_is_verify_with_its_own_defaults(self, capsys, flags):
        """`demo` is `verify --task uhlig-svd --engine demo` at beta 1, m 2,
        n 1 and the demo B: the same output apart from runtime_ms."""
        verify = ["verify", "--task", "uhlig-svd", "--engine", "demo", "--beta", "1",
                  "--m", "2", "--n", "1", "--b-matrix", "demo"]
        outputs = []
        for argv in (["demo", *flags], [*verify, *flags]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            outputs.append(re.sub(r'"runtime_ms": \d+', "", out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("scale", [1e60, 1e120])
    def test_factors_out_of_float_range_are_null(self, capsys, tmp_path, scale):
        """The demo compares logs; a determinant or factor whose exp leaves
        the float range is written as null, with no warning."""
        bd = np.zeros((3, 3, 1))
        bd[:, :, 0] = scale * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        save_matrix(Mat(REAL, bd), tmp_path / "b.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "demo", "--m", "3", "--n", "1", "--b-matrix", str(tmp_path / "b.json")
            )
        assert (code, err) == (0, "")
        (rec,) = json.loads(out, parse_constant=_reject_constant)["records"]
        for field in ("chart_det", "uhlig_qr_factor", "uhlig_svd_factor", "uhlig_svd_alt_factor"):
            assert rec[field] is None, field
        assert rec["chart_logdet"] > 700.0
        assert rec["qr_matches_chart"] and rec["svd_differs_from_chart"]


class TestVerifyAll:
    def test_preset_grid_is_deterministic_and_admissible(self):
        tasks = preset_tasks("desk", 42)
        assert tasks == preset_tasks("desk", 42)
        assert len(tasks) > 50
        for task in tasks:
            assert task.engine in THEOREMS[task.theorem_id].engines
        names = {t.theorem_id for t in tasks}
        assert names == set(TASK_NAMES.values())

    def test_full_preset_scales_up(self):
        desk = preset_tasks("desk", 0)
        full = preset_tasks("full", 0)
        assert len(desk) == len(full)
        assert all(f.trials >= d.trials for d, f in zip(desk, full))

    def test_aggregation_and_exit_codes(self, capsys, monkeypatch, tmp_path):
        import divalg.cli as cli
        from divalg.verify import TaskSpec

        tiny = [
            TaskSpec(theorem_id="CONGRUENCE_NS", beta=1, m=2, points=2, seed=1),
            TaskSpec(theorem_id="MP_HERM", beta=1, m=2, q=1, points=2, seed=1),
        ]
        monkeypatch.setattr(cli, "preset_tasks", lambda preset, seed: tiny)
        out_file = tmp_path / "all.json"
        code, _, _ = run_cli(
            capsys, "verify-all", "--preset", "desk", "--seed", "1",
            "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["pass"] is True
        assert doc["n_tasks"] == 2
        assert doc["n_failed"] == 0

    def test_inconclusive_aggregation(self, capsys, monkeypatch):
        import divalg.cli as cli
        from divalg.verify import TaskSpec

        tiny = [
            TaskSpec(theorem_id="UHLIG_SVD", beta=1, m=3, n=2, trials=30_000,
                     seed=1, gap=0.99),
        ]
        monkeypatch.setattr(cli, "preset_tasks", lambda preset, seed: tiny)
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 3
        doc = json.loads(out)
        assert doc["n_inconclusive"] == 1
        assert doc["pass"] is False

    def test_internal_error_is_recorded_and_the_grid_goes_on(self, capsys, monkeypatch):
        import divalg.cli as cli
        from divalg.verify import TaskSpec

        tiny = [
            TaskSpec(theorem_id="CONGRUENCE_NS", beta=1, m=2, points=2, seed=1),
            TaskSpec(theorem_id="MP_HERM", beta=1, m=2, q=1, points=2, seed=1),
            TaskSpec(theorem_id="CHOL", beta=1, m=2, q=1, points=2, seed=1),
        ]
        real_run_task = cli.run_task

        def run_task(task, jobs=1):
            if task.theorem_id == "MP_HERM":
                raise RuntimeError("stray numpy failure")
            return real_run_task(task, jobs=jobs)

        monkeypatch.setattr(cli, "preset_tasks", lambda preset, seed: tiny)
        monkeypatch.setattr(cli, "run_task", run_task)
        code, out, err = run_cli(capsys, "verify-all")
        assert code == 4
        assert "Traceback" not in err
        assert err == "internal error: RuntimeError: stray numpy failure\n"
        doc = json.loads(out, parse_constant=_reject_constant)
        assert [t["task"]["theorem_id"] for t in doc["tasks"]] == [
            "CONGRUENCE_NS", "MP_HERM", "CHOL",
        ]
        broken = doc["tasks"][1]
        assert broken["internal_error"] == "RuntimeError: stray numpy failure"
        assert broken["pass"] is False
        assert doc["tasks"][0]["pass"] is True and doc["tasks"][2]["pass"] is True
        assert doc["pass"] is False

    def test_internal_error_outranks_failure_and_inconclusive(self, capsys, monkeypatch):
        import divalg.cli as cli
        from divalg.errors import InconclusiveStatisticsError, RankError
        from divalg.verify import TaskSpec

        tiny = [
            TaskSpec(theorem_id="CONGRUENCE_NS", beta=1, m=2, points=2, seed=1),
            TaskSpec(theorem_id="MP_HERM", beta=1, m=2, q=1, points=2, seed=1),
            TaskSpec(theorem_id="CHOL", beta=1, m=2, q=1, points=2, seed=1),
        ]
        outcomes = {
            "CONGRUENCE_NS": RankError("a theorem check failed"),
            "MP_HERM": InconclusiveStatisticsError("too few draws"),
            "CHOL": ValueError("stray numpy failure"),
        }

        def run_task(task, jobs=1):
            raise outcomes[task.theorem_id]

        monkeypatch.setattr(cli, "preset_tasks", lambda preset, seed: tiny)
        monkeypatch.setattr(cli, "run_task", run_task)
        code, out, err = run_cli(capsys, "verify-all", "--format", "table")
        assert code == 4
        assert "Traceback" not in err
        assert "internal_errors=1" in out

    def test_verify_maps_a_stray_exception_to_exit_4(self, capsys, monkeypatch):
        import divalg.cli as cli

        def run_task(task, jobs=1):
            raise FloatingPointError("overflow encountered")

        monkeypatch.setattr(cli, "run_task", run_task)
        code, out, err = run_cli(
            capsys, "verify", "--task", "mp-herm", "--beta", "1", "--m", "2", "--q", "1",
        )
        assert code == 4
        assert out == ""
        assert err == "internal error: FloatingPointError: overflow encountered\n"

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", "--preset", "weekly"])
        assert exc.value.code == 2


RAISED = [
    # (exception, its message, verify's exit code and stderr prefix,
    #  verify-all's record key and exit code)
    (InconclusiveStatisticsError("too few draws"), "too few draws", 3, "inconclusive",
     "inconclusive", 3),
    (RankError("a theorem check failed"), "a theorem check failed", 1, "failed", "error", 1),
    # a ConfigurationError raised while a task runs is a usage error to
    # verify, and one more failed task to verify-all
    (ConfigurationError("no valid reference samples"), "no valid reference samples", 2,
     "error", "error", 1),
    (ValueError("stray numpy failure"), "ValueError: stray numpy failure", 4,
     "internal error", "internal_error", 4),
]


@pytest.mark.parametrize("exc,message,code,prefix,key,grid_code", RAISED,
                         ids=["inconclusive", "rank", "configuration", "internal"])
@pytest.mark.parametrize("command", ["verify", "demo", "verify-all"])
def test_a_raised_task_has_one_outcome(capsys, monkeypatch, command, exc, message, code,
                                       prefix, key, grid_code):
    import divalg.cli as cli
    from divalg.verify import TaskSpec

    def run_task(task, jobs=1):
        raise exc

    tiny = [TaskSpec(theorem_id="CONGRUENCE_NS", beta=1, m=2, points=2, seed=1)]
    monkeypatch.setattr(cli, "preset_tasks", lambda preset, seed: tiny)
    monkeypatch.setattr(cli, "run_task", run_task)
    argv = {"verify": ["verify", "--task", "mp-herm", "--beta", "1", "--m", "2", "--q", "1"],
            "demo": ["demo"], "verify-all": ["verify-all"]}[command]
    got, out, err = run_cli(capsys, *argv)
    if command != "verify-all":
        assert (got, out, err) == (code, "", f"{prefix}: {message}\n")
        return
    assert got == grid_code
    assert err == (f"{prefix}: {message}\n" if key == "internal_error" else "")
    (record,) = json.loads(out)["tasks"]
    assert record == {"task": tiny[0].to_dict(), key: message, "pass": False}


# each command that only evaluates or draws from its flags, and the cli
# global it calls to do so; test_a_raised_task_has_one_outcome pins the
# rule of verify, demo and verify-all
CALLEES = [
    (["gamma", "--m", "2", "--beta", "1", "--a", "3"], "mv_gamma_log"),
    (["volume", "--m", "1", "--n", "3", "--beta", "1"], "stiefel_volume_log"),
    (["factor", "--kind", "mp-herm", "--beta", "1", "--m", "2", "--q", "1", "--lambda", "2"],
     "factor_log"),
    (["sample", "psd", "--beta", "1", "--m", "2", "--q", "1"], "factorized_draw"),
]


@pytest.mark.parametrize("exc,code,err", [
    (RankError("boom"), 2, "error: boom\n"),
    (ValueError("boom"), 4, "internal error: ValueError: boom\n"),
], ids=["divalg", "other"])
@pytest.mark.parametrize("argv,callee", CALLEES, ids=[argv[0] for argv, _ in CALLEES])
def test_an_evaluating_command_has_one_error_rule(capsys, monkeypatch, tmp_path, argv, callee,
                                                   exc, code, err):
    """Any divalg error raised by what gamma, volume, factor or sample
    calls is a usage error; any other exception is an internal error."""
    import divalg.cli as cli

    def raise_it(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, callee, raise_it)
    target = tmp_path / "x.json"
    extra = ["--out", str(target)] if argv[0] == "sample" else []
    assert run_cli(capsys, *argv, *extra) == (code, "", err)
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--task", "mp-herm", "--beta", "1", "--m", "2", "--q", "1", "--points", "2"],
    ["verify-all"],
    ["demo"],
    ["sample", "psd", "--beta", "1", "--m", "2", "--q", "1"],
])
def test_unwritable_output_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    import divalg.cli as cli
    from divalg.verify import TaskSpec

    tiny = [TaskSpec(theorem_id="CONGRUENCE_NS", beta=1, m=2, points=2, seed=1)]
    monkeypatch.setattr(cli, "preset_tasks", lambda preset, seed: tiny)
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--task", "sd", "--beta", "1", "--m", "2", "--q", "1", "--trials", "10000"],
    ["sample", "psd", "--beta", "1", "--m", "2", "--q", "1"],
    ["demo", "--b-matrix", "random"],
    ["verify-all", "--preset", "desk"],
])
def test_negative_seed_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    """SeedSequence takes no negative entry: this was exit 4, and verify-all
    recorded the internal error for every task it ran."""
    import divalg.cli as cli

    def run_task(task, jobs=1):
        raise AssertionError("a task ran")

    monkeypatch.setattr(cli, "run_task", run_task)
    target = tmp_path / "x.json"
    extra = ["--out", str(target)] if argv[0] == "sample" else []
    code, out, err = run_cli(capsys, *argv, "--seed", "-1", *extra)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be nonnegative, got -1\n"
    assert not target.exists()


def test_non_finite_report_field_is_an_internal_error(capsys, monkeypatch):
    """The JSON writers refuse NaN and inf, so a stray one never reaches the
    output as a non-standard token."""
    import dataclasses

    import divalg.cli as cli

    real_run_task = cli.run_task

    def run_task(task, jobs=1):
        return dataclasses.replace(real_run_task(task, jobs=jobs), records=({"z": math.nan},))

    monkeypatch.setattr(cli, "run_task", run_task)
    code, out, err = run_cli(
        capsys, "verify", "--task", "congruence-ns", "--beta", "1", "--m", "2", "--points", "1",
    )
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ValueError: Out of range float values")
    assert err.count("\n") == 1


class TestParser:
    def test_every_task_name_maps_to_default_engine(self):
        for cli_name, theorem in TASK_NAMES.items():
            assert THEOREMS[theorem].default_engine in THEOREMS[theorem].engines

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_tabulate_constants_rejects_jobs_below_one(jobs):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "tabulate_constants.py"), "--jobs", jobs],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: --jobs must be at least 1, got {jobs}\n"
