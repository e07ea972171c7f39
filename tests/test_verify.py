import json
import math
import warnings
from functools import partial

import numpy as np
import pytest

from divalg import COMPLEX, QUATERNION, REAL, verify
from divalg.algebra import structure_tensor
from divalg.charts import assemble_sd_batch, chart_at, sample_stiefel_batch
from divalg.decomp import (
    cholesky_rank_q,
    eig_hermitian,
    pinv_batch,
    qr_positive,
    svd_rank_q,
)
from divalg.errors import (
    ConfigurationError,
    InconclusiveStatisticsError,
    RegistryError,
    UnsupportedAlgebraError,
)
from divalg.linalg import (
    Mat,
    complex_multiplicity,
    conj_transpose,
    ct_raw,
    mat_inv,
    mul_raw,
    numerical_rank,
    save_matrix,
    sdet_log,
)
from divalg.verify import (
    THEOREMS,
    ChartSpec,
    Report,
    TaskSpec,
    chart_jacobian_logdet,
    make_test_functions,
    run_discrepancy_demo,
    run_task,
)


def canonical(report: Report) -> str:
    doc = report.to_dict()
    doc.pop("runtime_ms")
    return json.dumps(doc, sort_keys=True)


class TestTaskSpec:
    def test_default_engine_applied(self):
        for theorem in THEOREMS:
            kwargs = dict(theorem_id=theorem, beta=1, m=3, n=3, q=2)
            if theorem in ("UHLIG_SVD", "UHLIG_MP", "UHLIG_QR"):
                kwargs["n"] = 2
            if theorem in ("QR", "CHOL_X"):
                kwargs["q"] = 3
            task = TaskSpec(**kwargs)
            assert task.engine == THEOREMS[theorem].default_engine
            assert task.engine in THEOREMS[theorem].engines

    def test_unknown_theorem_rejected(self):
        with pytest.raises(RegistryError):
            TaskSpec(theorem_id="LU", beta=1, m=2)

    def test_inadmissible_engine_rejected(self):
        with pytest.raises(RegistryError):
            TaskSpec(theorem_id="SD", beta=1, m=2, q=1, engine="CHART")
        with pytest.raises(RegistryError):
            TaskSpec(theorem_id="CHOL", beta=1, m=2, q=1, engine="MC_RATIO")

    def test_svd_congruence_chart_points_to_demo(self):
        with pytest.raises(RegistryError, match="demo"):
            TaskSpec(theorem_id="UHLIG_SVD", beta=1, m=2, n=1, engine="CHART")

    def test_octonions_rejected_as_conjectural(self):
        with pytest.raises(UnsupportedAlgebraError, match="conjectured"):
            TaskSpec(theorem_id="SD", beta=8, m=2, q=1)

    def test_bad_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskSpec(theorem_id="SD", beta=3, m=2, q=1)

    def test_rank_bounds(self):
        with pytest.raises(ConfigurationError):
            TaskSpec(theorem_id="SD", beta=1, m=2, q=3)
        with pytest.raises(ConfigurationError):
            TaskSpec(theorem_id="UHLIG_SVD", beta=1, m=2, n=3)
        with pytest.raises(ConfigurationError):
            TaskSpec(theorem_id="W", beta=1, m=2, n=3, q=0)

    def test_triangular_ratio_tasks_need_full_rank(self):
        with pytest.raises(ConfigurationError, match="not a\\s+constant"):
            TaskSpec(theorem_id="QR", beta=1, m=2, n=3, q=1)
        with pytest.raises(ConfigurationError):
            TaskSpec(theorem_id="CHOL_X", beta=1, m=2, n=3, q=1)
        with pytest.raises(ConfigurationError):
            TaskSpec(theorem_id="QR", beta=1, m=3, n=2, q=3)
        TaskSpec(theorem_id="QR", beta=1, m=2, n=3, q=2)  # admissible

    def test_trials_floor(self):
        with pytest.raises(ConfigurationError):
            TaskSpec(theorem_id="SD", beta=1, m=2, q=1, trials=100)

    def test_eigen_box_validation(self):
        with pytest.raises(ConfigurationError):
            TaskSpec(theorem_id="SD", beta=1, m=2, q=1, eigen_box=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            TaskSpec(theorem_id="SD", beta=1, m=2, q=1, eigen_box=(-1.0, 1.0))

    def test_gap_defaults_to_box_fraction(self):
        task = TaskSpec(theorem_id="SD", beta=1, m=2, q=1, eigen_box=(1.0, 3.0))
        assert task.gap == pytest.approx(2e-3)

    def test_unused_sizes_normalized(self):
        task = TaskSpec(theorem_id="SD", beta=1, m=3, n=7, q=2)
        assert task.n == 0
        task = TaskSpec(theorem_id="UHLIG_SVD", beta=1, m=3, n=2, q=5)
        assert task.q == 0

    def test_to_dict_roundtrip_fields(self):
        task = TaskSpec(theorem_id="W", beta=2, m=3, n=3, q=2, seed=5)
        doc = task.to_dict()
        assert doc["theorem_id"] == "W"
        assert doc["engine"] == "MC_EQUALITY"
        assert doc["eigen_box"] == [1.0, 2.0]
        assert TaskSpec(**{**doc, "eigen_box": tuple(doc["eigen_box"])}) == task


def test_theorem_table_pins_codes_names_and_engines():
    # the codes seed every substream: a changed or reordered code reseeds
    # every report of that theorem
    expected = {
        "SVD": (1, "svd", ("MC_RATIO",), "MC_RATIO"),
        "SD": (2, "sd", ("MC_RATIO",), "MC_RATIO"),
        "W": (3, "w", ("MC_EQUALITY",), "MC_EQUALITY"),
        "QR": (4, "qr", ("MC_RATIO",), "MC_RATIO"),
        "CHOL": (5, "chol", ("CHART",), "CHART"),
        "CHOL_X": (6, "chol-x", ("MC_RATIO",), "MC_RATIO"),
        "MP_HERM": (7, "mp-herm", ("CHART", "MC_EQUALITY"), "CHART"),
        "MP_RECT": (8, "mp-rect", ("CHART", "MC_EQUALITY"), "CHART"),
        "UHLIG_SVD": (9, "uhlig-svd", ("MC_EQUALITY", "DEMO"), "MC_EQUALITY"),
        "UHLIG_QR": (10, "uhlig-qr", ("CHART",), "CHART"),
        "UHLIG_MP": (11, "uhlig-mp", ("MC_EQUALITY",), "MC_EQUALITY"),
        "CONGRUENCE_NS": (12, "congruence-ns", ("CHART",), "CHART"),
    }
    got = {
        name: (t.code, t.cli_name, t.engines, t.default_engine)
        for name, t in THEOREMS.items()
    }
    assert got == expected
    assert list(THEOREMS) == list(expected)


class TestTestFunctions:
    def test_deterministic(self):
        samples = np.random.default_rng(0).normal(size=(64, 2, 2, 1))
        a = make_test_functions(7, 3, samples)
        b = make_test_functions(7, 3, samples)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.center, fb.center)
            assert fa.sigma == fb.sigma

    def test_bounded_and_positive(self):
        samples = np.random.default_rng(1).normal(size=(32, 3, 3, 2))
        fns = make_test_functions(3, 5, samples)
        batch = np.random.default_rng(2).normal(size=(100, 3, 3, 2))
        for fn in fns:
            vals = fn(batch)
            assert np.all(vals > 0) and np.all(vals <= 1.0)

    def test_centers_come_from_samples(self):
        samples = np.random.default_rng(4).normal(size=(16, 2, 1, 1))
        fns = make_test_functions(0, 4, samples)
        flat = samples.reshape(16, -1)
        for fn in fns:
            dists = np.abs(flat - fn.center.reshape(1, -1)).sum(axis=1)
            assert dists.min() == 0.0

    def test_mc_estimate_sums_each_function_exactly(self):
        """_mc_estimate evaluates all test functions in one pass; its sums
        equal those of a block loop over TestFunction.__call__ bit for bit."""
        samples = np.random.default_rng(5).normal(size=(32, 3, 2, 2))
        fns = make_test_functions(5, 5, samples)

        def side_fn(rng, count):
            return rng.normal(size=(count, 3, 2, 2)), rng.normal(size=count)

        sizes = [verify.BLOCK_SIZE, 100]
        trials = sum(sizes)
        means, stderrs = verify._mc_estimate(side_fn, 0.3, fns, trials, 1, 2, 3, 1)
        total = np.zeros((len(fns), 2))
        for idx, size in enumerate(sizes):
            data, logw = side_fn(verify._substream(1, 2, 3, idx), size)
            w = np.exp(logw + 0.3)
            for k, fn in enumerate(fns):
                v = fn(data) * w
                total[k] += (v.sum(), np.dot(v, v))
        expected = total[:, 0] / trials
        var = np.maximum(total[:, 1] - trials * expected**2, 0.0) / (trials - 1)
        assert np.array_equal(means, expected)
        assert np.array_equal(stderrs, np.sqrt(var / trials))

    def test_validation(self):
        samples = np.zeros((4, 2, 2, 1))
        with pytest.raises(ConfigurationError):
            make_test_functions(0, 0, samples)
        with pytest.raises(ConfigurationError):
            make_test_functions(0, 1, np.zeros((0, 2, 2, 1)))


class TestChartClosedForms:
    def test_identity_map_has_zero_logdet(self):
        rng = np.random.default_rng(3)
        lam = np.array([[1.7]])
        w1 = sample_stiefel_batch(3, 1, REAL, rng, 1)
        s = Mat(REAL, assemble_sd_batch(w1, lam, 1)[0])
        spec, coords = chart_at(s, 1, "psd")
        out = ChartSpec("psd", REAL, (3, 1), spec.pivots)
        val = chart_jacobian_logdet(lambda a: a, spec, coords, out)
        assert abs(val) < 1e-8

    def test_non_finite_map_output_is_rejected(self):
        spec, coords = chart_at(Mat(REAL, np.array([[[2.0]]])), 1, "psd")
        out = ChartSpec("psd", REAL, (1, 1), spec.pivots)
        with pytest.raises(ValueError, match="finite"):
            chart_jacobian_logdet(lambda a: a * np.nan, spec, coords, out)

    def test_scalar_inverse(self):
        s = Mat(REAL, np.array([[[2.0]]]))
        spec, coords = chart_at(s, 1, "psd")
        out = ChartSpec("psd", REAL, (1, 1), spec.pivots)
        val = chart_jacobian_logdet(partial(pinv_batch, beta=1), spec, coords, out)
        assert val == pytest.approx(math.log(0.25), abs=1e-8)

    def test_rank_one_pseudo_inverse_quartic_law(self):
        # real 2x2 rank-1: |J| = lam^-4 at any chart point
        rng = np.random.default_rng(8)
        for _ in range(3):
            lam = float(rng.uniform(0.6, 2.5))
            w1 = sample_stiefel_batch(2, 1, REAL, rng, 1)
            s = Mat(REAL, assemble_sd_batch(w1, np.array([[lam]]), 1)[0])
            spec, coords = chart_at(s, 1, "psd")
            out = ChartSpec("psd", REAL, (2, 1), spec.pivots)
            val = chart_jacobian_logdet(partial(pinv_batch, beta=1), spec, coords, out)
            assert val == pytest.approx(-4.0 * math.log(lam), abs=1e-6)

    def test_pseudo_inverse_pivot_invariance(self):
        rng = np.random.default_rng(5)
        lam = 1.3
        w1 = sample_stiefel_batch(2, 1, REAL, rng, 1)
        s = Mat(REAL, assemble_sd_batch(w1, np.array([[lam]]), 1)[0])
        vals = []
        for pivot in ((0, 1), (1, 0)):
            spec, coords = chart_at(s, 1, "psd", pivot)
            out = ChartSpec("psd", REAL, (2, 1), pivot)
            inverse = partial(pinv_batch, beta=1)
            vals.append(chart_jacobian_logdet(inverse, spec, coords, out))
        assert vals[0] == pytest.approx(vals[1], abs=1e-6)

    def test_pseudo_inverse_scale_homogeneity(self):
        rng = np.random.default_rng(6)
        lam, c = 1.4, 1.9
        w1 = sample_stiefel_batch(2, 1, COMPLEX, rng, 1)
        base = assemble_sd_batch(w1, np.array([[lam]]), 2)[0]
        vals = []
        for scale in (1.0, c):
            s = Mat(COMPLEX, scale * base)
            spec, coords = chart_at(s, 1, "psd")
            out = ChartSpec("psd", COMPLEX, (2, 1), spec.pivots)
            inverse = partial(pinv_batch, beta=2)
            vals.append(chart_jacobian_logdet(inverse, spec, coords, out))
        # beta=2, m=2, q=1: exponent beta(-2m+q+1)-2 = -6
        assert vals[1] - vals[0] == pytest.approx(-6.0 * math.log(c), abs=1e-6)

    def test_diagonal_congruence_determinant(self, tmp_path):
        bfile = tmp_path / "b.json"
        bd = np.zeros((2, 2, 1))
        bd[0, 0, 0], bd[1, 1, 0] = 1.0, 2.0
        save_matrix(Mat(REAL, bd), bfile)
        task = TaskSpec(
            theorem_id="CONGRUENCE_NS", beta=1, m=2, b_source=str(bfile),
            points=4, seed=1,
        )
        rep = run_task(task)
        assert rep.passed
        for rec in rep.records:
            # factor det(B)^{beta(m-1)+2} = 2^3 = 8, independent of the point
            assert rec["analytic_log"] == pytest.approx(math.log(8.0), abs=1e-12)
            assert rec["abs_err"] <= rec["tol"]

    def test_congruence_by_b_from_file_rank_deficient(self, tmp_path):
        bfile = tmp_path / "b.json"
        bd = np.zeros((2, 2, 1))
        bd[0, 0, 0] = bd[0, 1, 0] = bd[1, 1, 0] = 1.0
        save_matrix(Mat(REAL, bd), bfile)
        task = TaskSpec(
            theorem_id="UHLIG_QR", beta=1, m=2, n=1, b_source=str(bfile),
            points=5, seed=2,
        )
        rep = run_task(task)
        assert rep.passed

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_cholesky_gram_chart(self, beta):
        task = TaskSpec(theorem_id="CHOL", beta=beta, m=2, q=1, points=4, seed=3)
        rep = run_task(task)
        assert rep.passed
        assert rep.engine == "CHART"

    @pytest.mark.parametrize(
        "theorem,sizes",
        [
            ("MP_HERM", dict(m=2, q=1)),
            ("MP_RECT", dict(n=2, m=2, q=1)),
            ("UHLIG_QR", dict(m=2, n=1)),
            ("CONGRUENCE_NS", dict(m=2)),
        ],
    )
    def test_chart_tasks_pass_complex(self, theorem, sizes):
        task = TaskSpec(theorem_id=theorem, beta=2, points=4, seed=4, **sizes)
        rep = run_task(task)
        assert rep.passed
        assert all(set(r) >= {"analytic_log", "numeric_log", "abs_err", "tol"}
                   for r in rep.records)


class TestDiscrepancyDemo:
    def test_pinned_rectangular_case(self):
        task = TaskSpec(
            theorem_id="UHLIG_SVD", beta=1, m=2, n=1, engine="DEMO",
            b_source="demo",
        )
        rep = run_discrepancy_demo(task)
        (rec,) = rep.records
        assert rec["chart_det"] == pytest.approx(1.0, abs=1e-6)
        assert rec["uhlig_qr_factor"] == pytest.approx(1.0, abs=1e-6)
        assert rec["uhlig_svd_factor"] == pytest.approx(2.0, abs=1e-6)
        assert rec["uhlig_svd_alt_factor"] == pytest.approx(2.0, abs=1e-6)
        assert rec["expected_mismatch"] is True
        assert rec["qr_matches_chart"] is True
        assert rec["svd_differs_from_chart"] is True
        assert rep.passed

    def test_square_case_factors_coincide(self):
        task = TaskSpec(
            theorem_id="UHLIG_SVD", beta=1, m=2, n=2, engine="DEMO",
            b_source="demo",
        )
        rep = run_discrepancy_demo(task)
        (rec,) = rep.records
        assert rec["expected_mismatch"] is False
        assert rec["uhlig_svd_factor"] == pytest.approx(
            rec["uhlig_qr_factor"], rel=1e-9
        )
        assert rep.passed

    def test_demo_requires_demo_engine(self):
        task = TaskSpec(theorem_id="UHLIG_SVD", beta=1, m=2, n=1)
        with pytest.raises(RegistryError):
            run_discrepancy_demo(task)


class TestEqualityEngine:
    @pytest.mark.parametrize(
        "theorem,kwargs",
        [
            ("W", dict(n=3, m=2, q=1)),
            ("MP_HERM", dict(m=2, q=1)),
            ("MP_RECT", dict(n=2, m=2, q=1)),
            ("UHLIG_SVD", dict(m=2, n=1, b_source="random")),
            ("UHLIG_SVD", dict(m=2, n=1, b_source="identity")),
            ("UHLIG_MP", dict(m=2, n=1, b_source="random")),
        ],
    )
    def test_small_tasks_balance(self, theorem, kwargs):
        task = TaskSpec(
            theorem_id=theorem, beta=1, engine="MC_EQUALITY",
            trials=30_000, seed=11, **kwargs,
        )
        rep = run_task(task)
        assert rep.passed
        for rec in rep.records:
            assert rec["z"] <= task.ztol
            assert {"lhs", "rhs", "lhs_stderr", "rhs_stderr"} <= set(rec)

    def test_identity_b_control_is_tight(self):
        task = TaskSpec(
            theorem_id="UHLIG_SVD", beta=2, m=2, n=1, b_source="identity",
            trials=30_000, seed=13,
        )
        rep = run_task(task)
        assert rep.passed
        assert max(r["rel_stderr"] for r in rep.records) < 0.05

    def test_starved_pilot_raises_inconclusive(self):
        task = TaskSpec(
            theorem_id="UHLIG_SVD", beta=1, m=3, n=2, b_source="random",
            trials=30_000, seed=1, gap=0.99,
        )
        with pytest.raises(InconclusiveStatisticsError):
            run_task(task)


class TestRatioEngine:
    def test_spectral_ratio_constant(self):
        task = TaskSpec(
            theorem_id="SD", beta=1, m=2, q=1, engine="MC_RATIO",
            trials=60_000, seed=21,
        )
        rep = run_task(task)
        assert rep.passed
        assert rep.constant_estimate == pytest.approx(2.0 * math.sqrt(2.0), rel=0.05)
        summary = rep.records[-1]
        assert summary["summary"] is True
        assert summary["cv"] <= task.cv_tol

    def test_triangular_ratio_is_one(self):
        task = TaskSpec(
            theorem_id="QR", beta=1, n=2, m=2, q=2, engine="MC_RATIO",
            trials=60_000, seed=22,
        )
        rep = run_task(task)
        assert rep.passed
        assert rep.constant_estimate == pytest.approx(1.0, rel=0.05)

    def test_singular_value_ratio_constancy(self):
        task = TaskSpec(
            theorem_id="SVD", beta=1, n=2, m=2, q=1, engine="MC_RATIO",
            trials=60_000, seed=23,
        )
        rep = run_task(task)
        assert rep.passed

    @pytest.mark.parametrize(
        "theorem,beta,sizes",
        [("SD", 1, {"m": 2}), ("SD", 2, {"m": 2}), ("SVD", 1, {"n": 2, "m": 2})],
    )
    def test_constant_is_scale_invariant(self, theorem, beta, sizes):
        """Scaling the eigen box by 1e+-10 scales every coordinate box and
        every S11 block with it, so the constant moves only by rounding."""
        constants = [
            run_task(TaskSpec(
                theorem_id=theorem, beta=beta, q=1, engine="MC_RATIO",
                trials=10_000, seed=0, eigen_box=(lo, 2.0 * lo), **sizes,
            )).constant_estimate
            for lo in (1e-10, 1.0, 1e10)
        ]
        assert constants[0] == pytest.approx(constants[1], rel=1e-12, abs=0.0)
        assert constants[2] == pytest.approx(constants[1], rel=1e-12, abs=0.0)


class TestDeterminism:
    def test_equality_report_independent_of_jobs(self):
        task = TaskSpec(
            theorem_id="UHLIG_MP", beta=1, m=2, n=1, b_source="random",
            trials=20_000, seed=31,
        )
        assert canonical(run_task(task, jobs=1)) == canonical(run_task(task, jobs=8))

    def test_ratio_report_independent_of_jobs(self):
        task = TaskSpec(
            theorem_id="SD", beta=1, m=2, q=1, engine="MC_RATIO",
            trials=20_000, seed=32,
        )
        assert canonical(run_task(task, jobs=1)) == canonical(run_task(task, jobs=4))

    def test_chart_report_independent_of_jobs(self):
        task = TaskSpec(theorem_id="MP_HERM", beta=2, m=2, q=1, points=6, seed=33)
        assert canonical(run_task(task, jobs=1)) == canonical(run_task(task, jobs=4))

    def test_chart_points_run_without_a_pool(self, monkeypatch):
        """jobs reaches only the Monte-Carlo blocks; CHART points run serially."""
        def refuse(*args, **kwargs):
            raise AssertionError("thread pool started for a CHART task")

        monkeypatch.setattr(verify, "ThreadPoolExecutor", refuse)
        task = TaskSpec(theorem_id="MP_HERM", beta=2, m=2, q=1, points=3, seed=33)
        assert run_task(task, jobs=4).passed

    def test_repeat_runs_identical(self):
        task = TaskSpec(
            theorem_id="W", beta=1, n=2, m=2, q=1, trials=20_000, seed=34,
        )
        assert canonical(run_task(task)) == canonical(run_task(task))


class TestReportShape:
    def test_json_is_canonical(self):
        task = TaskSpec(theorem_id="CONGRUENCE_NS", beta=1, m=2, points=2, seed=41)
        rep = run_task(task)
        doc = json.loads(rep.to_json())
        assert list(doc) == sorted(doc)
        assert doc["task"]["theorem_id"] == "CONGRUENCE_NS"
        assert doc["pass"] is True
        assert isinstance(doc["version"], str) and doc["version"]

    def test_pass_flag_consistent_with_records(self):
        task = TaskSpec(theorem_id="MP_HERM", beta=1, m=2, q=1, points=3, seed=42)
        rep = run_task(task)
        assert rep.passed == all(r["pass"] for r in rep.records)


def test_quaternion_tasks_make_no_einsum_call(monkeypatch):
    """Algebra products run the Cayley-Dickson rule on complex views; only
    the cached structure-tensor build may contract with einsum."""
    structure_tensor(4)

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called on the task path")

    monkeypatch.setattr(np, "einsum", refuse)
    chart = run_task(TaskSpec(theorem_id="MP_HERM", beta=4, m=3, q=2, points=2, seed=5))
    assert len(chart.records) == 2
    ratio = run_task(
        TaskSpec(theorem_id="SD", beta=4, m=2, q=1, engine="MC_RATIO", trials=10_000, seed=6)
    )
    assert ratio.records


def _record_lapack(monkeypatch) -> list:
    """(name, dtype kind, shape) of every numpy.linalg factorization call."""
    calls = []
    for name in ("eigvalsh", "svd", "eigh", "inv", "slogdet", "cholesky", "solve"):
        def record(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            arr = np.asarray(a)
            calls.append((_name, arr.dtype.kind, arr.shape))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    return calls


def test_batched_linalg_runs_on_the_complex_form(monkeypatch):
    """Batched eigenvalue, SVD, inverse, Cholesky and log-determinant calls
    get the complex form of side r*k, never a real embedding of side beta*k;
    the one real batched call is the Hausdorff Gram on the p x p side of the
    completed block, p = (n - q)(m - q) beta."""
    calls = _record_lapack(monkeypatch)
    tasks = [
        TaskSpec(theorem_id="SVD", beta=4, n=3, m=2, q=1, engine="MC_RATIO",
                 trials=10_000, seed=6),
        TaskSpec(theorem_id="MP_HERM", beta=4, m=3, q=2, points=2, seed=5),
    ]
    gram_side = (3 - 1) * (2 - 1) * 4
    for task in tasks:
        calls.clear()
        run_task(task)
        batched = [c for c in calls if len(c[2]) >= 3]
        assert batched, task
        r = complex_multiplicity(task.beta)
        for name, kind, shape in batched:
            if kind == "c":
                assert shape[-2] % r == 0 and shape[-1] % r == 0, (task, name, shape)
            else:
                assert task.beta == 4 and task.engine == "MC_RATIO", (task, name, shape)
                assert (name, shape[-2:]) == ("slogdet", (gram_side, gram_side))


def test_single_matrix_api_runs_on_the_complex_form(monkeypatch):
    """At beta=4 every numpy.linalg factorization of the single-matrix API
    gets the 2m x 2m complex adjoint, never the 4m x 4m real embedding."""
    calls = _record_lapack(monkeypatch)
    m = 3
    x = Mat(QUATERNION, np.random.default_rng(8).normal(size=(m, m, 4)))
    s = conj_transpose(x) @ x
    eig_hermitian(s, m)
    svd_rank_q(x, m)
    sdet_log(x)
    numerical_rank(x)
    mat_inv(x)
    cholesky_rank_q(s, m)
    qr_positive(x, m)
    assert {name for name, _, _ in calls} == {
        "eigh", "svd", "slogdet", "inv", "cholesky", "solve"
    }
    for name, kind, shape in calls:
        assert (kind, shape[-2:]) == ("c", (2 * m, 2 * m)), (name, kind, shape)


def test_small_blocks_take_closed_forms(monkeypatch):
    """No batched LAPACK call on a block of algebra side 1, and no batched
    Hermitian eigvalsh, eigh, slogdet or inv on side 2: those blocks take
    the closed forms of linalg.  The rank-2 UHLIG images have their spectra
    taken on the 2 x 2 side, so UHLIG_SVD makes no LAPACK call at all."""
    calls = _record_lapack(monkeypatch)
    tasks = [
        TaskSpec(theorem_id="UHLIG_SVD", beta=2, m=3, n=2, trials=10_000, seed=7),
        TaskSpec(theorem_id="UHLIG_MP", beta=2, m=2, n=1, trials=10_000, seed=7),
        TaskSpec(theorem_id="SD", beta=4, m=2, q=1, engine="MC_RATIO",
                 trials=10_000, seed=6),
        TaskSpec(theorem_id="MP_HERM", beta=4, m=2, q=1, points=2, seed=5),
    ]
    gram_side = (2 - 1) * (2 - 1) * 4
    for task in tasks:
        calls.clear()
        if task.engine == "CHART":
            run_task(task)
        else:
            # the builder draws the pilots; then one batch from each side
            sides = verify._problem(task)
            for side_fn in (sides[0], sides[2]):
                _, logw = side_fn(np.random.default_rng(task.seed), 1024)
                assert np.isfinite(logw).any(), task
        batched = [c for c in calls if len(c[2]) >= 3]
        if task.theorem_id == "UHLIG_SVD":
            assert batched == [], task
        r = complex_multiplicity(task.beta)
        for name, kind, shape in batched:
            if kind != "c" and task.beta > 1:  # the real Hausdorff Gram of SD
                assert (name, shape[-2:]) == ("slogdet", (gram_side, gram_side))
                continue
            side = (shape[-2] // r, shape[-1] // r)
            assert min(side) > 1, (task, name, shape)
            if name in ("eigvalsh", "eigh", "slogdet", "inv"):
                assert side != (2, 2), (task, name, shape)


def test_chart_records_carry_the_gap_margin():
    """The margin of each point's spectral gap over the gap tolerance is a
    record field, in place of a RuntimeWarning (point 1 here sits at 5.9)."""
    task = TaskSpec(theorem_id="CONGRUENCE_NS", beta=1, m=2, points=2, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = run_task(task)
    sampler = verify._problem(task)
    for rec in rep.records:
        rng = verify._substream(task.seed, task.theorem.code, verify._SIDE_POINTS, rec["point"])
        gap_at = sampler(rng)[-1]
        assert rec["gap_margin"] == gap_at / task.gap
    assert min(r["gap_margin"] for r in rep.records) < 10.0
    chol = run_task(TaskSpec(theorem_id="CHOL", beta=1, m=2, q=1, points=2, seed=42))
    assert all(r["gap_margin"] is None for r in chol.records)
    json.dumps(chol.to_dict(), allow_nan=False)


# ---------------------------------------------------------------------------
# batched CHART Jacobian against the per-perturbation loop it replaced


def _loop_pinv(x: Mat) -> Mat:
    """W1 diag(1/d) V1* from the algebra SVD, one matrix at a time."""
    parts = svd_rank_q(x, numerical_rank(x))
    scaled = parts.w1.data / parts.d[None, :, None]
    return Mat(x.kind, mul_raw(scaled, ct_raw(parts.v1.data), x.kind.beta))


def _loop_jacobian_logdet(mat_map, in_spec, coords0, out_spec, step):
    """One completion, one single-Mat map and one extraction per perturbation."""
    k = coords0.size
    jac = np.empty((k, k))
    h = np.maximum(step, step * np.abs(coords0))
    for i in range(k):
        cp = coords0.copy()
        cm = coords0.copy()
        cp[i] += h[i]
        cm[i] -= h[i]
        f = [
            out_spec.extract_batch(
                mat_map(Mat(in_spec.kind, in_spec.complete_batch(c[None])[0])).data[None]
            )[0]
            for c in (cp, cm)
        ]
        jac[:, i] = (f[0] - f[1]) / (2.0 * h[i])
    return float(np.linalg.slogdet(jac)[1])


def _loop_map(task: TaskSpec):
    if task.theorem_id in ("MP_HERM", "MP_RECT"):
        return _loop_pinv
    if task.theorem_id == "CHOL":
        return lambda t: conj_transpose(t) @ t
    b = verify._draw_b(task)

    def congruence(y: Mat) -> Mat:
        out = conj_transpose(b) @ y @ b
        return Mat(y.kind, (out.data + ct_raw(out.data)) / 2.0)

    return congruence


CHART_CASES = [
    ("MP_HERM", dict(m=3, q=2)),
    ("MP_RECT", dict(n=3, m=2, q=1)),
    ("CHOL", dict(m=3, q=2)),
    ("CONGRUENCE_NS", dict(m=2)),
]


@pytest.mark.parametrize("theorem,sizes", CHART_CASES, ids=[c[0] for c in CHART_CASES])
def test_batched_jacobian_matches_per_perturbation_loop(theorem, sizes):
    task = TaskSpec(theorem_id=theorem, beta=4, points=3, seed=11, **sizes)
    sample = verify._problem(task)
    mat_map = _loop_map(task)
    for i in range(task.points):
        rng = verify._substream(task.seed, THEOREMS[theorem].code, verify._SIDE_POINTS, i)
        (in_spec, coords0), map_batch, out_spec, _, _ = sample(rng)
        batched = verify.chart_jacobian_logdet(map_batch, in_spec, coords0, out_spec, task.step)
        looped = _loop_jacobian_logdet(mat_map, in_spec, coords0, out_spec, task.step)
        assert batched == pytest.approx(looped, abs=1e-8)


@pytest.mark.parametrize("theorem,sizes", CHART_CASES, ids=[c[0] for c in CHART_CASES])
def test_one_chart_point_makes_one_completion_and_one_map_call(monkeypatch, theorem, sizes):
    calls = {"complete": 0, "map": 0}
    complete = ChartSpec.complete_batch

    def counted_complete(self, coords):
        calls["complete"] += 1
        return complete(self, coords)

    problem = verify._problem

    def counted_problem(task):
        sample = problem(task)

        def counted_sample(rng):
            point, map_fn, *rest = sample(rng)

            def counted_map(data):
                calls["map"] += 1
                return map_fn(data)

            return (point, counted_map, *rest)

        return counted_sample

    monkeypatch.setattr(ChartSpec, "complete_batch", counted_complete)
    monkeypatch.setattr(verify, "_problem", counted_problem)
    rep = run_task(TaskSpec(theorem_id=theorem, beta=4, points=1, seed=12, **sizes))
    assert rep.passed
    assert calls == {"complete": 1, "map": 1}
