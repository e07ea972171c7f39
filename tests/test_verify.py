import dataclasses
import json
import math
import sys
import threading
import warnings
from functools import partial

import numpy as np
import pytest

from divalg import COMPLEX, QUATERNION, REAL, charts, verify
from divalg.algebra import structure_tensor
from divalg.charts import (
    assemble,
    chart_at_batch,
    factorized_draw,
    factorized_mass_log,
    sample_stiefel_batch,
)
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
    SingularBlockError,
    UnsupportedAlgebraError,
)
from divalg.linalg import (
    Mat,
    complex_multiplicity,
    conj_transpose,
    ct_raw,
    eigvalsh_raw,
    inv_sqrt_hermitian_raw,
    logdet_hermitian_raw,
    mat_inv,
    mul_raw,
    numerical_rank,
    save_matrix,
    sdet_log,
)
from divalg.measures import FACTORS
from divalg.verify import (
    THEOREMS,
    ChartSpec,
    Report,
    TaskSpec,
    _chart_jacobian_logdets,
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

    def test_negative_seed_rejected(self):
        # SeedSequence takes only nonnegative entries
        with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
            TaskSpec(theorem_id="SD", beta=1, m=2, q=1, engine="MC_RATIO", seed=-1)

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

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2, 2, 2), (3, 3, 1), (3, 2, 2), (3, 3, 2)],
                             ids=["D4", "D8", "D9", "D12", "D18"])
    def test_mc_estimate_sums_each_function_exactly(self, shape):
        """_mc_estimate scores on coordinate planes; its sums equal those of
        a block loop over TestFunction.__call__ bit for bit, on both sides
        of D = 8, where numpy's summation order changes."""
        samples = np.random.default_rng(5).normal(size=(32,) + shape)
        fns = make_test_functions(5, 5, samples)

        def side_fn(rng, count):
            return rng.normal(size=(count,) + shape), rng.normal(size=count)

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

    @pytest.mark.filterwarnings("error")
    def test_mc_estimate_is_exact_under_binary_scaling(self):
        """A side whose data and reference draws are scaled by 2^k, the
        widths with them, gives the same means and stderrs bit for bit at
        k = +-600, where the squared deviations leave the float range."""
        ref = np.random.default_rng(9).normal(size=(16, 2, 2, 2))

        def estimate(k):
            fns = make_test_functions(5, 3, np.ldexp(ref, k))

            def side_fn(rng, count):
                return np.ldexp(rng.normal(size=(count, 2, 2, 2)), k), rng.normal(size=count)

            return fns, verify._mc_estimate(side_fn, 0.0, fns, verify.BLOCK_SIZE + 50, 1, 2, 3, 1)

        base_fns, (means, stderrs) = estimate(0)
        for k in (600, -600):
            fns, (m, se) = estimate(k)
            assert [f.sigma for f in fns] == [math.ldexp(f.sigma, k) for f in base_fns]
            assert m.tobytes() == means.tobytes() and se.tobytes() == stderrs.tobytes()

    def test_mc_estimate_keeps_nan_and_inf_log_weights(self):
        """Only -inf rows are dropped: a NaN or +inf log-weight still makes
        the estimate inconclusive, where an isfinite filter would hide it."""
        fns = make_test_functions(5, 3, np.random.default_rng(5).normal(size=(8, 2, 2, 1)))
        for bad in (np.nan, np.inf):
            def side_fn(rng, count, bad=bad):
                logw = rng.normal(size=count)
                logw[::7] = -np.inf
                logw[3] = bad
                return rng.normal(size=(count, 2, 2, 1)), logw

            with pytest.raises(InconclusiveStatisticsError):
                verify._mc_estimate(side_fn, 0.0, fns, 500, 1, 2, 3, 1)

    def test_mc_estimate_refuses_a_stderr_that_underflows(self):
        """At weights near 1e-170 the means are positive, but each (w f)^2
        underflows to 0 and the stderrs with them: a z-test would divide by
        a zero stderr, so the estimate is inconclusive.  The same draws at
        weights near 1 are not."""
        fns = make_test_functions(5, 3, np.random.default_rng(8).normal(size=(8, 2, 2, 1)))

        def side_fn(rng, count):
            return rng.normal(size=(count, 2, 2, 1)), rng.normal(size=count)

        means, stderrs = verify._mc_estimate(side_fn, 0.0, fns, 500, 1, 2, 3, 1)
        assert np.all(means > 0.0) and np.all(stderrs > 0.0)
        with pytest.raises(InconclusiveStatisticsError, match="stderr underflows"):
            verify._mc_estimate(side_fn, math.log(1e-170), fns, 500, 1, 2, 3, 1)

    def test_mc_estimate_never_reads_dead_rows(self):
        """The data of -inf rows is never read: NaN there gives the same
        means and stderrs as zeros, also in a block with no live row."""
        fns = make_test_functions(5, 4, np.random.default_rng(6).normal(size=(8, 3, 2, 2)))

        def side_fn(rng, count, fill):
            data = rng.normal(size=(count, 3, 2, 2))
            logw = rng.normal(size=count)
            dead = rng.uniform(size=count) < (0.4 if count == verify.BLOCK_SIZE else 1.0)
            data[dead] = fill
            return data, np.where(dead, -np.inf, logw)

        trials = verify.BLOCK_SIZE + 300
        with np.errstate(invalid="raise"):
            got = verify._mc_estimate(partial(side_fn, fill=np.nan), 0.2, fns, trials, 1, 2, 3, 1)
        want = verify._mc_estimate(partial(side_fn, fill=0.0), 0.2, fns, trials, 1, 2, 3, 1)
        assert np.all(np.isfinite(got[0])) and np.all(got[1] > 0.0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_pool_workers_is_capped_by_cpus_and_blocks(self, monkeypatch):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
        assert verify._pool_workers(10**6, 13) == 4
        assert verify._pool_workers(10**6, 2) == 2
        assert verify._pool_workers(3, 13) == 3
        assert verify._pool_workers(1, 13) == 1
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        assert verify._pool_workers(8, 13) == 1

    def test_mc_estimate_starts_no_thread_per_job(self, monkeypatch):
        """A huge jobs value asks the pool for at most one worker per CPU
        and per block, and the estimate equals the serial one."""
        fns = make_test_functions(5, 3, np.random.default_rng(7).normal(size=(8, 2, 2, 1)))

        def side_fn(rng, count):
            return rng.normal(size=(count, 2, 2, 1)), rng.normal(size=count)

        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(verify, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        threads = threading.active_count()
        trials = 3 * verify.BLOCK_SIZE + 10
        got = verify._mc_estimate(side_fn, 0.1, fns, trials, 1, 2, 3, 10**6)
        assert asked == [2] and threading.active_count() == threads
        want = verify._mc_estimate(side_fn, 0.1, fns, trials, 1, 2, 3, 1)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_mc_estimate_threads_score_in_their_own_scratch(self, monkeypatch):
        """Each worker thread gathers and scores its blocks in a scratch
        buffer of its own: eight threads on two CPUs, switching every
        microsecond, give the serial estimate bit for bit."""
        fns = make_test_functions(5, 3, np.random.default_rng(11).normal(size=(8, 3, 2, 1)))

        def side_fn(rng, count):
            logw = rng.normal(size=count)
            logw[rng.uniform(size=count) < 0.3] = -np.inf
            return rng.normal(size=(count, 3, 2, 1)), logw

        trials = 8 * verify.BLOCK_SIZE
        want = verify._mc_estimate(side_fn, 0.1, fns, trials, 1, 2, 3, 1)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = verify._mc_estimate(side_fn, 0.1, fns, trials, 1, 2, 3, 8)
        finally:
            sys.setswitchinterval(interval)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_validation(self):
        samples = np.zeros((4, 2, 2, 1))
        with pytest.raises(ConfigurationError):
            make_test_functions(0, 0, samples)
        with pytest.raises(ConfigurationError):
            make_test_functions(0, 1, np.zeros((0, 2, 2, 1)))


def _chart_at_one(a: Mat, q: int, space: str, pivots=None):
    """chart_at_batch at the one matrix a, with its pivot pair when given:
    (spec, coords (k,), the per-row pivots of the batch of one)."""
    given = None if pivots is None else tuple(np.asarray(p)[None] for p in pivots)
    spec, piv, coords = chart_at_batch(a.data[None], q, space, given)
    return spec, coords[0], piv


class TestChartClosedForms:
    def test_identity_map_has_zero_logdet(self):
        rng = np.random.default_rng(3)
        lam = np.array([[1.7]])
        w1 = sample_stiefel_batch(3, 1, REAL, (rng,), 1)
        s = Mat(REAL, assemble(lam, (w1,), 1)[0])
        spec, coords, piv = _chart_at_one(s, 1, "psd")
        out = ChartSpec("psd", REAL, (3, 1))
        val = _chart_jacobian_logdets(lambda a: a, spec, coords[None], out, 1e-5, piv, piv)[0]
        assert abs(val) < 1e-8

    def test_non_finite_map_output_is_rejected(self):
        spec, coords, piv = _chart_at_one(Mat(REAL, np.array([[[2.0]]])), 1, "psd")
        out = ChartSpec("psd", REAL, (1, 1))
        with pytest.raises(ValueError, match="finite"):
            _chart_jacobian_logdets(lambda a: a * np.nan, spec, coords[None], out, 1e-5,
                                    piv, piv)

    def test_scalar_inverse(self):
        s = Mat(REAL, np.array([[[2.0]]]))
        spec, coords, piv = _chart_at_one(s, 1, "psd")
        out = ChartSpec("psd", REAL, (1, 1))
        val = _chart_jacobian_logdets(partial(pinv_batch, beta=1), spec, coords[None], out,
                                      1e-5, piv, piv)[0]
        assert val == pytest.approx(math.log(0.25), abs=1e-8)

    def test_rank_one_pseudo_inverse_quartic_law(self):
        # real 2x2 rank-1: |J| = lam^-4 at any chart point
        rng = np.random.default_rng(8)
        for _ in range(3):
            lam = float(rng.uniform(0.6, 2.5))
            w1 = sample_stiefel_batch(2, 1, REAL, (rng,), 1)
            s = Mat(REAL, assemble(np.array([[lam]]), (w1,), 1)[0])
            spec, coords, piv = _chart_at_one(s, 1, "psd")
            out = ChartSpec("psd", REAL, (2, 1))
            val = _chart_jacobian_logdets(partial(pinv_batch, beta=1), spec, coords[None], out,
                                          1e-5, piv, piv)[0]
            assert val == pytest.approx(-4.0 * math.log(lam), abs=1e-6)

    def test_pseudo_inverse_pivot_invariance(self):
        rng = np.random.default_rng(5)
        lam = 1.3
        w1 = sample_stiefel_batch(2, 1, REAL, (rng,), 1)
        s = Mat(REAL, assemble(np.array([[lam]]), (w1,), 1)[0])
        vals = []
        for pivot in ((0, 1), (1, 0)):
            spec, coords, piv = _chart_at_one(s, 1, "psd", (pivot, pivot))
            out = ChartSpec("psd", REAL, (2, 1))
            inverse = partial(pinv_batch, beta=1)
            vals.append(_chart_jacobian_logdets(inverse, spec, coords[None], out, 1e-5,
                                                piv, piv)[0])
        assert vals[0] == pytest.approx(vals[1], abs=1e-6)

    def test_pseudo_inverse_scale_homogeneity(self):
        rng = np.random.default_rng(6)
        lam, c = 1.4, 1.9
        w1 = sample_stiefel_batch(2, 1, COMPLEX, (rng,), 1)
        base = assemble(np.array([[lam]]), (w1,), 2)[0]
        vals = []
        for scale in (1.0, c):
            s = Mat(COMPLEX, scale * base)
            spec, coords, piv = _chart_at_one(s, 1, "psd")
            out = ChartSpec("psd", COMPLEX, (2, 1))
            inverse = partial(pinv_batch, beta=2)
            vals.append(_chart_jacobian_logdets(inverse, spec, coords[None], out, 1e-5,
                                                piv, piv)[0])
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
        assert rep.task.engine == "CHART"

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

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("theorem,sizes", [
        ("UHLIG_QR", dict(m=3, n=2)), ("CONGRUENCE_NS", dict(m=3)),
    ])
    def test_congruence_charts_at_extreme_scale(self, theorem, sizes, beta):
        """The factor is taken from log-determinants and the pivots and
        norms are scaled, so a box near 1e200 neither overflows nor warns."""
        boxes = [(1e200, 2e200)]
        if theorem == "CONGRUENCE_NS":
            # UHLIG_QR at 1e-200 still meets the absolute finite-difference step
            boxes.append((1e-200, 2e-200))
        for box in boxes:
            task = TaskSpec(theorem_id=theorem, beta=beta, points=2, seed=42,
                            eigen_box=box, **sizes)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = run_task(task)
            assert rep.passed, box
            json.dumps(rep.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2)])
    def test_leading_block_logdets_match_pivoted_cholesky(self, beta, m, n):
        """det_t1t1 and det_l1l1 of a congruence point are the log-determinants
        of the charts' leading blocks S11 = T1*T1: 2 sdet_log(T1) for the
        rank-n Cholesky factor T of the pivoted matrix."""
        task = TaskSpec(theorem_id="UHLIG_QR", beta=beta, m=m, n=n, points=3, seed=9)
        rngs = [verify._substream(task.seed, task.theorem.code, verify._SIDE_POINTS, i)
                for i in range(task.points)]
        lam, (w1,) = factorized_draw(rngs, task.eigen_box, n, (m,), task.kind, 1)
        y = assemble(lam, (w1,), beta)
        congruence = verify._congruence_map(verify._draw_b(task))
        (_, in_pivots, _), (_, out_pivots), x, dets = verify._congruence_points(congruence, y, n)
        for i in range(task.points):
            for name, pivots, s in (("det_t1t1", out_pivots, x), ("det_l1l1", in_pivots, y)):
                pv = pivots[0][i]
                t = cholesky_rank_q(Mat(task.kind, s[i][np.ix_(pv, pv)]), n)
                expected = 2.0 * sdet_log(Mat(task.kind, t.data[:, :n]))
                assert dets[name][i] == pytest.approx(expected, rel=1e-12), (name, i)


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

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 2)])
    def test_block_diagonal_b_expects_no_mismatch(self, beta, m, n):
        """A B that keeps range(Y) in its leading block makes the two
        congruence factors coincide at Y = diag(lam, 0), so the SVD-based
        factor must match the chart there too."""
        task = TaskSpec(theorem_id="UHLIG_SVD", beta=beta, m=m, n=n, engine="DEMO",
                        b_source="identity")
        rep = run_discrepancy_demo(task)
        (rec,) = rep.records
        assert rec["expected_mismatch"] is False
        assert rec["svd_differs_from_chart"] is False
        assert rec["uhlig_svd_factor"] == pytest.approx(rec["uhlig_qr_factor"], rel=1e-9)
        assert rep.passed

    def test_diagonal_b_from_file_expects_no_mismatch(self, tmp_path):
        bfile = tmp_path / "b.json"
        bd = np.zeros((2, 2, 1))
        bd[0, 0, 0], bd[1, 1, 0] = 1.0, 2.0
        save_matrix(Mat(REAL, bd), bfile)
        task = TaskSpec(theorem_id="UHLIG_SVD", beta=1, m=2, n=1, engine="DEMO",
                        b_source=str(bfile))
        rep = run_discrepancy_demo(task)
        (rec,) = rep.records
        assert (rec["expected_mismatch"], rec["svd_differs_from_chart"]) == (False, False)
        assert rec["uhlig_svd_factor"] == pytest.approx(rec["uhlig_qr_factor"], rel=1e-9)
        assert rep.passed


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


def _uhlig_region(task: TaskSpec):
    """The pilot region the task's UHLIG builder restricts both sides to,
    read through a spy on verify._Region."""
    made = []
    region_cls = verify._Region

    def spy(*args):
        made.append(region_cls(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_Region", spy)
        verify._problem(task)
    (region,) = made
    return region


def _uhlig_lhs_oracle(task: TaskSpec, b: Mat, rng, count):
    """The UHLIG left side as one full batch: every row through the frame H,
    T = B^{-*} H with an explicit inverse, and the spectra, masked at the end.
    Sizes come from the task, the boxes from the sampler's own pilot."""
    beta, m, n, mp = task.beta, task.m, task.n, task.theorem_id == "UHLIG_MP"
    region = _uhlig_region(task)
    box_lo, box_hi = region.box.T
    u = rng.uniform(size=(count, n))
    lam_x = box_lo + u * (box_hi - box_lo)
    sorted_ok = np.all(lam_x[:, :-1] > lam_x[:, 1:], axis=1)
    g = rng.standard_normal(size=(count, m, n, beta))
    z = mul_raw(ct_raw(b.data), g, beta)
    h = mul_raw(z, inv_sqrt_hermitian_raw(mul_raw(ct_raw(z), z, beta), beta), beta)
    x = assemble(lam_x, (h,), beta)
    t = mul_raw(ct_raw(mat_inv(b).data), h, beta)
    tt = mul_raw(ct_raw(t), t, beta)
    root = np.sqrt(lam_x)
    z_spec = eigvalsh_raw(tt * (root[:, :, None] * root[:, None, :])[..., None], beta)[:, ::-1]
    lam_y = (1.0 / z_spec)[:, ::-1] if mp else z_spec
    lo, hi = task.eigen_box
    ok = verify._in_box_gap(lam_y, lo, hi, task.gap) & sorted_ok
    with np.errstate(invalid="ignore", divide="ignore"):
        logw = FACTORS["SD"].log(beta, m, n, n, lam=lam_x)
    logw = logw + beta * n * sdet_log(b) + 0.5 * m * beta * logdet_hermitian_raw(tt, beta)
    return x, np.where(ok, logw, -np.inf), g, h


@pytest.mark.parametrize("beta", (1, 2, 4))
@pytest.mark.parametrize("theorem", ("UHLIG_SVD", "UHLIG_MP"))
@pytest.mark.parametrize("b_source", ("random", "identity"))
def test_uhlig_left_side_matches_full_batch_oracle(beta, theorem, b_source):
    """The left side works on descending rows only and takes T = G W: the
    accepted set equals the full-batch oracle's, and so do the accepted
    rows' log-weights and data; B^{-*} H equals G (Z* Z)^(-1/2)."""
    task = TaskSpec(theorem_id=theorem, beta=beta, m=3, n=2, b_source=b_source,
                    trials=10_000, seed=42)
    lhs = verify._problem(task)[0]
    b = verify._draw_b(task)
    count = 4096
    x, logw = lhs(np.random.default_rng(9), count)
    x_o, logw_o, g, h = _uhlig_lhs_oracle(task, b, np.random.default_rng(9), count)
    t_inv = mul_raw(ct_raw(mat_inv(b).data), h, beta)
    z = mul_raw(ct_raw(b.data), g, beta)
    t_gw = mul_raw(g, inv_sqrt_hermitian_raw(mul_raw(ct_raw(z), z, beta), beta), beta)
    assert np.abs(t_gw - t_inv).max() <= 1e-12 * np.abs(t_inv).max()
    live = ~np.isneginf(logw)
    assert np.array_equal(live, ~np.isneginf(logw_o))
    assert live.any()
    if b_source == "identity":
        assert live.mean() > 0.2
    assert np.all(np.abs(logw[live] - logw_o[live]) <= 1e-12 * np.maximum(1.0, np.abs(logw_o[live])))
    assert np.array_equal(x[live], x_o[live])
    assert not np.any(x[~live])


@pytest.mark.parametrize("beta", (1, 2, 4))
@pytest.mark.parametrize("theorem", ("UHLIG_SVD", "UHLIG_MP"))
@pytest.mark.parametrize("b_source", ("random", "identity"))
def test_uhlig_right_side_matches_full_image_oracle(beta, theorem, b_source):
    """The right side takes the image spectrum delta from the n x n matrix
    A* A: its accepted set, data and log-weights equal those of an oracle
    that assembles the full m x m image B* W Lambda^(+-1) W* B and takes its
    top n eigenvalues."""
    task = TaskSpec(theorem_id=theorem, beta=beta, m=3, n=2, b_source=b_source,
                    trials=10_000, seed=42)
    m, n, mp = task.m, task.n, theorem == "UHLIG_MP"
    rhs = verify._problem(task)[2]
    b = verify._draw_b(task)
    count = 4096
    x, logw = rhs(np.random.default_rng(9), count)
    lam, frames = factorized_draw((np.random.default_rng(9),), task.eigen_box, n, (m,),
                                  task.kind, count)
    y = assemble(1.0 / lam if mp else lam, frames, beta)
    x_o = mul_raw(mul_raw(ct_raw(b.data), y, beta), b.data, beta)
    x_o = (x_o + ct_raw(x_o)) / 2.0
    delta = eigvalsh_raw(x_o, beta)[:, ::-1][:, :n]
    lo, hi = task.eigen_box
    ok = verify._in_box_gap(lam, lo, hi, task.gap) & _uhlig_region(task).holds(delta)
    logw_o = FACTORS["SD"].log(beta, m, n, n, lam=lam) + FACTORS[theorem].log(
        beta, m, n, n, delta=delta, lam=lam, det_b=sdet_log(b)
    )
    live = ~np.isneginf(logw)
    assert np.array_equal(live, ok)
    assert live.any()
    assert np.abs(x[live] - x_o[live]).max() <= 1e-12 * np.abs(x_o[live]).max()
    assert np.all(np.abs(logw[live] - logw_o[live]) <= 1e-12 * np.maximum(1.0, np.abs(logw_o[live])))


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
        [
            ("SD", 1, {"m": 2, "q": 1}), ("SD", 2, {"m": 2, "q": 1}),
            ("SVD", 1, {"n": 2, "m": 2, "q": 1}),
            ("QR", 1, {"n": 2, "m": 2, "q": 2}), ("QR", 2, {"n": 2, "m": 2, "q": 2}),
            ("CHOL_X", 1, {"n": 3, "m": 2, "q": 2}),
        ],
    )
    def test_constant_is_scale_invariant(self, theorem, beta, sizes):
        """Scaling the eigen box by 1e-13 to 1e10 scales every coordinate box,
        every S11 block and QR's Gram-Schmidt norm test with it, so the
        constant moves only by rounding."""
        constants = [
            run_task(TaskSpec(
                theorem_id=theorem, beta=beta, engine="MC_RATIO",
                trials=10_000, seed=0, eigen_box=(lo, 2.0 * lo), **sizes,
            )).constant_estimate
            for lo in (1e-13, 1e-10, 1.0, 1e10)
        ]
        for constant in constants[:2] + constants[3:]:
            assert constant == pytest.approx(constants[2], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [664, -664])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_qr_surface_side_is_scale_equivariant(self, beta, k):
        """On the box [1, 2] scaled by 2^k (about 1e+-200) the QR surface
        side keeps the same draws with the same log-weights, and its data
        are exactly 2^k times those at k = 0: the Gram-Schmidt norm test
        squares no entry of the unscaled data."""
        def surface(exp):
            task = TaskSpec(theorem_id="QR", beta=beta, n=3, m=2, q=2, engine="MC_RATIO",
                            trials=10_000, seed=3, eigen_box=(2.0**exp, 2.0**(exp + 1)))
            return verify._problem(task)[0](np.random.default_rng(5), 4096)

        data, logw = surface(0)
        scaled_data, scaled_logw = surface(k)
        assert np.isfinite(logw).sum() > 0
        assert np.array_equal(scaled_logw, logw)
        assert np.array_equal(scaled_data, np.ldexp(data, k))


def test_ratio_records_carry_the_rel_stderr_the_gate_read():
    """At every desk MC_RATIO configuration, bit for bit."""
    from divalg.cli import preset_tasks

    tasks = [task for task in preset_tasks("desk", 42) if task.engine == "MC_RATIO"]
    assert len(tasks) == 8
    for task in tasks:
        for rec in run_task(task).records[:-1]:
            assert rec["rel_stderr"] == max(rec["hausdorff_stderr"] / rec["hausdorff"],
                                            rec["factorized_stderr"] / rec["factorized"])


@pytest.mark.parametrize("task", [
    TaskSpec(theorem_id="MP_HERM", beta=1, m=2, q=1, engine="MC_EQUALITY", trials=10_000),
    TaskSpec(theorem_id="SD", beta=1, m=2, q=1, engine="MC_RATIO", trials=10_000),
], ids=["MC_EQUALITY", "MC_RATIO"])
def test_a_test_function_with_no_mass_is_inconclusive(monkeypatch, task):
    """Both engines stop at one statistics step, whichever side is empty."""
    estimate = verify._mc_estimate

    def one_empty(side_fn, log_const, test_fns, trials, seed, task_code, side_code, jobs):
        means, stderrs = estimate(side_fn, log_const, test_fns, trials, seed, task_code,
                                  side_code, jobs)
        if side_code == verify._SIDE_RHS:
            means[1] = stderrs[1] = 0.0
        return means, stderrs

    monkeypatch.setattr(verify, "_mc_estimate", one_empty)
    with pytest.raises(InconclusiveStatisticsError,
                       match="test function 1 has nonpositive mass; widen the boxes"):
        run_task(task)


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

    def test_json_rejects_non_finite_fields(self):
        task = TaskSpec(theorem_id="CONGRUENCE_NS", beta=1, m=2, points=1, seed=41)
        rep = dataclasses.replace(run_task(task), records=({"abs_err": math.nan},))
        with pytest.raises(ValueError, match="not JSON compliant"):
            rep.to_json()

    def test_pass_flag_consistent_with_records(self):
        task = TaskSpec(theorem_id="MP_HERM", beta=1, m=2, q=1, points=3, seed=42)
        rep = run_task(task)
        assert rep.passed == all(r["pass"] for r in rep.records)

    def test_report_holds_only_task_records_and_runtime(self):
        assert [f.name for f in dataclasses.fields(Report)] == ["task", "records", "runtime_ms"]

    @pytest.mark.parametrize("task", [
        TaskSpec(theorem_id="MP_HERM", beta=1, m=2, q=1, points=3, seed=42),
        TaskSpec(theorem_id="MP_HERM", beta=1, m=2, q=1, engine="MC_EQUALITY",
                 trials=10_000, seed=42),
        TaskSpec(theorem_id="SD", beta=1, m=2, q=1, trials=50_000, seed=42),
        TaskSpec(theorem_id="SD", beta=1, m=2, q=1, trials=50_000, seed=42, cv_tol=1e-9),
        TaskSpec(theorem_id="UHLIG_SVD", beta=1, m=2, n=1, engine="DEMO", b_source="demo"),
    ], ids=["chart", "mc-equality", "mc-ratio", "mc-ratio-failing", "demo"])
    def test_verdict_and_constant_are_read_from_the_records(self, task):
        rep = run_task(task)
        verdicts = [r["pass"] for r in rep.records if "pass" in r]
        assert verdicts and rep.passed == all(verdicts)
        doc = rep.to_dict()
        assert (doc["pass"], doc["engine"], doc["seed"]) == (rep.passed, task.engine, task.seed)
        if task.engine == "MC_RATIO":
            assert rep.records[-1]["summary"] is True
            assert rep.constant_estimate == rep.records[-1]["constant"]
            assert rep.passed == (rep.records[-1]["cv"] <= task.cv_tol)
        else:
            assert rep.constant_estimate is None
        assert rep.passed is (task.cv_tol > 1e-9)

    def test_run_task_reaches_each_engine_through_its_module_name(self, monkeypatch):
        """A wrapper set on a runner's module attribute sees every task of
        its engine, as the benchmark's tracer needs."""
        seen = []

        def spy(name):
            def runner(task, jobs=1):
                seen.append((name, task.engine, jobs))
                return [{"pass": True}]
            return runner

        for name in ("run_chart_task", "run_mc_equality_task", "run_mc_ratio_task"):
            monkeypatch.setattr(verify, name, spy(name))
        tasks = [
            TaskSpec(theorem_id="CHOL", beta=1, m=2, q=1),
            TaskSpec(theorem_id="W", beta=1, n=3, m=2, q=1),
            TaskSpec(theorem_id="SD", beta=1, m=2, q=1),
        ]
        for task in tasks:
            rep = run_task(task, jobs=3)
            assert rep.records == ({"pass": True},) and rep.passed
        assert seen == [
            ("run_chart_task", "CHART", 1),
            ("run_mc_equality_task", "MC_EQUALITY", 3),
            ("run_mc_ratio_task", "MC_RATIO", 3),
        ]


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
    the real batched calls are the Hausdorff Gram on the p x p side of the
    completed block, p = (n - q)(m - q) beta, and a CHART task's slogdet of
    its k x k finite-difference Jacobians, k the chart dimension: a real
    Jacobian by nature, not an embedding of an algebra matrix."""
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
        k = verify._problem(task)[0].coord_count() if task.engine == "CHART" else None
        for name, kind, shape in batched:
            if kind == "c":
                assert shape[-2] % r == 0 and shape[-1] % r == 0, (task, name, shape)
            elif task.engine == "CHART":
                assert (name, shape[-2:]) == ("slogdet", (k, k)), (task, name, shape)
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
    """No batched LAPACK call on a block of algebra side 1, no batched
    Hermitian eigvalsh, eigh, slogdet or inv on side 2, and no singular
    values of a 2 x 2 block in a Monte-Carlo side: those blocks take the
    closed forms of linalg.  The rank-2 UHLIG images have their spectra
    taken on the 2 x 2 side, so UHLIG_SVD makes no LAPACK call at all.  A
    CHART task's one real batched call is the slogdet of its k x k
    finite-difference Jacobians, k the chart dimension."""
    calls = _record_lapack(monkeypatch)
    tasks = [
        TaskSpec(theorem_id="UHLIG_SVD", beta=2, m=3, n=2, trials=10_000, seed=7),
        TaskSpec(theorem_id="UHLIG_MP", beta=2, m=2, n=1, trials=10_000, seed=7),
        TaskSpec(theorem_id="SD", beta=4, m=2, q=1, engine="MC_RATIO",
                 trials=10_000, seed=6),
        TaskSpec(theorem_id="SVD", beta=4, n=2, m=2, q=1, engine="MC_RATIO",
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
        k = verify._problem(task)[0].coord_count() if task.engine == "CHART" else None
        for name, kind, shape in batched:
            if kind != "c" and task.engine == "CHART":
                assert (name, shape[-2:]) == ("slogdet", (k, k)), (task, name, shape)
                continue
            if kind != "c" and task.beta > 1:  # the real Hausdorff Gram of SD and SVD
                assert (name, shape[-2:]) == ("slogdet", (gram_side, gram_side))
                continue
            side = (shape[-2] // r, shape[-1] // r)
            assert min(side) > 1, (task, name, shape)
            if name in ("eigvalsh", "eigh", "slogdet", "inv"):
                assert side != (2, 2), (task, name, shape)
            if name == "svd" and task.engine != "CHART":  # CHART's pinv takes full SVDs
                assert side != (2, 2), (task, name, shape)


def test_chart_records_carry_the_gap_margin():
    """The margin of each point's spectral gap over the gap tolerance is a
    record field, in place of a RuntimeWarning (point 1 here sits at 5.9)."""
    task = TaskSpec(theorem_id="CONGRUENCE_NS", beta=1, m=2, points=2, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = run_task(task)
    sample = verify._problem(task)[3]
    for rec in rep.records:
        rng = verify._substream(task.seed, task.theorem.code, verify._SIDE_POINTS, rec["point"])
        (gap_at,) = sample([rng])[-1]
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


def _loop_jacobian_logdet(mat_map, in_spec, coords0, out_spec, step, in_pivots, out_pivots):
    """One completion, one single-Mat map and one extraction per perturbation,
    in the point's pivoted charts (per-row pivots of a batch of one, or None)."""
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
                mat_map(Mat(in_spec.kind, in_spec.complete_batch(c[None], in_pivots)[0])).data[None],
                out_pivots,
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


def _chart_point(task: TaskSpec, i: int):
    """(map_batch, in_spec, coords0, out_spec, in_pivots, out_pivots) of the
    task's CHART point i, drawn alone, with the pivots of its own pivoted
    charts (per-row pivots of a batch of one, or None)."""
    in_spec, out_spec, map_batch, sample = verify._problem(task)
    rng = verify._substream(task.seed, task.theorem.code, verify._SIDE_POINTS, i)
    in_pivots, coords, out_pivots, _, _ = sample([rng])
    return map_batch, in_spec, coords[0], out_spec, in_pivots, out_pivots


@pytest.mark.parametrize("theorem,sizes", CHART_CASES, ids=[c[0] for c in CHART_CASES])
def test_batched_jacobian_matches_per_perturbation_loop(theorem, sizes):
    task = TaskSpec(theorem_id=theorem, beta=4, points=3, seed=11, **sizes)
    mat_map = _loop_map(task)
    for i in range(task.points):
        map_batch, in_spec, coords0, out_spec, in_piv, out_piv = _chart_point(task, i)
        batched = verify._chart_jacobian_logdets(
            map_batch, in_spec, coords0[None], out_spec, task.step, in_piv, out_piv
        )[0]
        looped = _loop_jacobian_logdet(
            mat_map, in_spec, coords0, out_spec, task.step, in_piv, out_piv
        )
        assert batched == pytest.approx(looped, abs=1e-8)


@pytest.mark.parametrize("theorem,sizes", CHART_CASES, ids=[c[0] for c in CHART_CASES])
def test_one_chart_point_makes_one_completion_and_one_map_call(monkeypatch, theorem, sizes):
    """Five points in one chunk: one completion and one map call for all."""
    calls = {"complete": 0, "map": 0}
    complete = ChartSpec.complete_batch

    def counted_complete(self, coords, pivots=None):
        calls["complete"] += 1
        return complete(self, coords, pivots)

    problem = verify._problem

    def counted_problem(task):
        in_spec, out_spec, map_fn, sample = problem(task)
        assert verify._chunk_points(in_spec, task.points) == task.points

        def counted_map(data):
            calls["map"] += 1
            return map_fn(data)

        return in_spec, out_spec, counted_map, sample

    monkeypatch.setattr(ChartSpec, "complete_batch", counted_complete)
    monkeypatch.setattr(verify, "_problem", counted_problem)
    rep = run_task(TaskSpec(theorem_id=theorem, beta=4, points=5, seed=12, **sizes))
    assert rep.passed and len(rep.records) == 5
    assert calls == {"complete": 1, "map": 1}


def _two_chunk_task(theorem: str, sizes: dict, beta: int, seed: int) -> TaskSpec:
    """A task whose points fill one chunk and spill two into a second."""
    task = TaskSpec(theorem_id=theorem, beta=beta, seed=seed, **sizes)
    size = verify._chunk_points(verify._problem(task)[0], 10**8)
    return dataclasses.replace(task, points=size + 2)


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("theorem,sizes", CHART_CASES, ids=[c[0] for c in CHART_CASES])
def test_chunked_points_are_the_points_alone(theorem, sizes, beta):
    """Every record of a task spanning two chunks reads, bit for bit, the
    Jacobian of its point drawn and differentiated alone."""
    task = _two_chunk_task(theorem, sizes, beta, seed=13)
    rep = run_task(task)
    assert rep.passed and len(rep.records) == task.points
    for rec in rep.records:
        map_batch, in_spec, coords0, out_spec, in_piv, out_piv = _chart_point(task, rec["point"])
        assert rec["numeric_log"] == verify._chart_jacobian_logdets(
            map_batch, in_spec, coords0[None], out_spec, task.step, in_piv, out_piv
        )[0]


@pytest.mark.parametrize("theorem,sizes", CHART_CASES, ids=[c[0] for c in CHART_CASES])
def test_first_points_do_not_depend_on_the_point_count(theorem, sizes):
    task = _two_chunk_task(theorem, sizes, 2, seed=14)
    short = run_task(dataclasses.replace(task, points=3))
    assert short.records == run_task(task).records[:3]


@pytest.mark.parametrize("theorem,sizes,dims", [
    ("MP_HERM", dict(m=3, q=2), 1),
    ("MP_RECT", dict(n=3, m=2, q=1), 2),
    ("UHLIG_QR", dict(m=3, n=2), 1),
    ("CONGRUENCE_NS", dict(m=2), 1),
])
def test_each_chunk_runs_one_gram_schmidt_per_frame_dimension(monkeypatch, theorem, sizes,
                                                               dims):
    """The draws of a task spanning two chunks: one gram_schmidt_batch call
    per frame dimension and chunk, on all of the chunk's points."""
    task = _two_chunk_task(theorem, sizes, 2, seed=16)
    size = task.points - 2
    calls = []
    gram_schmidt = charts.gram_schmidt_batch

    def spy(x, beta):
        calls.append(x.shape[0])
        return gram_schmidt(x, beta)

    monkeypatch.setattr(charts, "gram_schmidt_batch", spy)
    assert run_task(task).passed
    assert calls == [size] * dims + [2] * dims


def test_chunk_size_is_a_pure_function_of_the_chart():
    """The chunk size bounds the completed input of a chunk by the byte
    budget at any point count, and is at least one point."""
    for theorem, sizes in CHART_CASES:
        for beta in (1, 2, 4):
            task = TaskSpec(theorem_id=theorem, beta=beta, points=10**8, seed=1, **sizes)
            spec = verify._problem(task)[0]
            size = verify._chunk_points(spec, task.points)
            rows, cols = spec.shape
            per_point = 2 * spec.coord_count() * rows * cols * beta * 8
            assert size == verify._chunk_points(spec, task.points)
            assert 1 <= size < task.points
            assert size * per_point <= verify.CHART_CHUNK_BYTES < (size + 1) * per_point
            assert verify._chunk_points(spec, 3) == min(3, size)
    wide = ChartSpec("rect", QUATERNION, (40, 40, 20))
    assert verify._chunk_points(wide, 10**8) == 1


def test_a_chunk_wide_failure_reruns_its_points_alone(monkeypatch):
    """A map that fails on any batch wider than one point's perturbations
    gives the report of a run with one point per chunk."""
    task = TaskSpec(theorem_id="MP_HERM", beta=2, m=3, q=2, points=6, seed=15)
    want = run_task(task)
    problem = verify._problem

    def one_point_only(task):
        in_spec, out_spec, map_fn, sample = problem(task)

        def strict(data):
            if data.shape[0] > 2 * in_spec.coord_count():
                raise SingularBlockError("a check relative to the whole chunk")
            return map_fn(data)

        return in_spec, out_spec, strict, sample

    monkeypatch.setattr(verify, "_problem", one_point_only)
    assert run_task(task).records == want.records


# ---------------------------------------------------------------------------
# the factor table is what the engines check


EQUALITY_CASES = [
    ("W", dict(n=3, m=2, q=1)),
    ("W", dict(n=3, m=3, q=2)),
    ("MP_HERM", dict(m=2, q=1)),
    ("MP_RECT", dict(n=3, m=2, q=1)),
    ("UHLIG_SVD", dict(m=2, n=1)),
    ("UHLIG_SVD", dict(m=3, n=2)),
    ("UHLIG_MP", dict(m=2, n=1)),
    ("UHLIG_MP", dict(m=3, n=2)),
]


@pytest.mark.parametrize(
    "theorem,sizes", EQUALITY_CASES,
    ids=[f"{t}-" + "-".join(f"{k}{v}" for k, v in s.items()) for t, s in EQUALITY_CASES],
)
def test_factor_error_of_e_fails_its_equality_task(monkeypatch, theorem, sizes):
    # the desk sizes at beta=2: the task passes with the table's factor and
    # fails once FACTORS[theorem] is off by a factor of e
    b = {"b_source": "identity"} if theorem.startswith("UHLIG") else {}
    task = TaskSpec(
        theorem_id=theorem, beta=2, engine="MC_EQUALITY", trials=10_000, seed=42, **sizes, **b
    )
    assert run_task(task).passed
    entry = FACTORS[theorem]
    shifted = dataclasses.replace(entry, log=lambda *a, **kw: entry.log(*a, **kw) + 1.0)
    monkeypatch.setitem(FACTORS, theorem, shifted)
    assert not run_task(task).passed


ENGINE_CASES = [
    ("SVD", "MC_RATIO", dict(n=2, m=2, q=1)),
    ("SD", "MC_RATIO", dict(m=2, q=1)),
    ("W", "MC_EQUALITY", dict(n=3, m=2, q=1)),
    ("QR", "MC_RATIO", dict(n=2, m=2, q=2)),
    ("CHOL", "CHART", dict(m=2, q=1)),
    ("CHOL_X", "MC_RATIO", dict(n=3, m=2, q=2)),
    ("MP_HERM", "CHART", dict(m=2, q=1)),
    ("MP_HERM", "MC_EQUALITY", dict(m=2, q=1)),
    ("MP_RECT", "CHART", dict(n=3, m=2, q=1)),
    ("MP_RECT", "MC_EQUALITY", dict(n=3, m=2, q=1)),
    ("UHLIG_SVD", "MC_EQUALITY", dict(m=2, n=1, b_source="identity")),
    ("UHLIG_SVD", "DEMO", dict(m=2, n=1, b_source="demo")),
    ("UHLIG_QR", "CHART", dict(m=2, n=1)),
    ("UHLIG_MP", "MC_EQUALITY", dict(m=2, n=1, b_source="identity")),
    ("CONGRUENCE_NS", "CHART", dict(m=2)),
]


def test_engine_cases_cover_every_theorem_and_engine():
    assert {(t, e) for t, e, _ in ENGINE_CASES} == {
        (name, engine) for name, theorem in THEOREMS.items() for engine in theorem.engines
    }


@pytest.mark.parametrize(
    "theorem,engine,sizes", ENGINE_CASES, ids=[f"{t}-{e}" for t, e, _ in ENGINE_CASES]
)
def test_every_engine_reads_its_theorems_own_factor(monkeypatch, theorem, engine, sizes):
    # a wrong shape in a factor need not move the MC_RATIO cv, so this pins
    # the wiring itself: the task evaluates FACTORS[theorem]
    called = set()
    for name, entry in list(FACTORS.items()):
        def log(*args, _name=name, _log=entry.log, **kw):
            called.add(_name)
            return _log(*args, **kw)
        monkeypatch.setitem(FACTORS, name, dataclasses.replace(entry, log=log))
    task = TaskSpec(
        theorem_id=theorem, beta=1, engine=engine, trials=10_000, points=1, seed=42, **sizes
    )
    run_task(task)
    assert theorem in called


# ---------------------------------------------------------------------------
# the factorized sides: draw, keep, weigh and mass from one helper


def _kept(image, lo, hi, gap):
    """Rows of a descending spectrum image inside [lo, hi] with gaps >= gap."""
    inside = np.all((image >= lo) & (image <= hi), axis=1)
    return inside & np.all(image[:, :-1] - image[:, 1:] >= gap, axis=1)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("theorem,sizes", [
    ("W", dict(n=3, m=2, q=2)),
    ("MP_HERM", dict(m=3, q=2)),
])
def test_factorized_sides_keep_weigh_and_mass(theorem, sizes, beta):
    task = TaskSpec(theorem_id=theorem, beta=beta, engine="MC_EQUALITY", trials=10_000,
                    seed=7, gap=0.2, **sizes)
    lo, hi = task.eigen_box
    m, n, q = task.m, task.n, task.q
    lhs, lhs_const, rhs, rhs_const, reference = verify._problem(task)
    assert reference is rhs

    def log(name, **spectrum):
        return FACTORS[name].log(beta, m, n, q, **spectrum)

    if theorem == "W":
        cases = [  # (side, its mass, box, dims, image of the draw, expected log-weight)
            (lhs, lhs_const, (math.sqrt(lo), math.sqrt(hi)), (n, m), lambda d: d * d,
             lambda d: log("SVD", d=d)),
            (rhs, rhs_const, (lo, hi), (m, n), lambda lam: lam,
             lambda lam: log("SD", lam=lam) + log("W", lam=lam)),
        ]
    else:
        cases = [
            (lhs, lhs_const, (1.0 / hi, 1.0 / lo), (m,), lambda lam: (1.0 / lam)[:, ::-1],
             lambda lam: log("SD", lam=lam)),
            (rhs, rhs_const, (lo, hi), (m,), lambda lam: lam,
             lambda lam: log("SD", lam=lam) + log("MP_HERM", lam=lam)),
        ]
    for side, mass, box, dims, image, expected in cases:
        assert mass == factorized_mass_log(box, q, dims, beta)
        _, logw = side(np.random.default_rng(11), 2048)
        spectrum, _ = factorized_draw((np.random.default_rng(11),), box, q, dims, task.kind, 2048)
        kept = _kept(image(spectrum), lo, hi, task.gap)
        assert 0 < kept.sum() < kept.size
        assert np.isneginf(logw[~kept]).all()
        np.testing.assert_array_equal(logw[kept], expected(spectrum)[kept])

    # a draw whose spectrum leaves the task's box weighs -inf
    wide = (0.5 * lo, 2.0 * hi)
    side, mass = verify._factorized_side(
        task, wide, (m,), lambda lam, frames: assemble(lam, frames, beta), ("SD",)
    )
    assert mass == factorized_mass_log(wide, q, (m,), beta)
    _, logw = side(np.random.default_rng(13), 2048)
    spectrum, _ = factorized_draw((np.random.default_rng(13),), wide, q, (m,), task.kind, 2048)
    outside = ~np.all((spectrum >= lo) & (spectrum <= hi), axis=1)
    assert outside.any() and np.isneginf(logw[outside]).all()
    kept = _kept(spectrum, lo, hi, task.gap)
    np.testing.assert_array_equal(logw[kept], log("SD", lam=spectrum)[kept])


# ---------------------------------------------------------------------------
# the MC_RATIO surface side completes and weighs only its live rows


@pytest.mark.parametrize("theorem,sizes", [
    ("SD", dict(m=3, q=1)),  # a leading-block test
    ("QR", dict(n=3, m=2, q=2)),  # a full-rank chart: every row live
])
def test_surface_side_completes_and_weighs_only_live_rows(monkeypatch, theorem, sizes):
    task = TaskSpec(theorem_id=theorem, beta=2, engine="MC_RATIO", trials=10_000,
                    seed=3, **sizes)
    surface = verify._problem(task)[0]
    seen = {"complete": [], "hausdorff": []}
    region_live = verify._Region.live
    complete = ChartSpec.complete_batch
    hausdorff = verify.hausdorff_density_log_batch

    def spy_live(self, coords):
        live = region_live(self, coords)
        if "live" not in seen:  # the side's own call; QR's accept calls live again
            seen["coords"], seen["live"] = coords, live
        return live

    def spy_complete(self, coords):
        seen["complete"].append(coords.copy())
        return complete(self, coords)

    def spy_hausdorff(spec, coords):
        seen["hausdorff"].append(coords.copy())
        return hausdorff(spec, coords)

    monkeypatch.setattr(verify._Region, "live", spy_live)
    monkeypatch.setattr(ChartSpec, "complete_batch", spy_complete)
    monkeypatch.setattr(verify, "hausdorff_density_log_batch", spy_hausdorff)
    data, logw = surface(np.random.default_rng(5), 2048)
    live = seen["live"]
    if theorem == "QR":
        assert live.all()
    else:
        assert 0 < live.sum() < live.size
    for name in ("complete", "hausdorff"):
        (rows,) = seen[name]
        np.testing.assert_array_equal(rows, seen["coords"][live])
    assert np.isneginf(logw[~live]).all() and not data[~live].any()
    assert np.isfinite(logw[live]).any()


def test_surface_side_with_no_live_row_completes_nothing(monkeypatch):
    def never(*args):
        raise AssertionError("a dead row was completed or weighed")

    monkeypatch.setattr(ChartSpec, "complete_batch", never)
    monkeypatch.setattr(verify, "hausdorff_density_log_batch", never)
    spec = ChartSpec("psd", COMPLEX, (3, 1))
    box = np.array([[1.0, 2.0]] + [[-0.5, 0.5]] * (spec.coord_count() - 1))
    # S11 lies in [1, 2], so no row reaches the floor 3
    region = verify._Region(spec, box, 3.0)
    side = verify._surface_side(region, lambda data: np.ones(len(data), bool))
    data, logw = side(np.random.default_rng(0), 64)
    assert np.isneginf(logw).all()
    assert data.shape == (64, 3, 3, 2) and not data.any()


# ---------------------------------------------------------------------------
# both sides of a ratio identity are restricted to one region

RATIO_CASES = [
    (theorem, sizes, beta)
    for beta in (1, 2, 4)
    for theorem, sizes in (
        ("SD", dict(m=2, q=1)),
        ("SVD", dict(n=2, m=2, q=1)),
        ("QR", dict(n=2, m=2, q=2)),
        ("CHOL_X", dict(n=3, m=2, q=2)),
    )
] + [("SVD", dict(n=3, m=3, q=2), 2)]


@pytest.mark.parametrize("theorem,sizes,beta", RATIO_CASES)
def test_both_ratio_sides_share_one_region(monkeypatch, theorem, sizes, beta):
    task = TaskSpec(theorem_id=theorem, beta=beta, engine="MC_RATIO", trials=10_000,
                    seed=3, **sizes)
    received = {"surface": [], "restricted": []}
    surface_side, restricted_side = verify._surface_side, verify._restricted_side

    def spy_surface(region, accept):
        received["surface"].append(region)
        return surface_side(region, accept)

    def spy_restricted(raw_fn, region):
        received["restricted"].append(region)
        return restricted_side(raw_fn, region)

    monkeypatch.setattr(verify, "_surface_side", spy_surface)
    monkeypatch.setattr(verify, "_restricted_side", spy_restricted)
    lhs_fn, _, rhs_fn, _, _ = verify._problem(task)
    (region,), (other,) = received["surface"], received["restricted"]
    assert region is other
    for side in (lhs_fn, rhs_fn):
        data, logw = side(np.random.default_rng(5), 4096)
        live = ~np.isneginf(logw)
        assert live.any()
        assert region.holds(region.spec.extract_batch(data[live])).all()
