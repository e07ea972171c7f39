"""Release gate: one test per release criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the gate lines
inline).  Every criterion states its own tolerance and wall-clock budget; the
budgets are asserted, so a pathological slowdown fails the gate too.
"""

import json
import math
import re
import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from divalg.algebra import structure_tensor
from divalg.charts import (
    assemble,
    chart_at_batch,
    sample_stiefel_batch,
)
from divalg.cli import main as cli_main
from divalg.decomp import (
    cholesky_rank_q,
    eig_hermitian,
    pinv,
    pinv_batch,
    qr_positive,
    svd_rank_q,
)
from divalg.linalg import Mat, conj_transpose, ct_raw, frobenius_norm, mul_raw, save_matrix
from divalg.measures import mv_gamma_log, stiefel_volume_log
from divalg.verify import (
    ChartSpec,
    TaskSpec,
    _chart_jacobian_logdets,
    run_discrepancy_demo,
    run_task,
)

KINDS = {1: "real", 2: "complex", 4: "quaternion", 8: "octonion"}
JOBS = 4


@contextmanager
def gate(name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[gate] {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"[gate] {name}: {verdict} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s:.0f}s"


def _scalar_batch(rng, beta: int, count: int) -> np.ndarray:
    v = rng.uniform(-1.0, 1.0, size=(count, beta))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v * (rng.uniform(0.5, 2.0, size=(count, 1)) / norms)


def _smul(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.einsum("np,nq,pqr->nr", a, b, c)


def _sconj(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[:, 1:] = -out[:, 1:]
    return out


def test_criterion_01_algebra_axioms():
    with gate("01 algebra axioms", 5.0):
        n_cases = 10_000
        for beta in (1, 2, 4, 8):
            c = structure_tensor(beta)
            rng = np.random.default_rng(beta)
            a = _scalar_batch(rng, beta, n_cases)
            b = _scalar_batch(rng, beta, n_cases)
            ab = _smul(a, b, c)
            norm_gap = np.abs(
                np.linalg.norm(ab, axis=1)
                - np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            )
            assert norm_gap.max() <= 1e-12, f"norm multiplicativity, {KINDS[beta]}"

            d = _scalar_batch(rng, beta, n_cases)
            left = _smul(ab, d, c)
            right = _smul(a, _smul(b, d, c), c)
            if beta <= 4:
                assert np.abs(left - right).max() <= 1e-12, f"associativity, {KINDS[beta]}"
            else:
                alt_l = np.abs(_smul(_smul(a, a, c), b, c) - _smul(a, ab, c))
                alt_r = np.abs(_smul(ab, b, c) - _smul(a, _smul(b, b, c), c))
                assert alt_l.max() <= 1e-12, "left alternativity, octonion"
                assert alt_r.max() <= 1e-12, "right alternativity, octonion"

            a_inv = _sconj(a) / np.sum(a * a, axis=1, keepdims=True)
            recov_l = _smul(a_inv, ab, c)
            b_times_a = _smul(b, a, c)
            recov_r = _smul(b_times_a, a_inv, c)
            assert np.abs(recov_l - b).max() <= 1e-12, f"left division, {KINDS[beta]}"
            assert np.abs(recov_r - b).max() <= 1e-12, f"right division, {KINDS[beta]}"


def test_criterion_02_special_function_values():
    with gate("02 special functions", 1.0):
        gamma_cases = [
            ((1, 1, 0.5), math.sqrt(math.pi)),
            ((2, 1, 1.0), math.pi),
            ((2, 4, 3.0), 2.0 * math.pi**2),
        ]
        for (m, beta, a), expected in gamma_cases:
            got = math.exp(mv_gamma_log(m, beta, a))
            assert abs(got - expected) <= 1e-12 * expected, (m, beta, a)
        volume_cases = [
            ((1, 2, 1), 2.0 * math.pi),
            ((1, 3, 1), 4.0 * math.pi),
            ((2, 2, 1), 4.0 * math.pi),
        ]
        for (m, n, beta), expected in volume_cases:
            got = math.exp(stiefel_volume_log(m, n, beta))
            assert abs(got - expected) <= 1e-12 * expected, (m, n, beta)


def _spread_spectrum(rng, q: int) -> np.ndarray:
    base = np.linspace(2.0, 1.0, q) if q > 1 else np.array([1.5])
    return base + rng.uniform(-0.3, 0.3, size=q) / (q + 1)


def test_criterion_03_decomposition_round_trips():
    from divalg.algebra import COMPLEX, QUATERNION, REAL

    with gate("03 decomposition round-trips", 30.0):
        for kind in (REAL, COMPLEX, QUATERNION):
            beta = kind.beta
            for seed in range(20):
                rng = np.random.default_rng([seed, beta])
                n = int(rng.integers(1, 6))
                m = int(rng.integers(1, n + 1))
                q = int(rng.integers(1, min(m, 3) + 1))

                d = _spread_spectrum(rng, q)
                v1 = sample_stiefel_batch(n, q, kind, (rng,), 1)
                w1 = sample_stiefel_batch(m, q, kind, (rng,), 1)
                x = Mat(kind, assemble(d[None], (v1, w1), beta)[0])

                parts = svd_rank_q(x, q)
                recon = Mat(kind, parts.v1.data * parts.d[None, :, None]) @ conj_transpose(
                    parts.w1
                )
                assert frobenius_norm(Mat(kind, recon.data - x.data)) <= 1e-8

                g = pinv(x)
                for prod, ref in (
                    ((x @ g) @ x, x),
                    ((g @ x) @ g, g),
                    (conj_transpose(x @ g), x @ g),
                    (conj_transpose(g @ x), g @ x),
                ):
                    assert frobenius_norm(Mat(kind, prod.data - ref.data)) <= 1e-10

                mh = int(rng.integers(1, 6))
                qh = int(rng.integers(1, min(mh, 3) + 1))
                lam = _spread_spectrum(rng, qh)
                h1 = sample_stiefel_batch(mh, qh, kind, (rng,), 1)
                s = Mat(kind, assemble(lam[None], (h1,), beta)[0])
                eig = eig_hermitian(s, qh)
                recon = Mat(
                    kind, eig.w1.data * eig.lam[None, :, None]
                ) @ conj_transpose(eig.w1)
                assert frobenius_norm(Mat(kind, recon.data - s.data)) <= 1e-8

                t = cholesky_rank_q(s, qh)
                back = conj_transpose(t) @ t
                assert frobenius_norm(Mat(kind, back.data - s.data)) <= 1e-8

                full = Mat(kind, rng.standard_normal((n, m, beta)))
                qr = qr_positive(full, m)
                back = qr.h1 @ qr.t
                assert frobenius_norm(Mat(kind, back.data - full.data)) <= 1e-8


def test_criterion_04_chart_pseudo_inverse_hermitian():
    from divalg.algebra import REAL

    with gate("04 chart vs analytic, Hermitian pseudo-inverse", 60.0):
        for beta in (1, 2, 4):
            for m, q in ((2, 1), (3, 2), (4, 2)):
                task = TaskSpec(
                    theorem_id="MP_HERM", beta=beta, m=m, q=q, points=20, seed=401
                )
                rep = run_task(task, jobs=JOBS)
                assert rep.passed, (beta, m, q)
                for rec in rep.records:
                    assert rec["abs_err"] <= max(
                        1e-5 * abs(rec["analytic_log"]), 1e-7
                    ), (beta, m, q, rec)
        # rank-1 real oracle: the Jacobian determinant is exactly lam**-4
        rng = np.random.default_rng(42)
        lam = 1.6
        w1 = sample_stiefel_batch(2, 1, REAL, (rng,), 1)
        s = Mat(REAL, assemble(np.array([[lam]]), (w1,), 1)[0])
        spec, piv, coords = chart_at_batch(s.data[None], 1, "psd")
        out = ChartSpec("psd", REAL, (2, 1))
        val = _chart_jacobian_logdets(partial(pinv_batch, beta=1), spec, coords, out, 1e-5,
                                      piv, piv)[0]
        assert val == pytest.approx(-4.0 * math.log(lam), abs=1e-6)


def test_criterion_05_chart_pseudo_inverse_general():
    from divalg.algebra import REAL

    with gate("05 chart vs analytic, general pseudo-inverse", 60.0):
        for beta in (1, 2, 4):
            for n, m, q in ((2, 2, 1), (3, 2, 1), (3, 3, 2)):
                task = TaskSpec(
                    theorem_id="MP_RECT", beta=beta, n=n, m=m, q=q, points=20, seed=402
                )
                rep = run_task(task, jobs=JOBS)
                assert rep.passed, (beta, n, m, q)
                for rec in rep.records:
                    assert rec["abs_err"] <= max(
                        1e-5 * abs(rec["analytic_log"]), 1e-7
                    ), (beta, n, m, q, rec)
        # vector oracle: inverting x in R^2 has Jacobian determinant |x|**-4
        x = Mat(REAL, np.array([[[1.2]], [[0.9]]]))
        spec, piv, coords = chart_at_batch(x.data[None], 1, "rect")
        out = ChartSpec("rect", REAL, (1, 2, 1))
        val = _chart_jacobian_logdets(partial(pinv_batch, beta=1), spec, coords, out, 1e-5,
                                      piv, piv[::-1])[0]
        assert val == pytest.approx(-4.0 * math.log(1.5), abs=1e-6)


def test_criterion_06_chart_triangular_and_congruence(tmp_path):
    from divalg.algebra import REAL

    with gate("06 chart vs analytic, Cholesky and congruence", 60.0):
        for beta in (1, 2, 4):
            for m, q in ((2, 1), (3, 2)):
                rep = run_task(
                    TaskSpec(theorem_id="CHOL", beta=beta, m=m, q=q, points=20, seed=403),
                    jobs=JOBS,
                )
                assert rep.passed, ("CHOL", beta, m, q)
            for m, n in ((2, 1), (3, 2)):
                rep = run_task(
                    TaskSpec(
                        theorem_id="UHLIG_QR", beta=beta, m=m, n=n, points=20, seed=404
                    ),
                    jobs=JOBS,
                )
                assert rep.passed, ("UHLIG_QR", beta, m, n)
            for m in (2, 3):
                rep = run_task(
                    TaskSpec(theorem_id="CONGRUENCE_NS", beta=beta, m=m, points=20, seed=405),
                    jobs=JOBS,
                )
                assert rep.passed, ("CONGRUENCE_NS", beta, m)

        # hand oracle: gram map t -> t*t at m=2, q=1 has determinant 2*t11**2
        tri_spec = ChartSpec("tri", REAL, (1, 2))
        coords = np.array([1.3, 0.4])
        out = ChartSpec("psd", REAL, (2, 1))

        def gram(t: np.ndarray) -> np.ndarray:
            return mul_raw(ct_raw(t), t, 1)

        val = _chart_jacobian_logdets(gram, tri_spec, coords[None], out, 1e-5)[0]
        assert val == pytest.approx(math.log(2.0 * 1.3**2), abs=1e-6)

        # hand oracle: rank-1 congruence x = b*yb has determinant (x11/y11)|det b|
        bdata = np.zeros((2, 2, 1))
        bdata[:, :, 0] = [[1.0, 0.7], [0.3, 1.4]]
        b = Mat(REAL, bdata)
        h = np.array([[[math.cos(0.6)]], [[math.sin(0.6)]]])
        y = Mat(REAL, 1.4 * h * np.swapaxes(h, 0, 1))

        def congruence(ys: np.ndarray) -> np.ndarray:
            prod = mul_raw(mul_raw(ct_raw(b.data), ys, 1), b.data, 1)
            return (prod + np.swapaxes(prod, -3, -2)) / 2.0

        x = Mat(REAL, congruence(y.data[None])[0])
        expected = math.log(
            x.data[0, 0, 0] / y.data[0, 0, 0] * abs(1.0 * 1.4 - 0.7 * 0.3)
        )
        identity = (np.array([[0, 1]]),) * 2
        spec, _, coords = chart_at_batch(y.data[None], 1, "psd", identity)
        out = ChartSpec("psd", REAL, (2, 1))
        val = _chart_jacobian_logdets(congruence, spec, coords, out, 1e-5)[0]
        assert val == pytest.approx(expected, abs=1e-6)

        # diagonal oracle: b = diag(1, 2) gives a constant determinant of 8
        bfile = tmp_path / "b_diag.json"
        bdiag = np.zeros((2, 2, 1))
        bdiag[0, 0, 0], bdiag[1, 1, 0] = 1.0, 2.0
        save_matrix(Mat(REAL, bdiag), bfile)
        rep = run_task(
            TaskSpec(
                theorem_id="CONGRUENCE_NS", beta=1, m=2, b_source=str(bfile),
                points=5, seed=406,
            )
        )
        assert rep.passed
        for rec in rep.records:
            assert math.exp(rec["numeric_log"]) == pytest.approx(8.0, rel=1e-5)


def test_criterion_07_factorization_chain_equality():
    with gate("07 MC equality, rectangular-to-spectral chain", 300.0):
        for beta in (1, 2):
            for n, m, q in ((3, 2, 1), (3, 3, 2)):
                task = TaskSpec(
                    theorem_id="W", beta=beta, n=n, m=m, q=q,
                    trials=200_000, seed=407,
                )
                rep = run_task(task, jobs=JOBS)
                assert rep.passed, (beta, n, m, q)
                assert len(rep.records) == 3
                for rec in rep.records:
                    stderr = math.hypot(rec["lhs_stderr"], rec["rhs_stderr"])
                    assert abs(rec["lhs"] - rec["rhs"]) <= 3.0 * stderr
                    assert rec["rel_stderr"] <= 0.10, (beta, n, m, q, rec)


def test_criterion_08_congruence_equalities():
    with gate("08 MC equality, congruence image laws", 300.0):
        worst_control_z = 0.0
        for theorem in ("UHLIG_SVD", "UHLIG_MP"):
            for beta in (1, 2):
                for m, n in ((2, 1), (3, 2)):
                    for b_source in ("random", "identity"):
                        task = TaskSpec(
                            theorem_id=theorem, beta=beta, m=m, n=n,
                            b_source=b_source, trials=200_000, seed=408,
                        )
                        rep = run_task(task, jobs=JOBS)
                        assert rep.passed, (theorem, beta, m, n, b_source)
                        zmax = max(rec["z"] for rec in rep.records)
                        if b_source == "identity":
                            worst_control_z = max(worst_control_z, zmax)
        assert worst_control_z <= 3.0
        print(f"  identity-map control: max |z| = {worst_control_z:.2f}")


def test_criterion_09_surface_to_factorized_ratio_constancy():
    with gate("09 MC ratio constancy", 300.0):
        configs = [
            ("SD", dict(m=2, q=1)),
            ("SVD", dict(n=2, m=2, q=1)),
            ("QR", dict(n=2, m=2, q=2)),
            ("CHOL_X", dict(n=3, m=2, q=2)),
        ]
        sd_constant = None
        for theorem, sizes in configs:
            task = TaskSpec(
                theorem_id=theorem, beta=1, trials=200_000, seed=409, **sizes
            )
            rep = run_task(task, jobs=JOBS)
            assert rep.passed, (theorem, sizes)
            summary = rep.records[-1]
            assert summary["cv"] <= 0.02, (theorem, summary)
            if theorem == "SD":
                sd_constant = rep.constant_estimate
        assert sd_constant == pytest.approx(2.0 * math.sqrt(2.0), rel=0.02)
        print(f"  spectral ratio constant: {sd_constant:.4f} (target 2*sqrt(2))")


def test_criterion_10_pinned_mismatch_demo():
    with gate("10 pinned mismatch demo", 1.0):
        task = TaskSpec(
            theorem_id="UHLIG_SVD", engine="DEMO", beta=1, m=2, n=1,
            b_source="demo", seed=410,
        )
        rep = run_discrepancy_demo(task)
        (rec,) = rep.records
        assert rec["chart_det"] == pytest.approx(1.0, abs=1e-6)
        assert rec["uhlig_qr_factor"] == pytest.approx(1.0, abs=1e-6)
        assert rec["uhlig_svd_factor"] == pytest.approx(2.0, abs=1e-6)
        assert rec["expected_mismatch"] is True
        assert rep.passed


def _stripped_desk_report(path) -> str:
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', path.read_text())


def test_criterion_11_suite_determinism(tmp_path):
    budget = 600.0  # twice the observed full desk-suite runtime, with margin
    with gate("11 suite determinism", budget):
        outs = []
        for name, jobs in (("a.json", 8), ("b.json", 8), ("c.json", 1)):
            out = tmp_path / name
            code = cli_main(
                [
                    "verify-all", "--preset", "desk", "--seed", "42",
                    "--jobs", str(jobs), "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        ref = _stripped_desk_report(outs[0])
        assert _stripped_desk_report(outs[1]) == ref, "repeat run differs"
        assert _stripped_desk_report(outs[2]) == ref, "jobs=1 differs from jobs=8"
        doc = json.loads(outs[0].read_text())
        assert doc["pass"] is True and doc["n_failed"] == 0
