"""Tests of the benchmark's span tracer.

    python3 -m pytest -q perfbench/tests

They cover the self-time arithmetic, that every wrapped binding is put back,
and that tracing leaves the program's reports unchanged.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import divalg  # noqa: E402
from divalg import charts, cli, decomp, linalg, verify  # noqa: E402
import spans  # noqa: E402

MAIN, WORKER_A, WORKER_B = 1, 2, 3


def _span(sid, parent, thread, name, start, end, count=0, label=None):
    return (sid, parent, thread, name, start, end, count, label)


def _two_thread_set():
    """An engine span on the main thread whose pool work overlaps on two workers."""
    return [
        _span(1, None, MAIN, "verify.run_mc_equality_task", 0.0, 10.0),
        _span(2, 1, WORKER_A, spans.POOL_WORK, 1.0, 6.0, count=2),
        _span(3, 1, WORKER_B, spans.POOL_WORK, 2.0, 8.0, count=2),
        _span(4, 2, WORKER_A, "numpy.einsum", 2.0, 3.0),
        _span(5, 2, WORKER_A, "numpy.einsum", 4.0, 4.5),
        _span(6, 3, WORKER_B, "linalg.mul_raw", 3.0, 7.0, count=5),
        _span(7, 6, WORKER_B, "numpy.einsum", 3.5, 9.0),  # runs past its parent
    ]


def test_self_time_subtracts_union_of_children_across_threads():
    selfs = spans.self_times(_two_thread_set())
    assert selfs[1] == pytest.approx(10.0 - 7.0)  # children cover [1, 8]
    assert selfs[2] == pytest.approx(5.0 - 1.5)
    assert selfs[3] == pytest.approx(6.0 - 4.0)
    assert selfs[6] == pytest.approx(4.0 - 3.5)  # child clipped at 7.0
    assert selfs[4] == pytest.approx(1.0)


def test_layer_metrics_on_two_threads():
    m = spans.layer_metrics(_two_thread_set())
    assert m["numpy.einsum.calls"] == 3
    assert m["numpy.einsum.self_s"] == pytest.approx(1.0 + 0.5 + 5.5)
    assert m["linalg.mul_raw.products"] == 5
    assert m["verify.mc_equality.s"] == pytest.approx(10.0)
    assert m["verify.self_s"] == pytest.approx(3.0 + 3.5 + 2.0)
    # (5 + 6) busy seconds out of 2 jobs x 10 engine seconds
    assert m["verify.pool.busy_share"] == pytest.approx(11.0 / 20.0)
    assert m["verify.pool.threads"] == 2


def _bindings():
    modules = [divalg, charts, cli, decomp, linalg, verify,
               sys.modules["divalg.algebra"], sys.modules["divalg.measures"]]
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for path in spans.NUMPY_GROUPS:
        owner_name, _, attr = ("numpy." + path).rpartition(".")
        out[(owner_name, attr)] = getattr(sys.modules[owner_name], attr)
    out[("Mat", "__post_init__")] = linalg.Mat.__dict__["__post_init__"]
    return out


def test_install_wraps_every_binding_and_restore_puts_them_back():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        assert getattr(charts.mul_raw, "__wrapped__", None) is before[("divalg.linalg", "mul_raw")]
        for module in (linalg, charts, decomp, verify):
            assert module.mul_raw is charts.mul_raw
        assert np.einsum is not before[("numpy", "einsum")]
        assert verify.ThreadPoolExecutor is not before[("divalg.verify", "ThreadPoolExecutor")]
        linalg.mul_raw(np.ones((2, 3, 3, 2)), np.ones((3, 3, 2)), 2)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    names = [s[3] for s in tracer.spans]
    assert "linalg.mul_raw" in names and "numpy.einsum" in names
    assert tracer.spans[names.index("linalg.mul_raw")][6] == 2  # two products


def _strip_runtime(report) -> str:
    doc = report.to_dict()
    doc.pop("runtime_ms")
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "task, jobs",
    [
        (verify.TaskSpec(theorem_id="MP_RECT", beta=2, n=3, m=2, q=1, points=3, seed=5), 1),
        (verify.TaskSpec(theorem_id="SD", beta=1, m=2, q=1, trials=10_000, seed=5), 2),
        (verify.TaskSpec(theorem_id="UHLIG_MP", beta=2, m=2, n=1, b_source="identity",
                         trials=10_000, seed=5), 2),
    ],
    ids=["chart", "mc-ratio-pool", "mc-equality-pool"],
)
def test_traced_reports_are_byte_identical(task, jobs):
    plain = _strip_runtime(verify.run_task(task, jobs=jobs))
    tracer = spans.Tracer()
    with tracer:
        traced = _strip_runtime(verify.run_task(task, jobs=jobs))
    assert traced == plain
    if jobs > 1:
        assert any(s[3] == spans.POOL_WORK for s in tracer.spans)
