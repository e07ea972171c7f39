"""Span tracing for the benchmark, applied from outside the program.

`Tracer.install()` replaces every module binding of each public divalg
function (and a fixed set of numpy entry points) with a wrapper that records
one span per call: id, parent id, thread id, name, start, end, a work count
and a label.  Spans live in memory until `write_jsonl` is called, and
`restore()` puts every original binding back.  Nothing under `src/` is
edited; the wrappers see every call that goes through a module attribute,
which is how divalg calls its own functions.

Parent links follow the calling thread.  Work items submitted to the thread
pool of `divalg.verify` keep the submitting span as their parent, so an
engine span's children can overlap in time; self time is therefore the span
length minus the *union* of its children's intervals (`self_times`).
"""
from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# numpy entry points divalg calls, grouped into the layers the benchmark reports
NUMPY_GROUPS = {
    "einsum": "numpy.einsum",
    "linalg.eigvalsh": "numpy.linalg.spectra",
    "linalg.eigh": "numpy.linalg.spectra",
    "linalg.svd": "numpy.linalg.spectra",
    "linalg.inv": "numpy.linalg.other",
    "linalg.slogdet": "numpy.linalg.other",
    "linalg.cholesky": "numpy.linalg.other",
}

# divalg functions reported together; every other function is its own group
DIVALG_GROUPS = {
    "charts.extract": "charts.extract",
    "charts.extract_psd": "charts.extract",
    "charts.extract_rect": "charts.extract",
    "charts.extract_psd_batch": "charts.extract",
    "charts.extract_rect_batch": "charts.extract",
    "charts.complete_psd": "charts.complete",
    "charts.complete_rect": "charts.complete",
    "charts.complete_psd_batch": "charts.complete",
    "charts.complete_rect_batch": "charts.complete",
    "charts.assemble_sd_batch": "charts.assemble",
    "charts.assemble_svd_batch": "charts.assemble",
}

DIVALG_MODULES = ("algebra", "linalg", "decomp", "measures", "charts", "verify", "cli")

# Leaf helpers left unwrapped: each call costs less than a wrapper, and on
# `chart` they are half of all calls, so wrapping them would mostly measure
# the tracer.  Their time counts as their caller's self time.
UNWRAPPED = frozenset({
    "algebra.structure_tensor",
    "linalg.conj_raw",
    "linalg.ct_raw",
    "charts.psd_coord_count",
    "charts.rect_coord_count",
})

POOL_WORK = "verify.pool.work"
ENGINES = {
    "verify.run_chart_task": "verify.chart.s",
    "verify.run_mc_equality_task": "verify.mc_equality.s",
    "verify.run_mc_ratio_task": "verify.mc_ratio.s",
}


def _products(args, kwargs) -> int:
    """Matrix products in one mul_raw call: its broadcast batch size."""
    a, b = tuple(args[0].shape[:-3]), tuple(args[1].shape[:-3])
    lead = max(len(a), len(b))
    a, b = (1,) * (lead - len(a)) + a, (1,) * (lead - len(b)) + b
    return math.prod(max(x, y) for x, y in zip(a, b))


def _matrices(args, kwargs) -> int:
    return math.prod(args[0].shape[:-2])


def _coord_rows(index):
    def count(args, kwargs):
        coords = args[index] if len(args) > index else kwargs["coords"]
        return int(coords.shape[0])
    return count


def _complete_point(args, kwargs) -> int:
    return 1


def _frames(args, kwargs) -> int:
    return int(args[4] if len(args) > 4 else kwargs["count"])


def _task_label(args, kwargs) -> str:
    task = args[0] if args else kwargs["task"]
    return f"{task.theorem_id}.{task.engine}"


COUNTS = {
    "linalg.mul_raw": _products,
    "numpy.linalg.eigvalsh": _matrices,
    "numpy.linalg.eigh": _matrices,
    "numpy.linalg.svd": _matrices,
    "charts.complete_psd_batch": _coord_rows(0),
    "charts.complete_rect_batch": _coord_rows(0),
    "charts.complete_psd": _complete_point,
    "charts.complete_rect": _complete_point,
    "charts.hausdorff_density_log_batch": _coord_rows(1),
    "charts.sample_stiefel_batch": _frames,
}

LABELS = {"verify.run_task": _task_label}


class Tracer:
    """Records spans from wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        # (id, parent, thread, name, start, end, count, label)
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, fn, name: str, count=None, label=None, parent=None):
        """A function that calls `fn` and records one span named `name`.

        `parent`, when given, is the parent span of every call (used for pool
        work items, which run on a thread whose own stack is empty)."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            up = stack[-1] if stack else parent
            n = count(args, kwargs) if count else 0
            tag = label(args, kwargs) if label else None
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    (sid, up, threading.get_ident(), name, start, end, n, tag)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing and restoring ------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap divalg's public functions at every binding, plus numpy entry points."""
        import numpy as np

        from divalg import linalg, verify

        modules = [sys.modules["divalg"]] + [
            sys.modules[f"divalg.{name}"] for name in DIVALG_MODULES
        ]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("divalg."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                if name in UNWRAPPED:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(
                        obj, name, COUNTS.get(name), LABELS.get(name)
                    )
                self.patch(module, attr, wrapped[id(obj)])

        self.patch(linalg.Mat, "__post_init__",
                   self.wrap(linalg.Mat.__post_init__, "linalg.Mat"))
        for path in NUMPY_GROUPS:
            owner = np
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            name = f"numpy.{path}"
            self.patch(owner, parts[-1],
                       self.wrap(getattr(owner, parts[-1]), name, COUNTS.get(name)))
        self.patch(verify, "ThreadPoolExecutor", self._pool_class())

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Records each work item as a span parented to its submitter."""

            def submit(self, fn, /, *args, **kwargs):
                jobs = self._max_workers
                work = tracer.wrap(fn, POOL_WORK, count=lambda a, k: jobs,
                                   parent=tracer.current())
                return super().submit(work, *args, **kwargs)

        return TracedPool

    def restore(self) -> None:
        """Put every patched binding back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One JSON object per span: id, parent, thread, name, start, end, count, label."""
        line = ('{{"id": {}, "parent": {}, "thread": {}, "name": "{}", "start": {!r}, '
                '"end": {!r}, "count": {}, "label": {}}}\n')
        with open(path, "w") as fh:
            for sid, parent, thread, name, start, end, n, tag in self.spans:
                fh.write(line.format(sid, json.dumps(parent), thread, name, start, end,
                                     n, json.dumps(tag)))


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> dict[int, float]:
    """Span id -> its length minus the union of its children's intervals.

    Children may run on other threads and overlap each other; each child
    interval is clipped to the parent's before the union is taken."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, _, start, end, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def group_of(name: str) -> str:
    if name.startswith("numpy."):
        return NUMPY_GROUPS.get(name[len("numpy."):], name)
    return DIVALG_GROUPS.get(name, name)


LAYER_GROUPS = (
    "numpy.einsum",
    "linalg.mul_raw",
    "linalg.embed_raw",
    "linalg.Mat",
    "decomp.pinv",
    "decomp.svd_rank_q",
    "charts.choose_pivot",
    "charts.extract",
    "charts.complete",
    "charts.hausdorff_density_log_batch",
    "numpy.linalg.spectra",
    "numpy.linalg.other",
    "charts.sample_stiefel_batch",
    "charts.assemble",
)
COUNT_KEYS = {
    "linalg.mul_raw": "products",
    "charts.hausdorff_density_log_batch": "rows",
    "charts.complete": "rows",
    "numpy.linalg.spectra": "rows",
    "charts.sample_stiefel_batch": "frames",
}
THEOREM_ENGINES = (
    "SVD.MC_RATIO", "SD.MC_RATIO", "QR.MC_RATIO", "CHOL_X.MC_RATIO",
    "W.MC_EQUALITY", "UHLIG_SVD.MC_EQUALITY", "UHLIG_SVD.DEMO",
    "UHLIG_MP.MC_EQUALITY", "MP_HERM.CHART", "MP_HERM.MC_EQUALITY",
    "MP_RECT.CHART", "MP_RECT.MC_EQUALITY", "CHOL.CHART", "UHLIG_QR.CHART",
    "CONGRUENCE_NS.CHART",
)


def unit_of(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name == "verify.pool.busy_share":
        return "ratio"
    return "count"


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures from a span set; every name is present on every workload.

    `calls` and the work counts take only a group's outermost spans, so a
    wrapper that calls a sibling of its own group (complete_psd calling
    complete_psd_batch) is counted once; self time sums over all spans.
    `verify.pool.busy_share` is the pool work items' summed length over
    jobs x the wall time of the engine calls that ran them."""
    selfs = self_times(spans)
    group = {sid: group_of(name) for sid, _, _, name, _, _, _, _ in spans}
    out: dict[str, float] = {}
    for g in LAYER_GROUPS:
        out[f"{g}.calls"] = 0
        out[f"{g}.self_s"] = 0.0
        if g in COUNT_KEYS:
            out[f"{g}.{COUNT_KEYS[g]}"] = 0
    for key in ("verify.chart.s", "verify.mc_equality.s", "verify.mc_ratio.s",
                "verify.self_s", "measures.self_s", "cli.self_s"):
        out[key] = 0.0
    out["measures.calls"] = 0
    for te in THEOREM_ENGINES:
        out[f"verify.task.{te}.s"] = 0.0

    busy = 0.0
    pool_work = []
    for span in spans:
        sid, parent, thread, name, start, end, n, tag = span
        g = group[sid]
        if g in LAYER_GROUPS:
            out[f"{g}.self_s"] += selfs[sid]
            if parent is None or group.get(parent) != g:
                out[f"{g}.calls"] += 1
                if g in COUNT_KEYS:
                    out[f"{g}.{COUNT_KEYS[g]}"] += n
        module = name.split(".", 1)[0]
        if module in ("verify", "measures", "cli"):
            out[f"{module}.self_s"] += selfs[sid]
        if module == "measures" and (parent is None or not group[parent].startswith("measures.")):
            out["measures.calls"] += 1
        if name in ENGINES and group.get(parent) != g:
            out[ENGINES[name]] += end - start
        if name == "verify.run_task" and group.get(parent) != g:
            out[f"verify.task.{tag}.s"] += end - start
        if name == POOL_WORK:
            busy += end - start
            pool_work.append(span)

    # capacity: jobs x wall time of each engine call that handed work to the pool
    by_id = {span[0]: span for span in spans}
    jobs_of: dict[int, int] = {}
    for span in pool_work:
        sid = span[1]
        while sid is not None and by_id[sid][3] not in ENGINES:
            sid = by_id[sid][1]
        if sid is not None:
            jobs_of[sid] = span[6]
    capacity = sum(jobs * (by_id[sid][5] - by_id[sid][4]) for sid, jobs in jobs_of.items())
    out["verify.pool.busy_share"] = busy / capacity if capacity else 0.0
    out["verify.pool.threads"] = len({span[2] for span in pool_work})
    return out
