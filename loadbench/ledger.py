"""Benchmark-owned tracing: spans around the public calls of each layer.

The traced run wraps, from outside the program, the functions each layer
exposes and the serving stack calls:

==================  =====================================================
layer               wrapped calls
==================  =====================================================
(root)              ``dispatch_batch``: one span per micro-batch; its own
                    time is no layer's and stays unattributed
serving             ``LatencyStats.record[_phases]`` and ``resolve_future``
engine              ``Engine.batch``
dynamic.resync      ``PPRMethod.preprocess`` (epoch repair inside a batch)
core                ``PPRMethod.query_many``
sharding            ``ShardedOperator.propagate[_decayed]`` (scatter, sweep
                    in the shard processes, gather)
kernels             ``kernels.spmm`` / ``spmv`` / ``spmm_tiled``
topk                ``select_top_k[_many]`` and ``banned_mask[_many]`` as
                    the engine calls them
bench.driver        the load driver's done-callbacks, which run inside
                    ``resolve_future`` on the dispatch thread
==================  =====================================================

A span's *self* time is its duration minus the time its child spans
cover.  The end-to-end figure is the dispatch threads' time minus the
driver's callbacks (the benchmark's own work, charged to no layer); what
the layers' self times leave of it is reported as unattributed.  Only
spans under a dispatch are counted, so set-up, the gate and the mutator
thread never leak in.  Spans are kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from repro import kernels
from repro.engine import Engine
from repro.engine import engine as engine_module
from repro.method import PPRMethod
from repro.serving import server as server_module
from repro.serving.metrics import LatencyStats
from repro.sharding import router as router_module
from repro.sharding.operator import ShardedOperator

from loaddriver import LoadDriver

#: Spans kept for the dump (aggregates cover every span regardless).
MAX_SPANS = 50_000
#: Layer names of the dispatch span and of the driver's callbacks.
ROOT = "dispatch"
DRIVER = "bench.driver"

#: Layers of the program, in ledger order.
LAYERS = (
    "serving", "engine", "dynamic.resync", "core", "sharding", "kernels",
    "topk",
)


class Tracer:
    """Per-thread span stacks feeding per-layer self-time totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_seconds: dict[str, float] = defaultdict(float)
            self.calls: Counter = Counter()
            #: Dispatch thread -> [first dispatch begin, last dispatch end].
            self.windows: dict[int, list[float]] = {}
            self.queued_ms: list[float] = []
            self.batch_sizes: list[int] = []
            self.spans: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, root: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if not stack and not root:
                return fn(*args, **kwargs)
            with tracer._lock:
                tracer._ids += 1
                span_id = tracer._ids
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            begin = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - begin
                if stack:
                    stack[-1][0] += duration
                tracer._record(
                    layer, span_id, parent, begin, end,
                    duration - frame[0], root,
                )

        return traced

    def _record(self, layer, span_id, parent, begin, end, own, root):
        thread = threading.get_ident()
        with self._lock:
            self.self_seconds[layer] += own
            self.calls[layer] += 1
            if root:
                window = self.windows.setdefault(thread, [begin, end])
                window[0] = min(window[0], begin)
                window[1] = max(window[1], end)
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (span_id, parent, layer, thread, begin, end)
                )

    def wrap_dispatch(self, fn):
        """The root span; also records each request's queue wait and
        the micro-batch size."""
        traced = self.wrap(ROOT, fn, root=True)

        @functools.wraps(fn)
        def dispatch(engine, metrics, batch, *args, **kwargs):
            now = time.perf_counter()
            with self._lock:
                self.queued_ms.extend(
                    (now - pending.submitted_at) * 1e3 for pending in batch
                )
                self.batch_sizes.append(len(batch))
            return traced(engine, metrics, batch, *args, **kwargs)

        return dispatch

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            rows = [
                {"id": s, "parent": p, "layer": layer, "thread": t,
                 "begin": b, "end": e}
                for s, p, layer, t, b, e in self.spans
            ]
        path.write_text(json.dumps(rows))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced call for the duration of the block."""
    patches = [
        (server_module, "dispatch_batch", None),
        (router_module, "dispatch_batch", None),
        (server_module, "resolve_future", "serving"),
        (LatencyStats, "record", "serving"),
        (LatencyStats, "record_phases", "serving"),
        (LoadDriver, "_complete", DRIVER),
        (Engine, "batch", "engine"),
        (PPRMethod, "preprocess", "dynamic.resync"),
        (PPRMethod, "query_many", "core"),
        (ShardedOperator, "propagate", "sharding"),
        (ShardedOperator, "propagate_decayed", "sharding"),
        (kernels, "spmm", "kernels"),
        (kernels, "spmv", "kernels"),
        (kernels, "spmm_tiled", "kernels"),
        (engine_module, "select_top_k", "topk"),
        (engine_module, "select_top_k_many", "topk"),
        (engine_module, "banned_mask", "topk"),
        (engine_module, "banned_mask_many", "topk"),
    ]
    originals = []
    try:
        for owner, name, layer in patches:
            original = owner.__dict__[name]
            originals.append((owner, name, original))
            setattr(
                owner,
                name,
                tracer.wrap_dispatch(original)
                if layer is None
                else tracer.wrap(layer, original),
            )
        yield tracer
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def ledger(tracer: Tracer) -> dict:
    """Per-layer ms per query over the traced window.

    The end-to-end figure is dispatch-thread time per query: for each
    dispatch thread, the span from its first dispatch's start to its
    last dispatch's end, summed over threads, less the driver's
    callbacks, divided by the queries dispatched.  The layers' self
    times are measured independently; the difference is
    ``unattributed`` (``dispatch_batch``'s own code, time between
    dispatches in the scheduler) and is always reported."""
    with tracer._lock:
        queries = sum(tracer.batch_sizes)
        if not queries:
            raise ValueError("the traced window dispatched no queries")
        wall = sum(end - begin for begin, end in tracer.windows.values())
        driver = tracer.self_seconds.get(DRIVER, 0.0)
        per_query = {
            layer: tracer.self_seconds.get(layer, 0.0) * 1e3 / queries
            for layer in LAYERS
        }
    e2e = (wall - driver) * 1e3 / queries
    return {
        "e2e_ms_per_q": e2e,
        "layers_ms_per_q": per_query,
        "unattributed_ms_per_q": e2e - sum(per_query.values()),
        "driver_ms_per_q": driver * 1e3 / queries,
        "queries": queries,
        "dispatch_threads": len(tracer.windows),
    }


def spmm_microbench(graph, columns: int = 64, repeats: int = 7) -> dict:
    """Median time of one ``kernels.spmm`` with ``columns`` right-hand
    sides on the graph's propagation operator, and the bytes such a
    product must move by this model (computed, not measured): values and
    column indices once, the row pointer once, one ``columns``-wide row
    of ``x`` gathered per nonzero, and the ``n x columns`` output
    written once."""
    operator = graph.transition_transpose
    n = operator.shape[0]
    rng = np.random.default_rng(0)
    x = rng.random((n, columns))
    out = np.empty_like(x)
    kernels.spmm(operator, x, out=out)
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        kernels.spmm(operator, x, out=out)
        samples.append(time.perf_counter() - begin)
    seconds = float(np.median(samples))
    width = x.dtype.itemsize
    moved = (
        operator.nnz * (operator.data.itemsize + operator.indices.itemsize)
        + operator.indptr.nbytes
        + operator.nnz * columns * width
        + n * columns * width
    )
    return {
        "spmm_ms": seconds * 1e3,
        "gbps_computed": moved / seconds / 1e9,
    }
