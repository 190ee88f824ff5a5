"""The per-run correctness gate, run outside every timed region.

* Served top-k ids and scores must equal a serial ``Engine.batch`` over
  the same requests, bit for bit (sharded and threaded serving promise
  exactly this).
* On a dynamic graph, after a final ``compact()``, the deployment that
  served the whole run must answer bit for bit like a fresh deployment
  on a ``Graph`` rebuilt from the compacted edge set (``DynamicGraph``
  promises post-compact results identical to a from-scratch build).
* Every served full score vector of the recall sample must lie within
  TPA's L1 bound ``2(1-c)^S`` of exact CPI.

Any mismatch fails the run; none is ever relaxed into a tolerance.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import Engine, Graph
from repro.engine import QueryRequest
from repro.serving import Server

from workloads import GATE_SAMPLE, K, MAX_BATCH, request, tpa


class ResultSampler:
    """``LoadDriver.on_result`` hook keeping every ``stride``-th success
    of each phase, up to ``per_phase`` of them (cheap, thread-safe)."""

    def __init__(self, phases: tuple[str, ...], per_phase: int, stride: int):
        self._quota = {name: per_phase for name in phases}
        self._seen = {name: 0 for name in phases}
        self._stride = stride
        self._lock = threading.Lock()
        self.kept: list[tuple[QueryRequest, object]] = []

    def __call__(self, phase: str, req, result) -> None:
        if phase not in self._quota:
            return
        with self._lock:
            self._seen[phase] += 1
            if self._quota[phase] and self._seen[phase] % self._stride == 0:
                self._quota[phase] -= 1
                self.kept.append((req, result))


def compare_bitwise(label, reference, requests, served, expected):
    """Problems where ``served`` and ``expected`` top-k differ at all."""
    problems = []
    for req, got, want in zip(requests, served, expected):
        same_ids = np.array_equal(got.top_nodes, want.top_nodes)
        if not (same_ids and np.array_equal(got.top_scores, want.top_scores)):
            gap = float(np.max(np.abs(got.top_scores - want.top_scores)))
            problems.append(
                f"{label}: seed {req.seed} top-{req.k} differs from "
                f"{reference} (ids {'equal' if same_ids else 'differ'}, "
                f"max score gap {gap:.3g})"
            )
    return problems


def served_equals_serial(kept, graph: Graph) -> list[str]:
    """Results served under load vs a serial Engine on the same graph."""
    if not kept:
        return ["gate: no served results were sampled"]
    requests = [req for req, _ in kept]
    reference = Engine(tpa(), graph)
    expected = reference.batch(requests)
    return compare_bitwise(
        "served", "serial Engine.batch", requests,
        [result for _, result in kept], expected,
    )


def long_running_equals_fresh(front, dynamic_graph, seeds, num_nodes):
    """The long-running deployment ``front``, after the final
    ``compact()``, vs a fresh Server on a Graph rebuilt from the
    compacted edges."""
    src, dst = dynamic_graph.edges()
    rebuilt = Graph(num_nodes, src, dst)
    requests = [request(seed) for seed in seeds[:GATE_SAMPLE]]
    served = front.batch(requests)
    with Server(
        tpa(), rebuilt, workers=2, max_batch=MAX_BATCH
    ) as fresh:
        expected = fresh.batch(requests)
    return compare_bitwise(
        "long-running", "a fresh deployment after compact()", requests,
        served, expected,
    )


def accuracy(front, seeds: np.ndarray, exact: np.ndarray):
    """``(mean recall@K, max L1, problems)`` of the deployment's served
    answers for ``seeds`` against exact CPI rows ``exact``.

    Recall is the paper's Fig. 7 measure: the served top-K (seed
    excluded) against the exact top-K with the seed excluded."""
    top = front.batch([request(seed) for seed in seeds])
    full = front.batch([QueryRequest(seed=int(seed)) for seed in seeds])
    problems = []
    recalls = []
    worst_l1 = 0.0
    for seed, ranked, vector, exact_row in zip(seeds, top, full, exact):
        bound = vector.error_bound
        l1 = float(np.abs(vector.scores - exact_row).sum())
        worst_l1 = max(worst_l1, l1)
        if bound is None or not l1 <= bound:
            problems.append(
                f"seed {seed}: L1 error {l1:.3g} exceeds the TPA bound "
                f"{bound}"
            )
        order = np.argsort(-exact_row, kind="stable")
        truth = order[order != seed][:K]
        recalls.append(
            len(set(truth.tolist()) & set(ranked.top_nodes.tolist())) / K
        )
    return float(np.mean(recalls)), worst_l1, problems
