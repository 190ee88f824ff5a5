#!/usr/bin/env python3
"""The repository benchmark: serving load over the public entry points.

Run from the root of a checkout::

    python3 loadbench/run.py --workload sharded-20k-zipf --seed 1 \
        --seconds 30 --trace 0

Each run builds its inputs from ``--seed`` (``workloads.py``), sets the
deployment up several times (``setup_s`` is the median), then drives it
from one thread through ``submit()`` (``loaddriver.py``):

1. a warm-up closed loop (caches fill, lazy state is built);
2. a saturating closed loop with ``2 x max_batch`` requests outstanding
   (``capacity_qps``);
3. a Poisson open loop at the workload's fixed offered rate, latency
   timed from each request's intended send time (``open_p50_ms``,
   ``open_p99_ms``: the median over consecutive slices of the loop of
   each slice's percentile; the whole loop's figures are printed too).

On ``dynamic-20k-mixed`` one mutator thread applies a fixed-rate
edge-update stream through phases 2 and 3.  The correctness gate
(``gate.py``) runs after the load, outside every timed region; a
mismatch prints ``"correct": false`` and exits 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same phases, installs the benchmark's spans (``ledger.py``) for the
second half of the capacity loop and for the open loop, prints the
per-layer ledger and reports the per-layer metrics; end-to-end numbers
come from untraced runs only.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE_DIR = ROOT / ".loadbench_cache"
SPAN_DIR = ROOT / ".loadbench_spans"

#: The traced run's layers must add up to its end-to-end ms/query within
#: this share, or the run fails; the remainder is reported either way.
LEDGER_CLOSURE = 0.10

#: Metric name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "capacity_qps": "1/s",
    "open_p50_ms": "ms",
    "open_p99_ms": "ms",
    "served_frac": "ratio",
    "recall_at_k": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernels.spmm_ms": "ms",
    "kernels.gbps_computed": "GB/s",
    "kernels.ms_per_q": "ms",
    "core.query_many_ms_per_q": "ms",
    "core.self_ms_per_q": "ms",
    "core.preprocess_s": "s",
    "topk.select_ms_per_q": "ms",
    "engine.self_ms_per_q": "ms",
    "engine.cache_hit_ratio": "ratio",
    "serving.self_ms_per_q": "ms",
    "serving.queue_wait_p50_ms": "ms",
    "serving.batch_size_mean": "count",
    "serving.refused": "count",
    "sharding.ms_per_q": "ms",
    "sharding.sweep_ms": "ms",
    "sharding.gather_ms": "ms",
    "sharding.dispatch_unattributed_ms": "ms",
    "sharding.respawns": "count",
    "dynamic.resync_ms_per_q": "ms",
    "dynamic.update_call_ms": "ms",
    "dynamic.compact_ms": "ms",
    "dynamic.epochs": "count",
    "dynamic.update_p50_ms": "ms",
    "dynamic.update_p90_ms": "ms",
    "bench.e2e_ms_per_q": "ms",
    "bench.unattributed_ms_per_q": "ms",
    "bench.lateness_p99_ms": "ms",
    "bench.tracing_overhead": "ratio",
}


class PeakMemory:
    """Peak resident set size (the kernel's ``VmHWM``) of this process
    plus that of each child process alive during the load (the shard
    workers), which are read on every driver tick."""

    def __init__(self):
        import multiprocessing

        self._children = multiprocessing.active_children
        self._child_kb: dict[int, int] = {}

    @staticmethod
    def _peak_kb(pid) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except (FileNotFoundError, ProcessLookupError):
            pass  # the child exited between listing and reading
        return 0

    def sample(self) -> None:
        for child in self._children():
            self._child_kb[child.pid] = max(
                self._child_kb.get(child.pid, 0), self._peak_kb(child.pid)
            )

    def peak_mb(self) -> float:
        return (self._peak_kb("self") + sum(self._child_kb.values())) / 1024


def _phase_totals(stats: dict) -> dict:
    """``{phase: (total_ms, count)}`` from a front end's ``stats()``."""
    return {
        name: (entry["total_ms"], entry["count"])
        for name, entry in stats["phases"].items()
    }


def _cache_counts(front) -> tuple[int, int]:
    cache = front.stats()["cache"]
    return (0, 0) if cache is None else (cache["hits"], cache["misses"])


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _shown(value) -> str:
    return "unsupported" if value is None else f"{value:.6g}"


def _row(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<34} {_shown(value):>14} {unit:<6} {note}")


def run(args) -> int:
    from repro import Graph
    from repro.exceptions import DeadlineExceeded, ServerOverloaded
    from repro.tune import machine_fingerprint

    import gate
    import ledger
    from loaddriver import (
        LoadDriver, percentile_supported, run_paced_calls,
        segmented_percentile, served_fraction,
    )
    from workloads import (
        GATE_SAMPLE, GRAPH_SEED, MAX_BATCH, SETUP_REPEATS, WORKLOADS,
        deploy, exact_scores, graph_edges, make_inputs, request,
    )

    workload = WORKLOADS[args.workload]
    seconds = float(args.seconds)
    fingerprint = machine_fingerprint()
    print(f"workload {workload.name}: {workload.why}")
    print(f"machine {fingerprint.key()} {json.dumps(fingerprint.to_dict())}")

    # -- inputs and set-up -----------------------------------------------------
    src, dst, generation_s, cached = graph_edges(workload, CACHE_DIR)
    print(
        f"graph: n={workload.nodes} m={src.size}, "
        f"{'loaded' if cached else 'generated'} in {generation_s:.2f} s "
        "(not part of setup_s)"
    )
    inputs = make_inputs(workload, args.seed, seconds, src, dst)
    setups = []
    for attempt in range(SETUP_REPEATS):
        deployment = deploy(workload, src, dst, inputs.first_seed)
        setups.append(
            (deployment.setup_seconds, deployment.preprocess_seconds)
        )
        if attempt + 1 < SETUP_REPEATS:
            deployment.close()
    front = deployment.front
    memory = PeakMemory()
    mutator = None
    mutations = {}
    try:
        # -- load --------------------------------------------------------------
        sampler = None
        if not workload.dynamic:
            sampler = gate.ResultSampler(
                ("capacity", "open"), GATE_SAMPLE // 2, stride=7
            )
        driver = LoadDriver(
            front.submit,
            refused=(ServerOverloaded,),
            deadline=(DeadlineExceeded,),
            on_result=sampler,
            tick=memory.sample,
        )
        warm_share, capacity_share, _ = workload.phase_shares
        outstanding = 2 * MAX_BATCH
        phases = [
            driver.closed_loop(
                "warm", map(request, itertools.cycle(inputs.warm_seeds)),
                outstanding,
                seconds * warm_share,
            )
        ]

        if workload.dynamic:
            graph = deployment.graph
            epoch_before = graph.base_epoch
            apply = {"add": graph.add_edges, "remove": graph.remove_edges}
            calls = [
                ("compact", graph.compact) if kind == "compact"
                else ("update", functools.partial(apply[kind], edges))
                for kind, edges in inputs.updates
            ]
            mutator = threading.Thread(
                target=lambda: mutations.setdefault(
                    "log", run_paced_calls(calls, inputs.update_offsets)
                ),
                name="loadbench-mutator",
            )
            mutator.start()

        capacity_requests = map(
            request, itertools.cycle(inputs.capacity_seeds)
        )
        open_requests = [request(seed) for seed in inputs.open_seeds]
        tracer = ledger.Tracer() if args.trace else None
        if tracer is None:
            capacity = driver.closed_loop(
                "capacity", capacity_requests, outstanding,
                seconds * capacity_share,
            )
            phases.append(capacity)
            open_phase = driver.open_loop(
                "open", open_requests, inputs.open_offsets
            )
        else:
            untraced = driver.closed_loop(
                "capacity", capacity_requests, outstanding,
                seconds * capacity_share / 2,
            )
            stats_before = front.stats()
            cache_before = _cache_counts(front)
            with ledger.installed(tracer):
                capacity = driver.closed_loop(
                    "capacity-traced", capacity_requests, outstanding,
                    seconds * capacity_share / 2,
                )
                stats_after = front.stats()
                cache_after = _cache_counts(front)
                report = ledger.ledger(tracer)
                tracer.dump(
                    SPAN_DIR / f"{workload.name}-{args.seed}-capacity.json"
                )
                tracer.reset()
                open_phase = driver.open_loop(
                    "open", open_requests, inputs.open_offsets
                )
            tracer.dump(SPAN_DIR / f"{workload.name}-{args.seed}-open.json")
            phases += [untraced, capacity]
        phases.append(open_phase)
        if mutator is not None:
            mutator.join()
        log = mutations.get("log")
        peak_mb = memory.peak_mb()

        # -- correctness gate (untimed) ----------------------------------------
        if workload.dynamic:
            graph.compact()
            reference_graph = graph.base_graph
            exact = exact_scores(
                reference_graph, inputs.recall_seeds, CACHE_DIR,
                workload=workload.name, seed=args.seed, seconds=seconds,
            )
        else:
            reference_graph = Graph(workload.nodes, src, dst)
            exact = exact_scores(
                reference_graph, inputs.recall_seeds, CACHE_DIR,
                n=workload.nodes, avg_degree=workload.avg_degree,
                graph_seed=GRAPH_SEED,
            )
        recall, worst_l1, problems = gate.accuracy(
            front, inputs.recall_seeds, exact
        )
        if workload.dynamic:
            problems += gate.long_running_equals_fresh(
                front, graph, inputs.open_seeds, workload.nodes
            )
        else:
            front.close()
            problems += gate.served_equals_serial(
                sampler.kept, reference_graph
            )
    finally:
        if mutator is not None:
            mutator.join()
        front.close()

    # -- report ----------------------------------------------------------------
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.missed for p in phases)
    if log is not None:
        attempted += log.attempted
        failed += log.failed
    served = served_fraction(phases)
    latencies = open_phase.latencies_by_send()
    lateness = open_phase.lateness_ms
    values = {
        "setup_s": statistics.median(setup for setup, _ in setups),
        "capacity_qps": capacity.throughput(),
        "open_p50_ms": segmented_percentile(
            latencies, 50, workload.open_segments
        ),
        "open_p99_ms": segmented_percentile(
            latencies, 99, workload.open_segments
        ),
        "served_frac": served,
        "recall_at_k": recall,
        "peak_rss_mb": peak_mb,
    }
    print(
        "phases: attempted / succeeded / refused / deadline missed / failed"
    )
    for phase in phases:
        print(
            f"  {phase.name:<16} {phase.attempted:>7} {phase.succeeded:>7} "
            f"{phase.refused:>5} {phase.deadline_missed:>5} "
            f"{phase.failed:>5}"
        )
    if log is not None:
        print(
            f"  {'mutator calls':<16} {log.attempted:>7} "
            f"{log.attempted - log.failed:>7} {'-':>5} {'-':>5} "
            f"{log.failed:>5} {'; '.join(log.errors[:3])}"
        )
    notes = {
        "setup_s": f"median of {len(setups)}",
        "capacity_qps": f"{capacity.succeeded} completed with "
        f"{outstanding} outstanding",
        "open_p50_ms": f"n={len(latencies)} at {workload.open_rate:g}/s "
        f"in {workload.open_segments} slices; whole loop "
        f"{_shown(percentile_supported(latencies, 50))} ms",
        "open_p99_ms": f"whole loop "
        f"{_shown(percentile_supported(latencies, 99))} ms; drained "
        f"{open_phase.drained_at - open_phase.issued_until:.3f} s after the "
        "last send",
        "served_frac": f"failed_frac={1 - served:.6g} of {attempted}",
        "recall_at_k": f"{len(inputs.recall_seeds)} seeds, max L1 "
        f"{worst_l1:.3g}",
    }
    print("end-to-end" + (" (traced run: not comparable)" if tracer else ""))
    for name, unit in END_TO_END.items():
        _row(name, values[name], unit, notes.get(name, ""))
    _row(
        "generator lateness p99", percentile_supported(lateness, 99), "ms",
        f"p50 {percentile_supported(lateness, 50):.3g} ms",
    )
    if log is not None:
        for q in (50, 90):
            _row(
                f"update_p{q}_ms", percentile_supported(log.latencies_ms, q),
                "ms", f"n={len(log.latencies_ms)} at "
                f"{workload.update_rate:g}/s",
            )
    for problem in problems:
        print(f"GATE MISMATCH: {problem}")
    print(f"gate: {'pass' if not problems else 'FAIL'}")
    missing = [name for name, value in values.items() if value is None]
    if missing:
        print(
            f"loadbench: too few samples for {', '.join(missing)}; a "
            "percentile is reported only with 10 samples beyond it",
            file=sys.stderr,
        )
        return 3

    closes = True
    if tracer is None:
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        layer_values = per_layer(
            workload, report, tracer, setups, reference_graph,
            untraced, capacity, open_phase, log,
            _phase_totals(stats_before), _phase_totals(stats_after),
            stats_after, cache_before, cache_after,
            sum(p.refused for p in phases),
            graph.base_epoch - epoch_before if workload.dynamic else 0,
        )
        e2e = report["e2e_ms_per_q"]
        unattributed = report["unattributed_ms_per_q"]
        closes = abs(unattributed) <= LEDGER_CLOSURE * e2e
        print(
            f"ledger: layers sum to {e2e - unattributed:.4f} of {e2e:.4f} "
            f"ms/query over {report['queries']} queries on "
            f"{report['dispatch_threads']} dispatch threads (driver "
            f"callbacks, {report['driver_ms_per_q']:.4f} ms/query, left "
            f"out); {'closes' if closes else 'DOES NOT close'} within "
            f"{LEDGER_CLOSURE:.0%}"
        )
        print(
            "per-layer ledger (layer times: traced capacity loop; queue "
            "wait, batch size, lateness: traced open loop)"
        )
        for name, unit in PER_LAYER.items():
            _row(name, layer_values[name], unit)
        metrics = {
            name: {"value": float(layer_values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }

    if not closes:
        print(
            "loadbench: the per-layer ledger does not close within "
            f"{LEDGER_CLOSURE:.0%} of the end-to-end time per query",
            file=sys.stderr,
        )
        return 4
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def per_layer(
    workload, report, tracer, setups, reference_graph, untraced, capacity,
    open_phase, log, phases_before, phases_after, stats_after,
    cache_before, cache_after, refused, epochs,
) -> dict:
    """Per-layer values of a traced run (zero where a layer is absent
    from the workload, e.g. sharding on a threaded Server)."""
    import ledger
    from loaddriver import percentile_supported

    layers = report["layers_ms_per_q"]
    kernel = ledger.spmm_microbench(reference_graph)
    hits = cache_after[0] - cache_before[0]
    lookups = hits + cache_after[1] - cache_before[1]

    def delta(name):
        total, count = phases_after.get(name, (0.0, 0))
        old_total, old_count = phases_before.get(name, (0.0, 0))
        return total - old_total, count - old_count

    dispatch_ms, dispatches = delta("dispatch")
    sharded = workload.front == "router"
    per_dispatch = 1.0 / dispatches if sharded and dispatches else 0.0
    sweep_ms = delta("sweep")[0]
    gather_ms = delta("gather")[0]
    select_ms = delta("select")[0]
    queued = percentile_supported(tracer.queued_ms, 50)
    lateness = percentile_supported(open_phase.lateness_ms, 99)
    updates = log.durations_ms if log is not None else {}
    update_latencies = log.latencies_ms if log is not None else []
    return {
        "kernels.spmm_ms": kernel["spmm_ms"],
        "kernels.gbps_computed": kernel["gbps_computed"],
        "kernels.ms_per_q": layers["kernels"],
        "core.query_many_ms_per_q": (
            layers["core"] + layers["sharding"] + layers["kernels"]
        ),
        "core.self_ms_per_q": layers["core"],
        "core.preprocess_s": statistics.median(
            preprocess for _, preprocess in setups
        ),
        "topk.select_ms_per_q": layers["topk"],
        "engine.self_ms_per_q": layers["engine"],
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serving.self_ms_per_q": layers["serving"],
        "serving.queue_wait_p50_ms": queued or 0.0,
        "serving.batch_size_mean": _mean(tracer.batch_sizes),
        "serving.refused": refused,
        "sharding.ms_per_q": layers["sharding"],
        "sharding.sweep_ms": sweep_ms * per_dispatch,
        "sharding.gather_ms": gather_ms * per_dispatch,
        "sharding.dispatch_unattributed_ms": (
            dispatch_ms - sweep_ms - gather_ms - select_ms
        ) * per_dispatch,
        "sharding.respawns": stats_after["respawns"] if sharded else 0,
        "dynamic.resync_ms_per_q": layers["dynamic.resync"],
        "dynamic.update_call_ms": _mean(updates.get("update")),
        "dynamic.compact_ms": _mean(updates.get("compact")),
        "dynamic.epochs": epochs,
        "dynamic.update_p50_ms": (
            percentile_supported(update_latencies, 50) or 0.0
        ),
        "dynamic.update_p90_ms": (
            percentile_supported(update_latencies, 90) or 0.0
        ),
        "bench.e2e_ms_per_q": report["e2e_ms_per_q"],
        "bench.unattributed_ms_per_q": report["unattributed_ms_per_q"],
        "bench.lateness_p99_ms": (
            lateness if lateness is not None
            else max(open_phase.lateness_ms)
        ),
        "bench.tracing_overhead": (
            untraced.throughput() / capacity.throughput() - 1.0
        ),
    }


def stop_children(timeout: float = 10.0) -> None:
    """Stop and wait for every process this run started.

    Shard workers are joined by ``Router.close()``; any still alive here
    (a path out of ``run`` that skipped it) are terminated, then killed.
    Publishing shard segments to shared memory also starts the standard
    library's resource tracker, which would otherwise outlive this
    process by a moment and stay unreaped; it is stopped and waited for
    as well."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"loadbench: no program source under {source}; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # One defined configuration: the numpy backend and none of the
    # program's own tracing, profiling, fault injection or exporters.
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_KERNEL"] = "numpy"
    sys.path.insert(0, str(source))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            + ", ".join(WORKLOADS)
        )
    try:
        return run(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
