"""Self-tests of the benchmark's load driver (no deployment involved).

Run with ``python -m pytest loadbench -q`` from the checkout root.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from loaddriver import (  # noqa: E402
    LoadDriver,
    Phase,
    fixed_schedule,
    percentile_supported,
    poisson_schedule,
    run_paced_calls,
    segmented_percentile,
    served_fraction,
)


class FakeClock:
    """Manual time: ``sleep`` advances it, nothing else does."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class Refused(Exception):
    pass


class Late(Exception):
    pass


def test_poisson_schedule_is_seeded_sorted_and_bounded():
    first = poisson_schedule(200.0, 10.0, np.random.default_rng(5))
    second = poisson_schedule(200.0, 10.0, np.random.default_rng(5))
    np.testing.assert_array_equal(first, second)
    assert np.all(np.diff(first) > 0)
    assert first[0] >= 0 and first[-1] < 10.0
    # 2000 expected arrivals: the count is within 5 standard deviations.
    assert abs(first.size - 2000) < 5 * np.sqrt(2000)
    gaps = np.diff(first)
    assert gaps.mean() == pytest.approx(1 / 200.0, rel=0.1)
    # Exponential gaps: the coefficient of variation is about 1.
    assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.1)


def test_poisson_schedule_rejects_bad_rates():
    with pytest.raises(ValueError):
        poisson_schedule(0.0, 1.0, np.random.default_rng(0))


def test_fixed_schedule_spacing():
    np.testing.assert_allclose(fixed_schedule(4.0, 3), [0.0, 0.25, 0.5])


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile_supported(list(range(999)), 99) is None
    assert percentile_supported(list(range(1000)), 99) == pytest.approx(
        np.percentile(np.arange(1000), 99)
    )
    assert percentile_supported(list(range(19)), 50) is None
    assert percentile_supported(list(range(20)), 50) == pytest.approx(9.5)
    assert percentile_supported([], 50) is None


def test_segmented_percentile_is_the_median_over_slices():
    """Three slices of 1000 in send order, one of them slowed ten-fold:
    the median slice's p99 is reported."""
    calm = list(np.linspace(1.0, 2.0, 1000))
    slow = [10 * value for value in calm]
    samples = calm + slow + calm
    assert segmented_percentile(samples, 99, 3) == pytest.approx(
        np.percentile(calm, 99)
    )
    # A slowdown in every slice moves the median with it.
    assert segmented_percentile(slow * 3, 99, 3) == pytest.approx(
        np.percentile(slow, 99)
    )
    assert segmented_percentile(samples, 99, 1) == pytest.approx(
        np.percentile(samples, 99)
    )


def test_segmented_percentile_needs_every_slice_supported():
    assert segmented_percentile(list(range(2999)), 99, 3) is None
    assert segmented_percentile(list(range(3000)), 99, 3) is not None
    with pytest.raises(ValueError):
        segmented_percentile(list(range(3000)), 99, 0)


def test_throughput_charges_a_stall():
    """100 completions/s with a 5 s stall in the middle: the rate is
    taken over the whole phase, stall included."""
    times = list(np.arange(0, 5, 0.01)) + list(np.arange(10, 15, 0.01))
    phase = Phase(
        "capacity", completions=times + [15.5], began=0.0, issued_until=15.0
    )
    assert phase.throughput() == pytest.approx(999 / 14.99, rel=1e-3)


def test_open_loop_times_latency_from_intended_send():
    """A submit that blocks the generator for 1 s delays the sends behind
    it: their latency counts the stall, and the lateness records how late
    they went out."""
    clock = FakeClock()
    futures = []

    def submit(request):
        future = Future()
        futures.append(future)
        if request == 0:
            clock.now += 1.0
        if request == 2:  # everything resolves at +1.0 s
            for pending in futures:
                pending.set_result("ok")
        return future

    driver = LoadDriver(submit, clock=clock, sleep=clock.sleep)
    phase = driver.open_loop("open", [0, 1, 2], [0.0, 0.1, 0.2])
    assert phase.attempted == 3 and phase.succeeded == 3
    # Request 1 was due at +0.1 s but left at +1.0 s.
    assert phase.lateness_ms == pytest.approx([0.0, 900.0, 800.0])
    assert sorted(phase.latencies_ms) == pytest.approx([800.0, 900.0, 1000.0])


def test_outcomes_are_counted_per_kind():
    outcomes = iter(["ok", "refuse", "late", "fail", "ok", "raise"])

    def submit(request):
        kind = next(outcomes)
        if kind == "refuse":
            raise Refused()
        if kind == "raise":
            raise RuntimeError("bad request")
        future = Future()
        if kind == "ok":
            future.set_result(request)
        elif kind == "late":
            future.set_exception(Late())
        else:
            future.set_exception(RuntimeError("worker died"))
        return future

    clock = FakeClock()
    driver = LoadDriver(
        submit, refused=(Refused,), deadline=(Late,),
        clock=clock, sleep=clock.sleep,
    )
    phase = driver.open_loop("open", list(range(6)), [0.0] * 6)
    assert phase.attempted == 6
    assert phase.succeeded == 2
    assert phase.refused == 1
    assert phase.deadline_missed == 1
    assert phase.failed == 2
    assert phase.missed == 4
    assert served_fraction([phase]) == pytest.approx(2 / 6)


def test_served_fraction_spans_phases():
    first = Phase("a", attempted=10, succeeded=10)
    second = Phase("b", attempted=30, succeeded=20, refused=10)
    assert served_fraction([first, second]) == pytest.approx(30 / 40)
    with pytest.raises(ValueError):
        served_fraction([])


def test_unresolved_requests_fail_after_the_drain_timeout():
    pending = []

    def submit(request):
        future = Future()
        pending.append(future)
        return future

    driver = LoadDriver(submit, drain_timeout=0.05)
    phase = driver.open_loop("open", [0, 1], [0.0, 0.0])
    assert phase.failed == 2 and phase.succeeded == 0
    assert all(future.cancelled() for future in pending)


def test_closed_loop_keeps_n_outstanding():
    """Completions come from another thread; the driver never has more
    than ``outstanding`` requests in flight."""
    lock = threading.Lock()
    inflight = [0, 0]  # current, peak
    queue: list[Future] = []
    stop = threading.Event()

    def submit(request):
        future = Future()
        with lock:
            inflight[0] += 1
            inflight[1] = max(inflight[1], inflight[0])
            queue.append(future)
        return future

    def server():
        while not stop.is_set():
            with lock:
                batch, queue[:] = list(queue), []
            for future in batch:
                with lock:
                    inflight[0] -= 1
                future.set_result("ok")
            stop.wait(0.001)

    thread = threading.Thread(target=server)
    thread.start()
    try:
        phase = LoadDriver(submit).closed_loop(
            "capacity", iter(range(10**9)), 4, 0.2
        )
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert inflight[1] <= 4
    assert phase.attempted == phase.succeeded > 4
    assert phase.throughput() > 0


def test_paced_calls_charge_waiting_to_latency():
    clock = FakeClock()

    def slow():
        clock.now += 0.5

    log = run_paced_calls(
        [("update", slow), ("update", slow), ("compact", lambda: 1 / 0)],
        [0.0, 0.1, 0.2],
        clock=clock, sleep=clock.sleep,
    )
    assert log.attempted == 3 and log.failed == 1
    # The second call was due at +0.1 s, started at +0.5 s, ended at +1.0 s.
    assert log.latencies_ms == pytest.approx([500.0, 900.0])
    assert log.lateness_ms == pytest.approx([0.0, 400.0, 800.0])
    assert log.durations_ms["update"] == pytest.approx([500.0, 500.0])


def test_benchmark_json_matches_what_the_runs_report():
    import run

    document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {
        metric["name"]: metric["unit"] for metric in document["end_to_end"]
    } == run.END_TO_END
    assert {
        metric["name"]: metric["unit"] for metric in document["per_layer"]
    } == run.PER_LAYER
    assert document["command"] == ["python3", "loadbench/run.py"]
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    for listed in document["workloads"]:
        assert WORKLOADS[listed["name"]].why == listed["why"]
