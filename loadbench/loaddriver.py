"""Single-thread load generation: Poisson open loops and N-outstanding
closed loops through ``submit() -> Future``, plus a paced call loop for
a mutator thread.

One driver thread issues every request of a phase.  Completions arrive
on done-callbacks (which run on whichever thread resolves the future),
so the driver never blocks on a result and never needs a thread per
client: a many-thread closed loop on a small machine mostly measures the
interpreter lock and the OS scheduler, not the server.

Open-loop latency is timed from the *intended* send time of each
request, not from when the driver got round to sending it, so a stall
in the generator or the server is charged to every request it delays
(no coordinated omission).  How late the generator ran is recorded as
``lateness``.

This module imports nothing from the program under test: the caller
passes ``submit`` and the exception types that mean "refused" and
"deadline missed", which keeps the self-tests free of any deployment.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "CallLog",
    "LoadDriver",
    "Phase",
    "fixed_schedule",
    "percentile_supported",
    "poisson_schedule",
    "run_paced_calls",
    "segmented_percentile",
    "served_fraction",
]

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the "tail" is one or two outliers.
MIN_SAMPLES_BEYOND = 10


def poisson_schedule(
    rate: float, seconds: float, rng: np.random.Generator
) -> np.ndarray:
    """Intended send offsets (seconds from phase start) of a Poisson
    process at ``rate`` arrivals/s over ``[0, seconds)``."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    expected = rate * seconds
    count = int(expected + 10 * math.sqrt(expected) + 10)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    while offsets[-1] < seconds:
        more = np.cumsum(rng.exponential(1.0 / rate, size=count))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    return offsets[offsets < seconds]


def fixed_schedule(rate: float, count: int) -> np.ndarray:
    """``count`` evenly spaced intended offsets at ``rate`` calls/s."""
    if rate <= 0 or count < 0:
        raise ValueError("rate must be positive and count non-negative")
    return np.arange(count, dtype=np.float64) / rate


def percentile_supported(samples: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile of ``samples``, or ``None`` unless at
    least :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
    n = len(samples)
    if n == 0 or n - math.ceil(n * q / 100.0) < MIN_SAMPLES_BEYOND:
        return None
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def segmented_percentile(
    samples: Sequence[float], q: float, segments: int
) -> float | None:
    """Median over ``segments`` consecutive, equal-count slices of
    ``samples`` (in send order) of each slice's ``q``-th percentile, or
    ``None`` unless every slice supports its percentile.

    On a shared host, a few seconds of stolen CPU raise the tail of
    whatever slice they fall in several-fold; the median of the slices
    is the tail of the typical stretch of the run.  A slowdown of the
    program that recurs more often than once per slice shows in every
    slice, so it moves the median too."""
    if segments < 1:
        raise ValueError("segments must be at least 1")
    bounds = np.linspace(0, len(samples), segments + 1).astype(int)
    values = [
        percentile_supported(samples[lo:hi], q)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if any(value is None for value in values):
        return None
    return float(np.median(values))


def served_fraction(phases: Iterable["Phase"]) -> float:
    """Requests that succeeded over requests attempted, across phases
    (refused, failed and deadline-missed requests all count against)."""
    attempted = succeeded = 0
    for phase in phases:
        attempted += phase.attempted
        succeeded += phase.succeeded
    if attempted == 0:
        raise ValueError("no requests were attempted")
    return succeeded / attempted


@dataclass
class Phase:
    """Accounting of one load phase."""

    name: str
    attempted: int = 0
    succeeded: int = 0
    refused: int = 0
    deadline_missed: int = 0
    failed: int = 0
    #: Per succeeded request: completion minus intended send time.
    latencies_ms: list = field(default_factory=list)
    #: Intended send time of each entry of ``latencies_ms``.
    intended: list = field(default_factory=list)
    #: Per attempted request: actual minus intended send time.
    lateness_ms: list = field(default_factory=list)
    #: ``perf_counter`` instant of every successful completion.
    completions: list = field(default_factory=list)
    began: float = 0.0
    #: When the driver stopped issuing (the measured window's end).
    issued_until: float = 0.0
    #: When the last outstanding request resolved.
    drained_at: float = 0.0

    @property
    def missed(self) -> int:
        return self.refused + self.deadline_missed + self.failed

    def latencies_by_send(self) -> list:
        """``latencies_ms`` ordered by intended send time."""
        return [
            latency for _, latency in sorted(
                zip(self.intended, self.latencies_ms)
            )
        ]

    def throughput(self) -> float:
        """Completions per second while the driver was issuing.

        The rate runs from the first completion to the last inside
        ``[began, issued_until]``, counting the completions after the
        first: a server that answers in batches completes in bursts, and
        this neither charges the start-up latency of the first burst nor
        credits a partial last one.  Every stall inside the phase counts."""
        inside = sorted(
            t for t in self.completions
            if self.began <= t <= self.issued_until
        )
        if len(inside) < 2 or inside[-1] <= inside[0]:
            raise ValueError(
                f"phase {self.name!r} completed too few requests"
            )
        return (len(inside) - 1) / (inside[-1] - inside[0])


class LoadDriver:
    """Issues requests from the calling thread; see the module docstring.

    Parameters
    ----------
    submit:
        ``request -> Future``; may raise.
    refused / deadline:
        Exception types meaning the request was refused at admission, or
        failed because its deadline passed.  Anything else raised is a
        failure.
    on_result:
        Optional ``(phase_name, request, result)`` hook, called on the
        resolving thread for every success (keep it cheap).
    tick:
        Optional callable the driver invokes about every ``tick_seconds``
        while it runs a phase (e.g. a memory sampler); never more often,
        so its cost stays off the request path.
    """

    def __init__(
        self,
        submit: Callable,
        *,
        refused: tuple = (),
        deadline: tuple = (),
        on_result: Callable | None = None,
        tick: Callable[[], None] | None = None,
        tick_seconds: float = 0.02,
        drain_timeout: float = 60.0,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._submit = submit
        self._refused = tuple(refused)
        self._deadline = tuple(deadline)
        self._on_result = on_result
        self._tick = tick
        self._tick_seconds = tick_seconds
        self._drain_timeout = drain_timeout
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Condition()
        self._inflight: dict[int, object] = {}
        self._next_id = 0
        self._ticked_at = float("-inf")

    # -- phases ----------------------------------------------------------------

    def open_loop(
        self, name: str, requests: Sequence, offsets: Sequence[float]
    ) -> Phase:
        """Send ``requests[i]`` at ``offsets[i]`` seconds after the phase
        starts, whatever the server is doing, then wait for stragglers."""
        if len(requests) != len(offsets):
            raise ValueError("one offset per request")
        phase = Phase(name)
        phase.began = self._clock()
        for request, offset in zip(requests, offsets):
            intended = phase.began + float(offset)
            self._wait_until(intended)
            self._send(phase, request, intended)
        phase.issued_until = self._clock()
        self._drain(phase)
        return phase

    def closed_loop(
        self,
        name: str,
        requests: Iterable,
        outstanding: int,
        seconds: float,
    ) -> Phase:
        """Keep ``outstanding`` requests in flight for ``seconds``: each
        completion frees a slot the driver refills at once."""
        if outstanding < 1:
            raise ValueError("outstanding must be at least 1")
        slots = threading.Semaphore(outstanding)
        phase = Phase(name)
        phase.began = self._clock()
        end = phase.began + seconds
        source = iter(requests)
        while True:
            acquired = False
            while not acquired and self._clock() < end:
                acquired = slots.acquire(timeout=self._tick_seconds)
                self._maybe_tick()
            if not acquired:
                break
            try:
                request = next(source)
            except StopIteration:
                slots.release()
                break
            self._send(phase, request, self._clock(), slots.release)
        phase.issued_until = self._clock()
        self._drain(phase)
        return phase

    # -- internals -------------------------------------------------------------

    def _maybe_tick(self) -> None:
        if self._tick is not None:
            now = self._clock()
            if now - self._ticked_at >= self._tick_seconds:
                self._ticked_at = now
                self._tick()

    def _wait_until(self, instant: float) -> None:
        while True:
            remaining = instant - self._clock()
            if remaining <= 0:
                return
            self._sleep(min(remaining, self._tick_seconds))
            self._maybe_tick()

    def _send(self, phase: Phase, request, intended: float, release=None):
        sent = self._clock()
        phase.attempted += 1
        phase.lateness_ms.append((sent - intended) * 1e3)
        try:
            future = self._submit(request)
        except self._refused:
            phase.refused += 1
            if release is not None:
                release()
            return
        except Exception:  # noqa: BLE001 - a failed request, counted
            with self._lock:
                phase.failed += 1
            if release is not None:
                release()
            return
        with self._lock:
            token = self._next_id
            self._next_id += 1
            self._inflight[token] = future

        future.add_done_callback(
            lambda resolved: self._complete(
                phase, token, request, intended, release, resolved
            )
        )

    def _complete(self, phase, token, request, intended, release, resolved):
        """Done-callback of one request (runs on the resolving thread)."""
        finished = self._clock()
        outcome = "failed"
        result = None
        try:
            result = resolved.result()
            outcome = "ok"
        except self._deadline:
            outcome = "deadline"
        except (CancelledError, Exception):  # noqa: BLE001 - counted
            outcome = "failed"
        with self._lock:
            if self._inflight.pop(token, None) is None:
                return  # already written off as failed by _drain
            if outcome == "ok":
                phase.succeeded += 1
                phase.latencies_ms.append((finished - intended) * 1e3)
                phase.intended.append(intended)
                phase.completions.append(finished)
            elif outcome == "deadline":
                phase.deadline_missed += 1
            else:
                phase.failed += 1
            self._lock.notify_all()
        if outcome == "ok" and self._on_result is not None:
            self._on_result(phase.name, request, result)
        if release is not None:
            release()

    def _drain(self, phase: Phase) -> None:
        """Wait for every in-flight request; those still unresolved after
        ``drain_timeout`` are cancelled and counted as failed."""
        limit = self._clock() + self._drain_timeout
        with self._lock:
            while self._inflight and self._clock() < limit:
                self._lock.wait(timeout=self._tick_seconds)
            stuck = list(self._inflight.values())
            self._inflight.clear()
            phase.failed += len(stuck)
        for future in stuck:
            future.cancel()
        phase.drained_at = self._clock()


@dataclass
class CallLog:
    """Timings of a paced call sequence (one mutator thread)."""

    attempted: int = 0
    failed: int = 0
    #: Completion minus intended start, per call that returned.
    latencies_ms: list = field(default_factory=list)
    #: Call duration by call kind (e.g. ``"update"``, ``"compact"``).
    durations_ms: dict = field(default_factory=dict)
    lateness_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_paced_calls(
    calls: Sequence[tuple[str, Callable[[], object]]],
    offsets: Sequence[float],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    start: float | None = None,
) -> CallLog:
    """Run ``calls[i]`` (a ``(kind, fn)`` pair) at ``offsets[i]`` seconds
    after ``start``; a late call runs at once and its wait is charged to
    its latency."""
    if len(calls) != len(offsets):
        raise ValueError("one offset per call")
    log = CallLog()
    began = clock() if start is None else start
    for (kind, fn), offset in zip(calls, offsets):
        intended = began + float(offset)
        remaining = intended - clock()
        if remaining > 0:
            sleep(remaining)
        started = clock()
        log.attempted += 1
        log.lateness_ms.append((started - intended) * 1e3)
        try:
            fn()
        except Exception as error:  # noqa: BLE001 - counted, kept for report
            log.failed += 1
            log.errors.append(repr(error))
            continue
        finished = clock()
        log.latencies_ms.append((finished - intended) * 1e3)
        log.durations_ms.setdefault(kind, []).append(
            (finished - started) * 1e3
        )
    return log
