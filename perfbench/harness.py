"""Shared benchmark machinery: epochs, statistics, outside-in spans, probes.

Nothing here imports :mod:`repro`; the workload modules do. Every
measurement hook is installed *from the benchmark's side* of a layer
boundary (a wrapper around a public callable), so the program under test
runs unmodified.
"""

from __future__ import annotations

import gc
import itertools
import os
import platform
import queue
import resource
import statistics
import sys
import threading
import time
import tracemalloc
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: percentile levels tried for the tail metric, highest first: the
#: reported tail is the highest level with at least ``TAIL_BEYOND``
#: samples above it in every measured epoch
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class CheckFailed(AssertionError):
    """An output of the program under test was wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(sorted_values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, -(-len(sorted_values) * level // 100))  # ceil
    return sorted_values[int(rank) - 1]


def tail_level(sample_count: int) -> float:
    """Highest level in :data:`TAIL_LEVELS` with enough samples beyond it."""
    for level in TAIL_LEVELS:
        if sample_count * (100.0 - level) / 100.0 >= TAIL_BEYOND:
            return level
    return TAIL_LEVELS[-1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# one measured epoch
# ----------------------------------------------------------------------
@dataclass
class Epoch:
    """One freshly built system doing a fixed amount of work.

    The work is fixed, not the time, so memory the program retains per
    call (audit trails, bid histories, journals) does not grow with its
    speed, and each epoch contributes one set-up sample.
    """

    setup_s: float = 0.0
    window_s: float = 0.0
    ops: int = 0
    failed: int = 0
    #: expected business rejections (auth / validation ABORTs): checked
    #: against the program's own counters, never counted as failures
    rejected: int = 0
    latencies_ns: List[int] = field(default_factory=list)
    #: per-workload extra samples, e.g. ``move_downtime_ms``
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: how much slower than the reference speed the machine ran around
    #: this epoch (see :func:`calibrate`); 1.0 when not calibrated
    slowness: float = 1.0

    def add_sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    @property
    def throughput(self) -> float:
        return self.ops / self.window_s if self.window_s > 0 else 0.0


def summarize(epochs: List[Epoch]) -> Dict[str, Any]:
    """Medians over epochs, so no disturbed stretch of the run moves a
    figure (the machine's speed drifts by tens of percent within a
    second, so a run is many short epochs rather than one long one).

    The timed figures are scaled to the reference speed by each epoch's
    :attr:`Epoch.slowness`; ``measured`` holds them as the clock read.
    """
    level = tail_level(min(len(e.latencies_ns) for e in epochs))
    measured: Dict[str, List[float]] = {name: [] for name in TIMED}
    scaled: Dict[str, List[float]] = {name: [] for name in TIMED}
    for epoch in epochs:
        ordered = sorted(epoch.latencies_ns)
        figures = {
            "setup_s": epoch.setup_s,
            "throughput_ops_s": epoch.throughput,
            "latency_p50_us": percentile(ordered, 50.0) / 1000.0,
            "latency_p99_us": percentile(ordered, level) / 1000.0,
        }
        for name, value in figures.items():
            measured[name].append(value)
            # a slower machine completes fewer calls per second and
            # takes longer over each: undo both
            scaled[name].append(value * epoch.slowness
                                if name == "throughput_ops_s"
                                else value / epoch.slowness)
    attempted = sum(e.ops for e in epochs)
    failed = sum(e.failed for e in epochs)
    pooled: Dict[str, List[float]] = {}
    for epoch in epochs:
        for name, values in epoch.samples.items():
            pooled.setdefault(name, []).extend(values)
    summary = {
        "epochs": len(epochs),
        "attempted": attempted,
        "failed": failed,
        "rejected": sum(e.rejected for e in epochs),
        "samples": sum(len(e.latencies_ns) for e in epochs),
        "min_epoch_samples": min(len(e.latencies_ns) for e in epochs),
        "tail_level": level,
        "slowness": median([e.slowness for e in epochs]),
        "measured": {name: median(values)
                     for name, values in measured.items()},
        "failed_ratio": failed / attempted if attempted else 0.0,
        "extra": {name: (median(values), len(values))
                  for name, values in pooled.items()},
    }
    summary.update((name, median(values)) for name, values in scaled.items())
    return summary


def peak_rss_mb() -> float:
    """Process high-water resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------
#: the timed end-to-end figures, which are scaled to the reference speed
TIMED = ("setup_s", "throughput_ops_s", "latency_p50_us", "latency_p99_us")

#: round trips between two threads in one calibration block
CALIBRATION_TRIPS = 2000
#: nanoseconds one calibration block takes at the reference speed: about
#: the median of 200 blocks on the 2-vCPU x86-64 virtual machine, running
#: CPython 3.11, that the benchmark was written on
CALIBRATION_REF_NS = 20_000_000


def calibrate() -> float:
    """How much slower than the reference speed the machine runs now.

    Times a fixed block of round trips between two threads through a
    queue, against :data:`CALIBRATION_REF_NS`. The benchmark runs on a
    shared host whose speed drifts by up to 2x over minutes, so two runs
    of the same code differ by that much on the clock alone; timing a
    block between every two epochs and scaling each epoch by the blocks
    on either side of it removes most of the drift and leaves the
    program's own speed. A thread handoff, the step every RPC and
    continuation is built on, tracked the drift of ``ticketing-local``
    and ``durable-churn`` more closely than a loop of pure interpreter
    work did, which drifted more than either. The block is this file's
    code and the standard library, so a change to the program cannot
    move it.
    """
    gc.collect()
    requests: "queue.SimpleQueue[Optional[int]]" = queue.SimpleQueue()
    replies: "queue.SimpleQueue[int]" = queue.SimpleQueue()

    def echo() -> None:
        for item in iter(requests.get, None):
            replies.put(item)

    thread = threading.Thread(target=echo, name="perfbench-calibrate")
    thread.start()
    try:
        started = time.perf_counter_ns()
        for trip in range(CALIBRATION_TRIPS):
            requests.put(trip)
            replies.get()
        took = time.perf_counter_ns() - started
    finally:
        requests.put(None)
        thread.join()
    return took / CALIBRATION_REF_NS


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "switch_interval_s": sys.getswitchinterval(),
        # durable-churn journals to a MemoryStore: no filesystem is
        # on any measured path
        "journal_store": "memory",
    }


# ----------------------------------------------------------------------
# outside-in spans
# ----------------------------------------------------------------------
class Spans:
    """Spans recorded by wrappers around calls into each layer.

    A wrapper pushes a frame on a thread-local stack, so a span's parent
    is the enclosing wrapped call on the same thread and spans of one
    request share the root's trace id. Totals are aggregated online;
    the last ``keep`` raw spans stay in memory for :meth:`export`.
    """

    def __init__(self, keep: int = 2048) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: name -> [calls, inclusive ns, self ns]
        self.totals: Dict[str, List[int]] = {}
        self.counters: Dict[str, int] = {}
        self.kept: deque = deque(maxlen=keep)

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, func: Callable[..., Any],
             skip_under: Tuple[str, ...] = (),
             on_result: Optional[Callable[[Any], None]] = None,
             ) -> Callable[..., Any]:
        """``func`` timed as span ``name``.

        ``skip_under`` names parent spans under which the call is not a
        boundary crossing of this layer (e.g. a validation rule reading
        the component) and runs unrecorded.
        """
        local = self._local
        clock = time.perf_counter_ns
        ids = self._ids
        lock = self._lock
        totals = self.totals
        kept = self.kept

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.get("stack")
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] in skip_under:
                return func(*args, **kwargs)
            span_id = next(ids)
            trace_id = parent[3] if parent is not None else span_id
            frame = [name, 0, span_id, trace_id]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                with lock:
                    entry = totals.get(name)
                    if entry is None:
                        entry = totals[name] = [0, 0, 0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
                    kept.append((trace_id, span_id,
                                 parent[2] if parent is not None else None,
                                 name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = func
        return traced

    def calls(self, name: str) -> int:
        entry = self.totals.get(name)
        return entry[0] if entry else 0

    def mean_us(self, name: str, self_time: bool = False) -> float:
        """Mean inclusive (or self) microseconds per call of ``name``."""
        entry = self.totals.get(name)
        if not entry or not entry[0]:
            return 0.0
        return entry[2 if self_time else 1] / entry[0] / 1000.0

    def export(self) -> List[Dict[str, Any]]:
        return [
            {"trace": trace, "span": span, "parent": parent, "name": name,
             "start_ns": start, "end_ns": end}
            for trace, span, parent, name, start, end in list(self.kept)
        ]


# ----------------------------------------------------------------------
# deterministic count probes
# ----------------------------------------------------------------------
class CallCounter:
    """``sys.setprofile`` hook counting Python function calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            self.calls += 1

    def measure(self, func: Callable[..., Any], *args: Any,
                **kwargs: Any) -> Any:
        """Run ``func`` on this thread with calls counted."""
        sys.setprofile(self)
        try:
            return func(*args, **kwargs)
        finally:
            sys.setprofile(None)


class AllocMeter:
    """tracemalloc high-water bytes above the pre-call baseline."""

    def __init__(self) -> None:
        self.bytes = 0

    def measure(self, func: Callable[..., Any], *args: Any,
                **kwargs: Any) -> Any:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return func(*args, **kwargs)
        finally:
            self.bytes += tracemalloc.get_traced_memory()[1] - base


def run_probe(func: Callable[[], Any], traced_memory: bool = False) -> Any:
    """Run a count probe with the cyclic collector off.

    A collection fires at an allocation count that depends on the whole
    process history, and it runs finalizers (Python calls) and frees
    memory mid-activation; with it off, counts depend only on the
    activations' own code paths.
    """
    gc.collect()
    gc.disable()
    if traced_memory:
        tracemalloc.start()
    try:
        return func()
    finally:
        if traced_memory:
            tracemalloc.stop()
        gc.enable()
