"""parked-wake: waves of activations parked on the continuation runtime.

Each wave submits moderated ``push`` activations through a
``ContinuationRuntime(workers=2)``. A gate aspect BLOCKs every one of
them, so each parks as a heap continuation; once the whole wave is
parked, the gate opens and a single ``notify`` drains it. This is the
only workload that runs BLOCK -> park -> wake.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from typing import Any, Dict, List, Tuple

from repro.core import AspectModerator, ContinuationRuntime
from repro.core.aspect import NullAspect
from repro.core.results import BLOCK, RESUME
from repro.sim import Engine

from harness import AllocMeter, CallCounter, Epoch, Spans, check, \
    run_probe
import layers

WAVE = (192, 320)
WARM_WAVES = 3
EPOCH_WAVES = 40
PROBE_WAVE = 256
WAIT_S = 30.0


class Gate(NullAspect):
    """BLOCKs every activation until the wave is released.

    ``parked`` is set once it has BLOCKed the whole wave. Each round is
    evaluated under the method's domain lock and a BLOCKed continuation
    parks before that lock is released, so a ``notify`` issued after
    ``parked`` is set is ordered after every park.
    """

    concern = "gate"
    never_blocks = False

    def __init__(self) -> None:
        self.open = False
        self.parked = threading.Event()
        self._expected = 0

    def close(self, wave: int) -> None:
        self.open = False
        self._expected = wave
        self.parked.clear()

    def evaluate_precondition(self, joinpoint: Any) -> Any:
        if self.open:
            return RESUME
        self._expected -= 1
        if self._expected == 0:
            self.parked.set()
        return BLOCK


class Sink:
    """The component: counts pushes."""

    def __init__(self) -> None:
        self.count = 0

    def push(self) -> int:
        self.count += 1
        return self.count


def build(engine: Any = None) -> Tuple[Any, Gate, Sink, Any]:
    moderator = AspectModerator()
    gate = Gate()
    moderator.register_aspect("push", "gate", gate)
    sink = Sink()
    runtime = ContinuationRuntime(moderator, workers=2, engine=engine)
    return moderator, gate, sink, runtime


class Workload:
    """One moderator, its gate, and a two-worker continuation runtime."""

    def __init__(self, rng: Any, spans: Spans = None) -> None:
        self.rng = rng
        moderator, self.gate, self.sink, self.runtime = build()
        self.moderator = moderator
        if spans is not None:
            layers.instrument_moderation(spans, moderator, self.sink,
                                         ("push",))
        self.completed = 0
        self.resumed = 0
        self.wakeups = 0

    def wave(self, epoch: Epoch = None) -> None:
        size = self.rng.randint(*WAVE)
        runtime, stats = self.runtime, self.moderator.stats
        before = stats.as_dict()
        latencies = epoch.latencies_ns if epoch is not None else []
        clock = time.perf_counter_ns
        self.gate.close(size)
        futures = []
        started = time.perf_counter()
        for _ in range(size):
            submitted = clock()
            future = runtime.submit("push", self.sink.push,
                                    component=self.sink)
            future.add_callback(
                lambda _f, t=submitted: latencies.append(clock() - t))
            futures.append(future)
        check(self.gate.parked.wait(WAIT_S), "wave never fully parked")
        parked = time.perf_counter()
        self.gate.open = True
        self.moderator.notify("push")
        results = sorted(future.result(WAIT_S) for future in futures)
        done = time.perf_counter()
        check(results == list(range(self.completed + 1,
                                    self.completed + size + 1)),
              "a wave's pushes did not each run exactly once")
        check(runtime.parked_count == 0, "continuations left parked")
        after = stats.as_dict()
        check(after["waits"] - before["waits"] == size,
              f"{after['waits'] - before['waits']} parks for a wave of "
              f"{size}")
        self.completed += size
        self.resumed += after["resumes"] - before["resumes"]
        self.wakeups += after["wakeups"] - before["wakeups"]
        if epoch is not None:
            epoch.ops += size
            epoch.add_sample("park_rate_s", size / (parked - started))
            epoch.add_sample("wake_rate_s", size / (done - parked))

    def warm(self) -> None:
        for _ in range(WARM_WAVES):
            self.wave()

    def drive(self, epoch: Epoch) -> None:
        started = time.perf_counter()
        for _ in range(EPOCH_WAVES):
            self.wave(epoch)
        epoch.window_s = time.perf_counter() - started

    def verify(self) -> None:
        check(self.sink.count == self.completed,
              f"sink ran {self.sink.count} pushes for {self.completed} "
              f"completed activations")
        check(self.runtime.submitted == self.runtime.completed
              == self.completed, "runtime submitted/completed mismatch")

    def close(self) -> Dict[str, float]:
        self.runtime.close()
        return {"resumed_after_wake": self.resumed,
                "wakeups": self.wakeups}


def _engine_wave(meter: Any) -> int:
    """One wave on the deterministic engine bridge, measured whole."""
    engine = Engine()
    moderator, gate, sink, runtime = build(engine)

    def wave() -> List[Any]:
        gate.close(PROBE_WAVE)
        futures = [runtime.submit("push", sink.push, component=sink)
                   for _ in range(PROBE_WAVE)]
        engine.run()
        gate.open = True
        moderator.notify("push")
        engine.run()
        return futures

    wave()  # plan compile and first-use allocations
    futures = meter.measure(wave)
    check(all(f.done for f in futures), "engine wave did not drain")
    runtime.close()
    return PROBE_WAVE


def _parked_bytes() -> float:
    """Traced heap growth per continuation while a wave is parked."""
    moderator, gate, sink, runtime = build()
    try:
        gate.close(PROBE_WAVE)
        base = tracemalloc.get_traced_memory()[0]
        futures = [runtime.submit("push", sink.push, component=sink)
                   for _ in range(PROBE_WAVE)]
        check(gate.parked.wait(WAIT_S), "probe wave never parked")
        grown = tracemalloc.get_traced_memory()[0] - base
        gate.open = True
        moderator.notify("push")
        for future in futures:
            future.result(WAIT_S)
    finally:
        runtime.close()
    return grown / PROBE_WAVE


def probe(rng: Any) -> Tuple[float, float, Dict[str, List[float]]]:
    """Counts per activation over an engine-driven wave (no threads, so
    they repeat), plus traced bytes per parked continuation."""
    counter = CallCounter()
    activations = run_probe(lambda: _engine_wave(counter))
    meter = AllocMeter()
    run_probe(lambda: _engine_wave(meter), traced_memory=True)
    parked = run_probe(_parked_bytes, traced_memory=True)
    return (counter.calls / activations, meter.bytes / activations,
            {"bytes_per_parked": [parked]})
