"""Differential proof: the continuation runtime ≡ the threaded runtime.

The reactor (``repro.core.continuation``) is only a valid second runtime
if no observer can tell a moderated call it executed from one the
threaded reference bracket executed. This suite runs the fault-chaos
composition (audit, mutex, semaphore(2), fail-open probe, a
deterministic contract-interfering tamper aspect, and a declared
contract on ``push``) twice per fault schedule — once through
``ComponentProxy`` on the calling thread, once submitted to a
:class:`~repro.core.continuation.ContinuationRuntime` — through an
identical sequential call script, and requires equal observations:

* per-call outcomes (result / abort / fault signature / contract
  verdict with blame and evidence shape);
* the full protocol event stream (activation ids normalized to
  appearance order — they are drawn from a process-global counter);
* span-tree shapes with recording on, and recorder orphans;
* every moderation counter except ``plan_compiles``;
* accepted values, at-rest aspect state, injector fired schedule,
  quarantine state and fault accounting;
* the compiled plan's segment partition (both runtimes execute the
  same segment sequence — the seams where they may suspend).

The schedule space is the chaos suite's own (imported, not re-derived):
every single-fault and every double-fault plan, 228 schedules.
Sequential driving (one reactor worker, one call in flight) makes both
runs deterministic — a divergence is a semantic difference, not an
interleaving artifact.

The chaos script never parks (one call in flight), so a second script
parks on purpose: a gate aspect BLOCKs one activation, which is then
either released by ``notify`` or left to its deadline. A thread parked
in the threaded bracket is compared with an engine-mode continuation,
with plans compiled and with the ``compile_plans=False`` interpreter.
"""

import threading
import time

import pytest

from repro.contracts import ContractRegistry, ContractViolation
from repro.core import (
    AspectFault,
    AspectModerator,
    ComponentProxy,
    CompositionErrors,
    ContinuationRuntime,
    MethodAborted,
    NullAspect,
    Tracer,
)
from repro.core import ActivationTimeout
from repro.core.aspect import FunctionAspect
from repro.core.results import BLOCK, RESUME
from repro.aspects.audit import AuditAspect
from repro.aspects.synchronization import MutexAspect, SemaphoreAspect
from repro.faults import FaultInjector, FaultPlan
from repro.obs.spans import SpanRecorder
from repro.sim import Engine

from tests.properties.test_fault_chaos import (
    CALLS,
    DOUBLE_PLANS,
    SINGLE_PLANS,
    THREADS,
)

pytestmark = pytest.mark.differential

#: values whose activation the tamper aspect interferes with — every
#: schedule sees both clean calls and contract-convicted calls
_TAMPERED = frozenset(
    index * 100 + call
    for index in range(THREADS) for call in range(CALLS)
    if (index * 100 + call) % 2 == 0
)


class Sink:
    def __init__(self):
        self.accepted = []
        self.checksum = 0

    def push(self, value):
        self.accepted.append(value)
        self.checksum += value
        return value


class TamperAspect(NullAspect):
    """Deterministic interference: skims the contract observable."""

    concern = "tamper"

    def evaluate_precondition(self, joinpoint):
        if joinpoint.args and joinpoint.args[0] in _TAMPERED:
            joinpoint.component.checksum += 1
        return super().evaluate_precondition(joinpoint)


def _build():
    moderator = AspectModerator(default_timeout=10.0, fault_threshold=2)
    audit = AuditAspect()
    mutex = MutexAspect()
    semaphore = SemaphoreAspect(2)
    probe = FunctionAspect(concern="probe")
    moderator.register_aspect("push", "audit", audit)
    moderator.register_aspect("push", "mutex", mutex)
    moderator.register_aspect("push", "semaphore", semaphore)
    moderator.register_aspect("push", "probe", probe,
                              fault_policy="fail_open")
    moderator.register_aspect("push", "tamper", TamperAspect())

    registry = ContractRegistry(node="diff")
    registry.declare(
        "push",
        require=[("value_int",
                  lambda jp: isinstance(jp.args[0], int))],
        ensure=[("checksum_grew",
                 lambda jp, old: jp.component.checksum
                 == old.checksum + jp.args[0])],
        observables=("checksum",),
    )
    registry.install(moderator)

    sink = Sink()
    aspects = {"mutex": mutex, "semaphore": semaphore}
    return moderator, aspects, sink, ComponentProxy(sink, moderator)


def _fault_signature(fault):
    if isinstance(fault, CompositionErrors):
        return ("composition",) + tuple(
            _fault_signature(part) for part in fault.exceptions
        )
    assert isinstance(fault, AspectFault)
    return ("aspect_fault", fault.concern, fault.phase)


def _verdict_signature(violation):
    """The id-free shape of one verdict, evidence included."""
    return (
        violation.method_id, violation.clause, violation.kind,
        violation.blame,
        tuple(
            (record["seam"], record.get("concern", ""),
             tuple(record.get("changed", ())))
            for record in violation.evidence
        ),
    )


def _normalize_events(events):
    ordinals = {}
    normalized = []
    for event in events:
        aid = event.activation_id
        if aid not in ordinals:
            ordinals[aid] = len(ordinals)
        normalized.append((
            event.kind, event.method_id, event.concern, event.detail,
            ordinals[aid],
        ))
    return normalized


def _span_shape(span):
    annotations = tuple(text for _ts, text in span.annotations)
    return (
        span.name, span.concern, span.status, annotations,
        tuple(_span_shape(child) for child in span.children),
    )


def _observe(continuation, plan):
    moderator, aspects, sink, proxy = _build()
    injector = FaultInjector(plan)
    injector.install(moderator)
    tracer = Tracer()
    recorder = SpanRecorder(node="diff")
    unsubscribe = moderator.events.subscribe(tracer)
    unsubscribe_spans = moderator.events.subscribe(recorder)
    runtime = None
    if continuation:
        # One worker, one call in flight at a time: futures are awaited
        # immediately, so the reactor replays the threaded interleaving.
        runtime = ContinuationRuntime(moderator, workers=1)

    def body(value):
        return sink.push(value)

    outcomes = []
    try:
        for index in range(THREADS):
            for call_index in range(CALLS):
                value = index * 100 + call_index
                try:
                    if continuation:
                        outcomes.append((
                            "ok",
                            runtime.submit(
                                "push", body, value, component=sink
                            ).result(timeout=30.0),
                        ))
                    else:
                        outcomes.append(("ok", proxy.push(value)))
                except ContractViolation as violation:
                    outcomes.append(
                        ("contract", value, _verdict_signature(violation))
                    )
                except MethodAborted as exc:
                    outcomes.append(("aborted", value, exc.concern))
                except (AspectFault, CompositionErrors) as fault:
                    outcomes.append(
                        ("fault", value, _fault_signature(fault))
                    )
    finally:
        unsubscribe()
        unsubscribe_spans()
        if runtime is not None:
            runtime.close()

    stats = moderator.stats.as_dict()
    stats.pop("plan_compiles")
    return {
        "outcomes": outcomes,
        "events": _normalize_events(tracer.events),
        "span_shapes": [
            (root.method_id,) + _span_shape(root)
            for root in recorder.all_roots()
        ],
        "span_orphans": [
            (event.kind, event.concern, event.detail)
            for event in recorder.orphans
        ],
        "stats": stats,
        "accepted": list(sink.accepted),
        "checksum": sink.checksum,
        "fired": injector.fired_summary(),
        "mutex_holder": aspects["mutex"].holder,
        "semaphore_in_use": aspects["semaphore"].in_use,
        "quarantined": moderator.health.quarantined_cells(),
        "fault_counts": {
            cell: (record["faults"], record["quarantined"])
            for cell, record in moderator.health.snapshot().items()
        },
        "segments": [
            (segment.index, segment.start, segment.can_block,
             tuple(cell.concern for cell in segment.cells))
            for segment in moderator.plan_for("push").segments
        ],
    }


def _assert_identical(plan):
    threaded = _observe(False, plan)
    continuation = _observe(True, plan)
    for key in threaded:
        assert continuation[key] == threaded[key], (
            f"{key} diverged under plan {plan.describe()}:\n"
            f"  threaded:     {threaded[key]!r}\n"
            f"  continuation: {continuation[key]!r}"
        )
    # both runtimes fully unwound — nothing wedged, nothing leaked
    assert threaded["mutex_holder"] is None
    assert threaded["semaphore_in_use"] == 0


@pytest.mark.parametrize(
    "plan", SINGLE_PLANS, ids=[plan.describe() for plan in SINGLE_PLANS])
def test_single_fault_schedules_identical(plan):
    _assert_identical(plan)


@pytest.mark.parametrize(
    "plan", DOUBLE_PLANS, ids=[plan.describe() for plan in DOUBLE_PLANS])
def test_double_fault_schedules_identical(plan):
    _assert_identical(plan)


def test_fault_free_run_identical():
    _assert_identical(FaultPlan())


def test_plan_space_is_the_chaos_suites():
    """Guard: the imported schedule space stays the chaos suite's full
    enumeration (24 single-fault + 204 double-fault plans)."""
    assert len(SINGLE_PLANS) == 24
    assert len(DOUBLE_PLANS) == 204


# ----------------------------------------------------------------------
# parking: one gate-BLOCKed activation, released by notify or expired
# ----------------------------------------------------------------------
class Gate(NullAspect):
    """BLOCKs until :attr:`open` flips."""

    concern = "gate"
    never_blocks = False

    def __init__(self):
        self.open = False

    def evaluate_precondition(self, joinpoint):
        return RESUME if self.open else BLOCK


#: how long the expiry case may stay parked (seconds; virtual time in
#: engine mode)
_PARK_TIMEOUT = 0.05


def _observe_parking(continuation, compile_plans, release):
    moderator = AspectModerator(compile_plans=compile_plans)
    gate = Gate()
    moderator.register_aspect("push", "gate", gate)
    moderator.register_aspect("push", "audit", AuditAspect())
    sink = Sink()
    tracer = Tracer()
    moderator.events.subscribe(tracer)
    timeout = None if release else _PARK_TIMEOUT
    outcome = []

    def settle(run):
        try:
            outcome.append(("ok", run()))
        except ActivationTimeout as exc:
            outcome.append(("timeout", exc.method_id, exc.timeout))

    if continuation:
        engine = Engine()
        runtime = ContinuationRuntime(moderator, engine=engine)
        try:
            future = runtime.submit("push", sink.push, 7, component=sink,
                                    timeout=timeout)
            engine.run(until=_PARK_TIMEOUT / 2)
            assert runtime.parked_count == 1
            if release:
                gate.open = True
                moderator.notify("push")
            engine.run()
            assert runtime.parked_count == 0
            settle(lambda: future.result(timeout=0))
        finally:
            runtime.close()
    else:
        caller = threading.Thread(target=settle, args=(
            lambda: moderator.moderate_call(
                "push", sink.push, 7, component=sink, timeout=timeout),
        ))
        caller.start()
        if release:
            deadline = time.monotonic() + 10.0
            while not moderator.parked_snapshot():
                assert time.monotonic() < deadline, "never parked"
                time.sleep(0.001)
            gate.open = True
            moderator.notify("push")
        caller.join(timeout=10.0)
        assert not caller.is_alive()

    stats = moderator.stats.as_dict()
    stats.pop("plan_compiles")
    return {
        "outcome": outcome,
        "events": _normalize_events(tracer.events),
        "stats": stats,
        "accepted": list(sink.accepted),
        "parked": moderator.parked_snapshot(),
    }


@pytest.mark.parametrize("compile_plans", [True, False],
                         ids=["compiled", "interpreted"])
@pytest.mark.parametrize("release", [True, False],
                         ids=["notify", "expiry"])
def test_parked_activation_identical(compile_plans, release):
    threaded = _observe_parking(False, compile_plans, release)
    continuation = _observe_parking(True, compile_plans, release)
    for key in threaded:
        assert continuation[key] == threaded[key], (
            f"{key} diverged (compile_plans={compile_plans}, "
            f"release={release}):\n"
            f"  threaded:     {threaded[key]!r}\n"
            f"  continuation: {continuation[key]!r}"
        )
    assert threaded["stats"]["waits"] == 1
    if release:
        assert threaded["outcome"] == [("ok", 7)]
        assert threaded["stats"]["wakeups"] == 1
    else:
        assert threaded["outcome"] == [("timeout", "push", _PARK_TIMEOUT)]
        assert threaded["stats"]["wakeups"] == 0
        assert threaded["accepted"] == []
