"""Differential proof: compiled plans are observably identical to the
interpreter.

The compiled pipeline (``compile_plans=True``) is only a valid refactor
if no observer can tell it from the paper's per-call interpreter. This
suite runs the fault-chaos composition (audit, mutex, semaphore(2),
fail-open probe — the same chain ``test_fault_chaos`` storms) twice per
fault schedule — once interpreted, once compiled — through an identical
*sequential* call script, and requires byte-equal observations:

* per-call outcomes (result / abort / fault type, concern, phase);
* the full protocol event stream — kind, method, concern, detail, and
  activation id (normalized to appearance order: ids are drawn from a
  process-global counter, so their absolute values differ between the
  two runs by construction);
* every moderation counter except ``plan_compiles`` (the one counter
  that *must* differ: it is the refactor's own bookkeeping);
* the component's accepted values, the injector's fired schedule and
  at-rest sync-aspect state (no leaked admissions in either mode);
* fault accounting and quarantine state in the health tracker.

The schedule space is the chaos suite's own: every single-fault plan
and every double-fault plan (228 schedules), imported rather than
re-derived so the two suites can never drift apart. Sequential driving
makes both runs deterministic — any divergence is a real semantic
difference, not an interleaving artifact.

Every schedule is driven through all four entry points — proxy
attribute access, ``ComponentProxy.call``, a paper-style
``GuardedMethod`` class and a ``@moderated`` woven class — compiled and
interpreted, and each run must equal the interpreted attribute-path
reference. Armed injectors keep those plans on the generic executor, so
the fault-free schedule and a set of *uninjected* fault scripts (aspects
that raise on their own) also run with no injector installed: that is
where the activation driver's own walk and unwind execute.
"""

import pytest

from repro.core import (
    AspectFault,
    AspectModerator,
    ComponentProxy,
    CompositionErrors,
    GuardedMethod,
    MethodAborted,
    Tracer,
    moderated,
    participating,
)
from repro.core.aspect import FunctionAspect
from repro.aspects.audit import AuditAspect
from repro.aspects.synchronization import MutexAspect, SemaphoreAspect
from repro.faults import FaultInjector, FaultPlan
from repro.obs.spans import SpanRecorder

from tests.properties.test_fault_chaos import (
    CALLS,
    DOUBLE_PLANS,
    SINGLE_PLANS,
    THREADS,
)

pytestmark = pytest.mark.differential


class Sink:
    def __init__(self):
        self.accepted = []

    def push(self, value):
        self.accepted.append(value)
        return value


class PaperSink(Sink):
    """Hand-written proxy in the paper's style (Figure 10)."""

    push = GuardedMethod("push")

    def __init__(self, moderator):
        super().__init__()
        self.moderator = moderator


@moderated
class WovenSink(Sink):
    """Woven class: instances are their own proxies."""

    def __init__(self, moderator):
        super().__init__()
        self.moderator = moderator

    @participating
    def push(self, value):
        return Sink.push(self, value)


def _attribute_entry(moderator):
    sink = Sink()
    proxy = ComponentProxy(sink, moderator)
    return sink, lambda value: proxy.push(value)


def _call_entry(moderator):
    sink = Sink()
    proxy = ComponentProxy(sink, moderator)
    return sink, lambda value: proxy.call("push", value)


def _own_proxy_entry(sink):
    return sink, sink.push


#: entry point -> (moderator -> (component, push callable))
ENTRY_POINTS = {
    "attribute": _attribute_entry,
    "call": _call_entry,
    "guarded_method": lambda moderator: _own_proxy_entry(
        PaperSink(moderator)),
    "woven": lambda moderator: _own_proxy_entry(WovenSink(moderator)),
}


def _build(compile_plans, entry="attribute", probe=None):
    moderator = AspectModerator(
        default_timeout=10.0, fault_threshold=2,
        compile_plans=compile_plans,
    )
    audit = AuditAspect()
    mutex = MutexAspect()
    semaphore = SemaphoreAspect(2)
    if probe is None:
        probe = FunctionAspect(concern="probe")
    moderator.register_aspect("push", "audit", audit)
    moderator.register_aspect("push", "mutex", mutex)
    moderator.register_aspect("push", "semaphore", semaphore)
    moderator.register_aspect("push", "probe", probe,
                              fault_policy="fail_open")
    sink, push = ENTRY_POINTS[entry](moderator)
    aspects = {"audit": audit, "mutex": mutex, "semaphore": semaphore}
    return moderator, aspects, sink, push


def _fault_signature(fault):
    if isinstance(fault, CompositionErrors):
        return ("composition",) + tuple(
            _fault_signature(part) for part in fault.exceptions
        )
    assert isinstance(fault, AspectFault)
    return ("aspect_fault", fault.concern, fault.phase)


def _normalize_events(events):
    """(kind, method, concern, detail, ordinal-activation-id) tuples."""
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
    """Timestamp- and id-free structure of one span (sub)tree."""
    annotations = tuple(text for _ts, text in span.annotations)
    return (
        span.name, span.concern, span.status, annotations,
        tuple(_span_shape(child) for child in span.children),
    )


def _observe(compile_plans, plan, entry="attribute", probe=None):
    """One sequential run; everything an observer could compare.

    ``plan=None`` installs no injector at all; ``probe`` replaces the
    chain's fail-open probe aspect.
    """
    moderator, aspects, sink, push = _build(compile_plans, entry,
                                            probe() if probe else None)
    injector = FaultInjector(plan if plan is not None else FaultPlan())
    if plan is not None:
        injector.install(moderator)
    tracer = Tracer()
    recorder = SpanRecorder()
    unsubscribe = moderator.events.subscribe(tracer)
    unsubscribe_spans = moderator.events.subscribe(recorder)

    outcomes = []
    for index in range(THREADS):
        for call in range(CALLS):
            value = index * 100 + call
            try:
                outcomes.append(("ok", push(value)))
            except MethodAborted as exc:
                outcomes.append(("aborted", value, exc.concern))
            except (AspectFault, CompositionErrors) as fault:
                outcomes.append(
                    ("fault", value, _fault_signature(fault))
                )
    unsubscribe()
    unsubscribe_spans()

    stats = moderator.stats.as_dict()
    compiles = stats.pop("plan_compiles")
    if compile_plans:
        # the compiled run must actually have exercised the executor
        assert compiles >= 1
    else:
        assert compiles == 0
    return {
        "outcomes": outcomes,
        "events": _normalize_events(tracer.events),
        # span recording on: the tree *shapes* (names, concerns,
        # statuses, annotations — no timestamps or ids) must match too
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
        "fired": injector.fired_summary(),
        "mutex_holder": aspects["mutex"].holder,
        "semaphore_in_use": aspects["semaphore"].in_use,
        "quarantined": moderator.health.quarantined_cells(),
        "fault_counts": {
            cell: (record["faults"], record["quarantined"])
            for cell, record in moderator.health.snapshot().items()
        },
    }


def _assert_identical(plan, probe=None):
    """Every entry point, compiled and interpreted, matches the
    interpreted attribute-path reference."""
    reference = _observe(False, plan, probe=probe)
    for entry in ENTRY_POINTS:
        for compile_plans in (True, False):
            if entry == "attribute" and not compile_plans:
                continue
            observed = _observe(compile_plans, plan, entry, probe)
            mode = "compiled" if compile_plans else "interpreted"
            for key in reference:
                assert observed[key] == reference[key], (
                    f"{key} diverged under plan "
                    f"{plan.describe() if plan is not None else 'none'} "
                    f"through {entry}:\n"
                    f"  interpreted attribute: {reference[key]!r}\n"
                    f"  {mode} {entry}: {observed[key]!r}"
                )
    # fully unwound — nothing wedged, nothing leaked
    assert reference["mutex_holder"] is None
    assert reference["semaphore_in_use"] == 0


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
    # no injector installed: the driver's walk and unwind run
    _assert_identical(None)


class _ScriptedProbe(FunctionAspect):
    """A probe that raises on its own, at scripted visits of one phase."""

    def __init__(self, phase, visits):
        super().__init__(concern="probe")
        self.script = (phase, frozenset(visits))
        self.visits = {"precondition": 0, "postaction": 0}

    def _visit(self, phase):
        self.visits[phase] += 1
        scripted_phase, visits = self.script
        if phase == scripted_phase and self.visits[phase] in visits:
            raise RuntimeError(f"probe {phase} #{self.visits[phase]}")

    def precondition(self, joinpoint):
        self._visit("precondition")
        return True

    def postaction(self, joinpoint):
        self._visit("postaction")


@pytest.mark.parametrize("phase,visits", [
    ("precondition", (1,)),
    ("precondition", (2, 5)),
    ("postaction", (3,)),
    ("postaction", (1, 2)),
])
def test_uninjected_faults_identical(phase, visits):
    """Faults raised by an aspect itself, with no injector armed: the
    driver compensates them, and a second fault quarantines the probe
    and moves the plan to the generic executor mid-script."""
    _assert_identical(None, probe=lambda: _ScriptedProbe(phase, visits))


def test_plan_space_is_the_chaos_suites():
    """Guard: the imported schedule space stays the chaos suite's full
    enumeration (24 single-fault + 204 double-fault plans)."""
    assert len(SINGLE_PLANS) == 24
    assert len(DOUBLE_PLANS) == 204
