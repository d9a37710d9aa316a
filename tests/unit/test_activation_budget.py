"""Call-count budgets of one moderated activation and one RPC round trip.

Wall-clock time on a shared machine drifts by tens of percent, so the
cost of the moderation bracket is gated on a figure with no noise: the
number of Python function calls one activation makes, counted with
``sys.setprofile`` on the calling thread while the cyclic collector is
off (a collection runs finalizers mid-activation). Every call counts —
proxy, moderator, aspects, the component body. The RPC round trip is
counted on every thread it crosses (``threading.setprofile`` too).

A budget changes only together with a line in CHANGES.md saying why.
"""

import gc
import sys
import threading

from repro.apps import build_ticketing_cluster, make_session_manager
from repro.aspects.audit import AuditLog
from repro.concurrency.buffer import Ticket
from repro.core import (
    AspectModerator,
    ComponentProxy,
    ContinuationRuntime,
    FunctionAspect,
    NullAspect,
)
from repro.core.results import BLOCK, RESUME
from repro.dist import Client, Network, Node
from repro.sim import Engine

#: one-aspect RESUME through a ComponentProxy attribute call
ONE_ASPECT_BUDGET = 30
#: the ticketing chain (authentication wraps sync, audit observes both)
#: through ``ComponentProxy.call``, averaged over open/assign pairs
TICKETING_BUDGET = 50
#: one park -> notify -> complete cycle of an engine-mode continuation
#: runtime (one gate aspect); engine mode runs on the calling thread
PARK_CYCLE_BUDGET = 120
#: one unarmed ``Client.call_node`` round trip to a plain servant over a
#: zero-latency network, counted on every thread it runs on
RPC_ROUNDTRIP_BUDGET = 90

WARM = 20
MEASURED = 100


def _calls_per_activation(activate, activations):
    """Mean Python calls per activation over ``activations`` of them."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    try:
        sys.setprofile(profile)
        try:
            for _ in range(activations):
                activate()
        finally:
            sys.setprofile(None)
    finally:
        gc.enable()
    return calls / activations


class Component:
    def work(self, value):
        return value


def test_one_aspect_resume_within_budget():
    moderator = AspectModerator()
    moderator.register_aspect("work", "guard", FunctionAspect(
        concern="guard", precondition=lambda joinpoint: RESUME,
    ))
    proxy = ComponentProxy(Component(), moderator)
    for _ in range(WARM):
        proxy.work(1)
    calls = _calls_per_activation(lambda: proxy.work(1), MEASURED)
    assert calls <= ONE_ASPECT_BUDGET, (
        f"one-aspect RESUME made {calls} Python calls per activation "
        f"(budget {ONE_ASPECT_BUDGET})"
    )
    assert moderator.stats.resumes == WARM + MEASURED


def test_ticketing_chain_within_budget():
    sessions = make_session_manager({"alice": "pw"})
    token = sessions.login("alice", "pw")
    cluster = build_ticketing_cluster(
        capacity=16, sessions=sessions, audit_log=AuditLog(),
    )
    proxy = cluster.proxy

    def open_and_assign():
        proxy.call("open", Ticket(summary="fault", reporter="bench"),
                   caller=token)
        proxy.call("assign", "agent", caller=token)

    for _ in range(WARM):
        open_and_assign()
    # one open/assign pair is two activations
    calls = _calls_per_activation(open_and_assign, MEASURED) / 2
    assert calls <= TICKETING_BUDGET, (
        f"ticketing chain made {calls} Python calls per activation "
        f"(budget {TICKETING_BUDGET})"
    )
    assert cluster.component.pending == 0
    assert cluster.moderator.stats.aborts == 0


class Gate(NullAspect):
    """BLOCKs until :attr:`open` flips."""

    concern = "gate"
    never_blocks = False

    def __init__(self):
        self.open = False

    def precondition(self, joinpoint):
        return RESUME if self.open else BLOCK


def test_park_cycle_within_budget():
    engine = Engine()
    moderator = AspectModerator()
    gate = Gate()
    moderator.register_aspect("work", "gate", gate)
    component = Component()
    runtime = ContinuationRuntime(moderator, engine=engine)

    def park_notify_complete():
        gate.open = False
        future = runtime.submit("work", component.work, 1,
                                component=component)
        engine.run()
        gate.open = True
        moderator.notify("work")
        engine.run()
        assert future.result(timeout=0) == 1

    try:
        for _ in range(WARM):
            park_notify_complete()
        calls = _calls_per_activation(park_notify_complete, MEASURED)
    finally:
        runtime.close()
    assert calls <= PARK_CYCLE_BUDGET, (
        f"park -> notify -> complete made {calls} Python calls per cycle "
        f"(budget {PARK_CYCLE_BUDGET})"
    )
    stats = moderator.stats
    assert stats.waits == stats.wakeups == WARM + MEASURED


def test_rpc_roundtrip_within_budget():
    calls = {}  # thread ident -> Python calls

    def profile(frame, event, arg):
        if event == "call":
            ident = threading.get_ident()
            calls[ident] = calls.get(ident, 0) + 1

    gc.collect()
    gc.disable()
    # set before the network, node and client start any thread, so
    # every thread a round trip crosses is counted
    threading.setprofile(profile)
    try:
        network = Network()
        node = Node("server", network).start()
        node.export("svc", Component())
        client = Client("caller", network)
        try:
            for _ in range(WARM):
                client.call_node("server", "svc", "work", 1)
            before = dict(calls)
            sys.setprofile(profile)
            try:
                for _ in range(MEASURED):
                    client.call_node("server", "svc", "work", 1)
            finally:
                sys.setprofile(None)
            after = dict(calls)
        finally:
            client.close()
            node.stop()
            network.close()
    finally:
        threading.setprofile(None)
        gc.enable()
    spent = {ident: count - before.get(ident, 0)
             for ident, count in after.items()
             if count != before.get(ident, 0)}
    per_call = sum(spent.values()) / MEASURED
    assert per_call <= RPC_ROUNDTRIP_BUDGET, (
        f"an unarmed call_node round trip made {per_call} Python calls "
        f"(budget {RPC_ROUNDTRIP_BUDGET})"
    )
    # two threads: the caller and the node's worker — no dispatcher,
    # no client reply thread
    assert len(spent) == 2, spent
