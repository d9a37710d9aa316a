"""Property tests: simulated-network accounting invariants."""

import copy
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import network as network_module
from repro.dist.message import (
    WIRE_SAFE_TYPES,
    Message,
    WireFormatError,
    check_wire_safe,
    wire_copy,
)
from repro.dist.network import Network
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import InjectedFault


def drain_network(network, expected_total, timeout=5.0):
    """Wait until every sent message is accounted for."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = network.stats()
        if stats["delivered"] + stats["dropped"] == expected_total \
                and stats["in_flight"] == 0:
            return stats
        time.sleep(0.01)
    raise AssertionError(f"network never drained: {network.stats()}")


@given(
    loss=st.floats(min_value=0.0, max_value=1.0),
    sends=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_conservation_delivered_plus_dropped_equals_sent(loss, sends, seed):
    network = Network(loss=loss, seed=seed)
    try:
        inbox = network.register("sink")
        network.register("source")
        for index in range(sends):
            network.send(Message(source="source", dest="sink",
                                 kind="event", payload={"i": index}))
        stats = drain_network(network, sends)
        assert stats["sent"] == sends
        received = 0
        while True:
            try:
                inbox.get(timeout=0.01)
                received += 1
            except TimeoutError:
                break
        assert received == stats["delivered"]
    finally:
        network.close()


@given(
    sends=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_lossless_network_delivers_everything_in_order(sends, seed):
    network = Network(seed=seed)
    try:
        inbox = network.register("sink")
        network.register("source")
        for index in range(sends):
            network.send(Message(source="source", dest="sink",
                                 kind="event", payload={"i": index}))
        stats = drain_network(network, sends)
        assert stats["dropped"] == 0
        received = [inbox.get(timeout=1.0).payload["i"]
                    for _ in range(sends)]
        assert received == list(range(sends))
    finally:
        network.close()


@given(
    group_a=st.integers(min_value=1, max_value=3),
    group_b=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_partition_is_symmetric_and_total(group_a, group_b):
    network = Network()
    try:
        a_nodes = [f"a{i}" for i in range(group_a)]
        b_nodes = [f"b{i}" for i in range(group_b)]
        for node in a_nodes + b_nodes:
            network.register(node)
        network.partition(set(a_nodes), set(b_nodes))
        sends = 0
        for source in a_nodes:
            for dest in b_nodes:
                network.send(Message(source=source, dest=dest,
                                     kind="event"))
                network.send(Message(source=dest, dest=source,
                                     kind="event"))
                sends += 2
        stats = drain_network(network, sends)
        assert stats["dropped"] == sends  # nothing crosses the cut
        # intra-group traffic still flows
        if len(a_nodes) >= 2:
            network.send(Message(source=a_nodes[0], dest=a_nodes[1],
                                 kind="event"))
            drain_network(network, sends + 1)
            assert network.stats()["delivered"] == 1
    finally:
        network.close()


# ----------------------------------------------------------------------
# (a) the validating copy matches the wire-safety predicate
# ----------------------------------------------------------------------
class IntSub(int):
    pass


class StrSub(str):
    pass


class DictSub(dict):
    pass


class ListSub(list):
    pass


class TupleSub(tuple):
    pass


def spec_wire_safe(value, depth=0):
    """The wire-safety predicate as first written: the oracle."""
    if depth > 16:
        return False
    if isinstance(value, WIRE_SAFE_TYPES):
        return True
    if isinstance(value, (list, tuple)):
        return all(spec_wire_safe(item, depth + 1) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and spec_wire_safe(item, depth + 1)
            for key, item in value.items()
        )
    return False


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.binary(max_size=4), st.floats(allow_nan=False),
    st.builds(IntSub, st.integers()), st.builds(StrSub, st.text(max_size=3)),
    st.builds(object),
)
keys = st.one_of(st.text(max_size=3), st.builds(StrSub, st.text(max_size=3)),
                 st.integers(), st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.lists(children, max_size=3).map(ListSub),
        st.lists(children, max_size=3).map(TupleSub),
        st.dictionaries(keys, children, max_size=3).map(DictSub),
    )


values = st.recursive(scalars, containers, max_leaves=20)

#: wrap a leaf in ``levels`` containers, one kind per level
wrappers = st.sampled_from([
    lambda inner: [inner], lambda inner: (inner,),
    lambda inner: {"k": inner}, lambda inner: ListSub([inner]),
    lambda inner: DictSub(k=inner),
])


@st.composite
def deep_values(draw):
    """Values whose leaves sit around the depth-16 limit."""
    value = draw(st.one_of(scalars, st.just([]), st.just({}),
                           st.just(()), st.builds(DictSub)))
    for _ in range(draw(st.integers(min_value=14, max_value=18))):
        value = draw(wrappers)(value)
    return value


def shape(value):
    """Exact types all the way down (``==`` cannot tell bool from int)."""
    if isinstance(value, dict):
        return (type(value),
                sorted((repr(key), type(key), shape(item))
                       for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value), [shape(item) for item in value])
    return type(value)


def mutable_ids(value):
    """ids of every list, dict and subclass instance (it has a
    ``__dict__``) reachable from ``value``, dict keys included."""
    found = set()
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, dict)) or hasattr(item, "__dict__"):
            found.add(id(item))
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return found


@given(value=st.one_of(values, deep_values()))
@settings(max_examples=400, deadline=None)
def test_wire_copy_is_flagged_exactly_when_not_wire_safe(value):
    safe = spec_wire_safe(value)
    assert check_wire_safe(value) is safe
    try:
        copied = wire_copy(value)
    except WireFormatError:
        assert not safe
        return
    assert safe
    expected = copy.deepcopy(value)
    assert copied == expected
    assert shape(copied) == shape(expected)
    assert not mutable_ids(copied) & mutable_ids(value)


# ----------------------------------------------------------------------
# (b) inline and dispatcher delivery: one order, one set of counts
# ----------------------------------------------------------------------
#: one tick of the fake clock, in seconds; a power of two, so sums of
#: ticks are exact and ties stay ties
TICK = 2.0 ** -10
ENDPOINTS = ("a", "b", "c")


class FakeClock:
    """``time`` for the network module: moves only when told to."""

    def __init__(self):
        self.now = 1024.0

    def monotonic(self):
        return self.now


sends = st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS),
                  st.integers(min_value=0, max_value=2))
phases = st.tuples(
    st.sampled_from([None, ({"a", "b"}, {"c"}), ({"a"}, {"b", "c"})]),
    st.lists(sends, min_size=1, max_size=12),
)
faults = st.dictionaries(
    st.tuples(st.sampled_from(ENDPOINTS),
              st.integers(min_value=1, max_value=8)),
    st.tuples(st.sampled_from(["delay", "delay", "skip", "raise"]),
              st.integers(min_value=1, max_value=4)),
    max_size=6,
)


def run_schedule(latency_ticks, loss, seed, schedule, plan):
    """Run ``schedule`` on a fake clock; per-link arrivals and stats.

    Also checks each link against the ``(deliver_at, seq)`` order the
    schedule implies, with ``deliver_at`` computed here from the send
    time and the planned delay.
    """
    clock = FakeClock()
    deliver_at = {}
    received = {endpoint: [] for endpoint in ENDPOINTS}
    with mock.patch.object(network_module, "time", clock):
        network = Network(latency=latency_ticks * TICK, loss=loss,
                          seed=seed)
        FaultInjector(FaultPlan([
            FaultSpec(phase="delivery", method_id=dest,
                      occurrence=occurrence, action=action,
                      arg=ticks * TICK)
            for (dest, occurrence), (action, ticks) in plan.items()
        ])).install(network)
        visits = {endpoint: 0 for endpoint in ENDPOINTS}
        try:
            inboxes = {endpoint: network.register(endpoint)
                       for endpoint in ENDPOINTS}
            seq = 0
            for partition, phase_sends in schedule:
                if partition is None:
                    network.heal()
                else:
                    network.partition(*partition)
                for source, dest, advance in phase_sends:
                    visits[dest] += 1
                    action, ticks = plan.get((dest, visits[dest]),
                                             (None, 0))
                    extra = ticks if action == "delay" else 0
                    deliver_at[seq] = clock.now + (latency_ticks + extra) \
                        * TICK
                    try:
                        network.send(Message(source=source, dest=dest,
                                             kind="event",
                                             payload={"seq": seq}))
                    except InjectedFault:
                        assert action == "raise"
                    seq += 1
                    clock.now += advance * TICK
                # let everything fall due, and drain before the
                # partitions change
                clock.now += 16 * TICK
                stats = drain_network(network, network.stats()["sent"])
                for endpoint, inbox in inboxes.items():
                    while len(inbox):
                        message = inbox.get(timeout=0)
                        received[endpoint].append(
                            (message.source, message.payload["seq"]))
            stats = network.stats()
        finally:
            network.close()
    links = {}
    for dest, arrivals in received.items():
        for source, seq in arrivals:
            links.setdefault((source, dest), []).append(seq)
    for link, order in links.items():
        assert order == sorted(order, key=lambda s: (deliver_at[s], s)), \
            f"link {link} broke (deliver_at, seq) order: {order}"
    assert stats["delivered"] == sum(map(len, links.values()))
    return links, stats


@given(loss=st.sampled_from([0.0, 0.3]),
       seed=st.integers(min_value=0, max_value=10_000),
       schedule=st.lists(phases, min_size=1, max_size=3),
       plan=faults)
@settings(max_examples=40, deadline=None)
def test_inline_delivery_matches_dispatcher_only_delivery(loss, seed,
                                                           schedule, plan):
    inline = run_schedule(0, loss, seed, schedule, plan)
    # one tick of latency on every link puts every message on the
    # timed heap (the dispatcher-only path) and shifts every deliver_at
    # by the same amount, so the order it implies is unchanged
    dispatched = run_schedule(1, loss, seed, schedule, plan)
    assert inline == dispatched
