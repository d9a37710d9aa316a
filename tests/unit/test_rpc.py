"""Unit tests for nodes, the RPC client, and remote proxies."""

import sys
import threading
import time

import pytest

from repro.core import AspectModerator, ComponentProxy, FunctionAspect, MethodAborted
from repro.core.results import ABORT
from repro.concurrency.primitives import WaitQueue
from repro.core.errors import ClientClosed, NodeUnreachable
from repro.dist import (
    Client,
    NameService,
    Network,
    Node,
    RemoteError,
    RequestTimeout,
)
from repro.dist.message import reply, request


class Calculator:
    def add(self, a, b):
        return a + b

    def div(self, a, b):
        return a / b


@pytest.fixture
def rig():
    network = Network()
    names = NameService()
    node = Node("server", network).start()
    node.export("calc", Calculator())
    names.bind("calculator", "server", "calc")
    client = Client("client", network, names, default_timeout=2.0)
    yield network, names, node, client
    client.close()
    node.stop()
    network.close()


class TestNode:
    def test_export_withdraw_services(self, rig):
        network, names, node, client = rig
        assert node.services() == ["calc"]
        node.export("extra", Calculator())
        assert node.services() == ["calc", "extra"]
        node.withdraw("extra")
        assert node.services() == ["calc"]

    def test_duplicate_export_rejected(self, rig):
        network, names, node, client = rig
        with pytest.raises(ValueError):
            node.export("calc", Calculator())

    def test_requests_served_counter(self, rig):
        network, names, node, client = rig
        client.call_node("server", "calc", "add", 1, 2)
        assert node.requests_served == 1


class TestClientCalls:
    def test_call_node_roundtrip(self, rig):
        network, names, node, client = rig
        assert client.call_node("server", "calc", "add", 2, 3) == 5

    def test_call_name_resolves(self, rig):
        network, names, node, client = rig
        assert client.call_name("calculator", "add", 10, 5) == 15

    def test_remote_exception_surfaces_as_remote_error(self, rig):
        network, names, node, client = rig
        with pytest.raises(RemoteError) as excinfo:
            client.call_name("calculator", "div", 1, 0)
        assert excinfo.value.error_type == "ZeroDivisionError"
        assert node.requests_failed == 1

    def test_unknown_service_is_remote_error(self, rig):
        network, names, node, client = rig
        with pytest.raises(RemoteError):
            client.call_node("server", "ghost", "add", 1, 2)

    def test_timeout_on_dead_node(self, rig):
        network, names, node, client = rig
        network.take_down("server")
        with pytest.raises(RequestTimeout):
            client.call_name("calculator", "add", 1, 2, timeout=0.2)
        assert client.timeouts == 1

    def test_rebind_redirects_subsequent_calls(self, rig):
        network, names, node, client = rig
        second = Node("server-2", network).start()
        second.export("calc", Calculator())
        names.rebind("calculator", "server-2", "calc")
        assert client.call_name("calculator", "add", 1, 1) == 2
        assert second.requests_served == 1
        second.stop()


class Held:
    """A servant whose ``hold`` waits until the test releases it."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def hold(self):
        self.entered.set()
        self.release.wait(5.0)
        return "late"


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestReplySink:
    def test_client_starts_no_thread(self):
        before = set(threading.enumerate())
        network = Network()
        client = Client("quiet", network)
        try:
            assert set(threading.enumerate()) - before == set()
        finally:
            client.close()
            network.close()

    def test_reply_after_timeout_is_dropped(self, rig):
        network, names, node, client = rig
        held = Held()
        node.export("held", held)
        with pytest.raises(RequestTimeout):
            client.call_node("server", "held", "hold", timeout=0.05)
        held.release.set()
        # the late reply reaches the client's endpoint ...
        wait_until(lambda: network.stats()["delivered"] == 2)
        # ... which drops it: the next call gets its own reply
        assert client.call_node("server", "calc", "add", 1, 1) == 2
        assert network.stats()["dispatch_errors"] == 0
        assert client.timeouts == 1

    def test_reply_after_close_counts_as_a_drop(self):
        from repro.faults import FaultInjector, FaultPlan, FaultSpec

        network = Network()
        # the reply (the client's first delivery) spends 0.5s in flight
        FaultInjector(FaultPlan([FaultSpec(
            phase="delivery", method_id="client", occurrence=1,
            action="delay", arg=0.5,
        )])).install(network)
        node = Node("server", network).start()
        held = Held()
        node.export("held", held)
        client = Client("client", network, default_timeout=5.0)
        outcome = []

        def call():
            try:
                client.call_node("server", "held", "hold")
            except ClientClosed as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call)
        caller.start()
        try:
            assert held.entered.wait(5.0)
            held.release.set()
            # the reply is on the wire (the heap) when the client closes
            wait_until(lambda: network.stats()["sent"] == 2)
            client.close()
            caller.join(5.0)
            assert outcome and isinstance(outcome[0], ClientClosed)
            wait_until(lambda: network.stats()["in_flight"] == 0)
            stats = network.stats()
            assert stats["delivered"] == 1  # the request
            assert stats["dropped"] == 1  # the reply
        finally:
            held.release.set()
            node.stop()
            network.close()

    def test_racing_callers_and_close(self):
        """Callers racing each other, the node's workers and close():
        each call gets its own reply or ClientClosed, none hangs, and
        no pending entry outlives the client."""
        network = Network()
        node = Node("server", network, workers=2).start()
        node.export("calc", Calculator())
        client = Client("client", network, default_timeout=5.0)
        wrong, closed, calls = [], [], [0] * 6

        def caller(n):
            try:
                while True:
                    got = client.call_node("server", "calc", "add", n,
                                           calls[n])
                    if got != n + calls[n]:
                        wrong.append((n, calls[n], got))
                    calls[n] += 1
            except ClientClosed:
                closed.append(n)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=caller, args=(n,))
                   for n in range(6)]
        try:
            for thread in threads:
                thread.start()
            wait_until(lambda: min(calls) >= 20)
            client.close()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(switch)
            node.stop()
            network.close()
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert sorted(closed) == list(range(6))
        assert client._pending == {}

    def test_failed_send_leaves_no_pending_call(self, rig):
        network, names, node, client = rig
        with pytest.raises(NodeUnreachable):
            client.call_node("ghost", "calc", "add", 1, 2)
        assert client._pending == {}

    def test_closed_sink_refuses_replies(self, rig):
        network, names, node, client = rig
        sink = client.inbox
        request_message = request("client", "server", "calc", "add")
        client.close()
        with pytest.raises(WaitQueue.Closed):
            sink.put(reply(request_message, 1))


class TestRemoteProxy:
    def test_attribute_calls_dispatch_remotely(self, rig):
        network, names, node, client = rig
        stub = client.proxy("calculator")
        assert stub.add(4, 4) == 8

    def test_private_attributes_raise(self, rig):
        network, names, node, client = rig
        stub = client.proxy("calculator")
        with pytest.raises(AttributeError):
            stub._secret()


class TestModeratedServant:
    def test_remote_call_passes_through_moderation(self, rig):
        network, names, node, client = rig
        moderator = AspectModerator()
        seen = {}
        moderator.register_aspect("add", "auth", FunctionAspect(
            concern="auth",
            precondition=lambda jp: (
                seen.update(caller=jp.caller) or
                (True if jp.caller == "alice" else ABORT)
            ),
        ))
        proxy = ComponentProxy(Calculator(), moderator)
        node.export("guarded", proxy)
        names.bind("guarded-calc", "server", "guarded")

        assert client.call_name(
            "guarded-calc", "add", 1, 2, caller="alice"
        ) == 3
        assert seen["caller"] == "alice"

        with pytest.raises(MethodAborted):
            client.call_name("guarded-calc", "add", 1, 2, caller="mallory")
