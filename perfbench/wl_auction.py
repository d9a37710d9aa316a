"""auction-rpc: the auction cluster served over the in-process RPC stack.

``build_auction_cluster(roles=...)`` is exported on one ``Node`` and
bound in a ``NameService``; two closed-loop callers use
``Client.call_name``. The mix is 70% reads (``high_bid``/``bid_count``,
non-participating pass-through) and 30% ``place_bid`` writes over Zipf
item popularity; about 10% of bids are non-competitive and are ABORTed
by validation. The server moderator runs ``ObservabilityPlane(
sample_rate=16)``, the always-on observability mode.

Each caller bids only on its own half of the items, so it knows every
accepted bid on them and checks each read it makes exactly.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.apps import build_auction_cluster, default_auction_roles
from repro.core import MethodAborted
from repro.dist import Client, NameService, Network, Node
from repro.obs import ObservabilityPlane

from harness import AllocMeter, CallCounter, Epoch, Spans, check, \
    run_probe
import layers

CALLERS = 2
ITEMS_PER_CALLER = 16
ZIPF_S = 1.0
READ_SHARE = 0.7
NON_COMPETITIVE = 0.1
SAMPLE_RATE = 16
WARM_OPS = 100
EPOCH_OPS = 2000
PROBE_OPS = 300
SERVICE = "auction"
JOIN_TIMEOUT = 30.0


class Caller:
    """One closed-loop bidder with its own client and seeded stream."""

    def __init__(self, index: int, network: Network, names: NameService,
                 rng: Any) -> None:
        self.bidder = f"bidder-{index}"
        self.client = Client(self.bidder, network, names)
        self.rng = rng
        self.items = [f"item-{index}-{n}" for n in range(ITEMS_PER_CALLER)]
        self.high: Dict[str, int] = {item: 0 for item in self.items}
        self.accepted: Dict[str, int] = {item: 0 for item in self.items}
        self.ops = 0
        self.rejected = 0
        self.error: Optional[BaseException] = None

    def step(self, latencies: List[int] = None) -> None:
        rng = self.rng
        item = self.items[rng.zipf_index(ITEMS_PER_CALLER, ZIPF_S)]
        call = self.client.call_name
        if rng.bernoulli(READ_SHARE):
            method = "high_bid" if rng.bernoulli(0.5) else "bid_count"
            started = time.perf_counter_ns()
            result = call(SERVICE, method, item)
            elapsed = time.perf_counter_ns() - started
            if method == "bid_count":
                expected: Any = self.accepted[item]
            else:
                expected = ({"bidder": self.bidder, "amount": self.high[item]}
                            if self.accepted[item] else None)
            check(result == expected,
                  f"{method}({item}) returned {result!r}, "
                  f"expected {expected!r}")
        else:
            high = self.high[item]
            competitive = not rng.bernoulli(NON_COMPETITIVE)
            amount = high + 1 + rng.randint(0, 3) if competitive else high
            started = time.perf_counter_ns()
            try:
                call(SERVICE, "place_bid", item, self.bidder, amount,
                     caller=self.bidder)
                elapsed = time.perf_counter_ns() - started
                check(competitive, f"non-competitive bid {amount} on "
                      f"{item} (high {high}) was accepted")
                self.high[item] = amount
                self.accepted[item] += 1
            except MethodAborted:
                elapsed = time.perf_counter_ns() - started
                check(not competitive, f"competitive bid {amount} on "
                      f"{item} (high {high}) was rejected")
                self.rejected += 1
        if latencies is not None:
            latencies.append(elapsed)
        self.ops += 1

    def loop(self, start: threading.Barrier, budget: Any,
             latencies: List[int]) -> None:
        try:
            start.wait(JOIN_TIMEOUT)
            # a shared budget, so both callers stay busy to the end
            while next(budget) < EPOCH_OPS:
                self.step(latencies)
        except BaseException as exc:  # noqa: BLE001 - re-raised by drive
            self.error = exc


class Workload:
    """The auction server node, its naming service and two callers."""

    def __init__(self, rng: Any, spans: Spans = None) -> None:
        self.network = Network()
        self.names = NameService()
        self.node = Node("auction-server", self.network).start()
        roles = default_auction_roles()
        roles.assign("auctioneer", "auctioneer")
        for index in range(CALLERS):
            roles.assign(f"bidder-{index}", "bidder")
        self.cluster = build_auction_cluster(roles=roles)
        moderator = self.cluster.moderator
        self.plane = ObservabilityPlane(moderator, node="auction-server",
                                        sample_rate=SAMPLE_RATE)
        if spans is not None:
            layers.instrument_moderation(
                spans, moderator, self.cluster.component,
                ("place_bid", "high_bid", "bid_count"))
            layers.instrument_served_proxy(spans, self.cluster.proxy)
            layers.instrument_listeners(spans, moderator.events)
            layers.instrument_naming(spans, self.names)
        self.plane.enable()
        self.node.export(SERVICE, self.cluster.proxy)
        self.names.bind(SERVICE, self.node.node_id, SERVICE)
        self.callers = [Caller(index, self.network, self.names,
                               rng.fork(f"caller-{index}"))
                        for index in range(CALLERS)]
        if spans is not None:
            for caller in self.callers:
                layers.instrument_client(spans, caller.client)
        opener = self.callers[0].client
        for caller in self.callers:
            for item in caller.items:
                opener.call_name(SERVICE, "open_auction", item,
                                 caller="auctioneer")

    def warm(self) -> None:
        for _ in range(WARM_OPS):
            for caller in self.callers:
                caller.step()

    def drive(self, epoch: Epoch) -> None:
        start = threading.Barrier(CALLERS + 1)
        budget = itertools.count()
        per_caller: List[List[int]] = [[] for _ in self.callers]
        before = [(c.ops, c.rejected) for c in self.callers]
        threads = [threading.Thread(target=caller.loop,
                                    args=(start, budget, latencies),
                                    name=f"perfbench-{caller.bidder}")
                   for caller, latencies in zip(self.callers, per_caller)]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        start.wait(JOIN_TIMEOUT)
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
        epoch.window_s = time.perf_counter() - started
        check(not any(thread.is_alive() for thread in threads),
              "a caller thread did not finish")
        for caller, (ops, rejected), latencies in zip(
                self.callers, before, per_caller):
            if caller.error is not None:
                raise caller.error
            epoch.ops += caller.ops - ops
            epoch.rejected += caller.rejected - rejected
            epoch.latencies_ns.extend(latencies)

    def verify(self) -> None:
        client = self.callers[0].client
        for caller in self.callers:
            for item in caller.items:
                count = client.call_name(SERVICE, "bid_count", item)
                high = client.call_name(SERVICE, "high_bid", item)
                check(count == caller.accepted[item],
                      f"bid_count({item}) {count} != replayed "
                      f"{caller.accepted[item]}")
                check((high or {}).get("amount", 0) == caller.high[item],
                      f"high_bid({item}) {high} != replayed "
                      f"{caller.high[item]}")
        rejected = sum(caller.rejected for caller in self.callers)
        moderator = self.cluster.moderator
        validation = moderator.bank.lookup("place_bid", "validate")
        check(moderator.stats.aborts == rejected
              and sum(validation.violations.values()) == rejected,
              f"callers saw {rejected} rejections; moderator aborted "
              f"{moderator.stats.aborts}, validation vetoed "
              f"{sum(validation.violations.values())}")

    def close(self) -> Dict[str, float]:
        recorder = self.plane.recorder
        counters = {
            "retries": sum(c.client.retries for c in self.callers),
            "messages": self.network.sent,
            "span_trees": len(recorder.finished) + recorder.dropped,
            "obs_activations": sum(entry["activations"]
                                   for entry in recorder.counts.values()),
        }
        self.plane.disable()
        for caller in self.callers:
            caller.client.close()
        self.network.close()
        self.node.stop()
        return counters


def probe(rng: Any) -> Tuple[float, float]:
    """Server-side Python calls and traced bytes per ``place_bid``.

    One caller issues the seeded stream sequentially, so the worker
    thread serves each activation alone and the counts repeat.
    """

    def count(meter: Any) -> float:
        system = Workload(rng.fork("probe-system"))
        proxy = system.cluster.proxy
        call = proxy.call
        activations = [0]

        def measured(method: str, *args: Any, **kwargs: Any) -> Any:
            if method != "place_bid":
                return call(method, *args, **kwargs)
            activations[0] += 1
            return meter.measure(call, method, *args, **kwargs)

        try:
            system.warm()
            object.__setattr__(proxy, "call", measured)
            for _ in range(PROBE_OPS):
                system.callers[0].step()
        finally:
            system.close()
        return activations[0]

    counter = CallCounter()
    activations = run_probe(lambda: count(counter))
    meter = AllocMeter()
    run_probe(lambda: count(meter), traced_memory=True)
    return counter.calls / activations, meter.bytes / activations
