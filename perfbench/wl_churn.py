"""durable-churn: sharding, resilience and recovery under seeded moves.

Four nodes. A sharded ``kv`` (2 shards, ``client.shard_router``) keeps
shard ``s0`` on n1 while ``Rebalancer.rebalance`` bounces ``s1``
between n2 and n1. A journaled ``ledger`` (``RecoveryPlan`` on a
``MemoryStore``) is placed by ``Supervisor.place`` on n3 and moved between
n3 and n4 by ``Node.crash(lose_memory=True)`` + ``Supervisor.failover``.
Only the ledger lives on n3/n4, so every service on a crashed node is
journaled and supervised. The client is armed with a ``RetryPolicy``
(every call carries an idempotency key). One thread issues the calls and
performs the moves inline on a seeded schedule, so no request is in
flight at a move. Half the calls are journaled ledger writes.

The store is a ``MemoryStore``: a ``FileStore`` on the checkout's disk
put the shared disk's fsync latency into the tail (p99 spread 0.29 to
0.85 of the median across runs, against 0.09 in memory), and the only
tmpfs, ``/dev/shm``, lies outside the checkout the benchmark may write.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.aspects.retry import RetryPolicy
from repro.dist import (Client, MemoryStore, NameService, Network, Node,
                        Rebalancer, RecoveryPlan, Supervisor,
                        recover_service)

from harness import Epoch, Spans, check
import layers

KEYS = 64
#: cumulative mix: ledger post, ledger balance, kv put, kv get
MIX = ((0.5, "post"), (0.6, "balance"), (0.8, "put"), (1.0, "get"))
CONTROL_GAP = (300, 500)
WARM_OPS = 100
EPOCH_OPS = 1600
POLICY = RetryPolicy(max_attempts=4, base_delay=0.005)
TIMEOUT = 5.0
#: the recovery span: servant calls replayed under it are not serving
RECOVER = "dist.recovery.recover"


class KV:
    """Shard servant; ``applied`` counts how often each write ran."""

    STATE = ("data", "applied")

    def __init__(self, data: Dict[str, str] = None,
                 applied: Dict[str, int] = None) -> None:
        self.data = dict(data or {})
        self.applied = dict(applied or {})

    def put(self, key: str, write_id: str) -> int:
        self.data[key] = write_id
        self.applied[write_id] = self.applied.get(write_id, 0) + 1
        return len(self.data)

    def get(self, key: str) -> Optional[str]:
        return self.data.get(key)

    def dump(self) -> Dict[str, Any]:
        return {"data": dict(self.data), "applied": dict(self.applied)}


class Ledger:
    """Journaled servant; ``applied`` counts how often each entry ran."""

    STATE = ("entries", "applied")

    def __init__(self, entries: Dict[str, int] = None,
                 applied: Dict[str, int] = None) -> None:
        self.entries = dict(entries or {})
        self.applied = dict(applied or {})

    def post(self, entry_id: str, amount: int) -> int:
        self.entries[entry_id] = amount
        self.applied[entry_id] = self.applied.get(entry_id, 0) + 1
        return len(self.entries)

    def balance(self) -> int:
        return sum(self.entries.values())

    def snapshot(self) -> Dict[str, Any]:
        return {"entries": dict(self.entries), "applied": dict(self.applied)}


def capture(servant: Any) -> Dict[str, Any]:
    # attribute reads, not servant calls: capture is not serving
    return {name: dict(getattr(servant, name)) for name in servant.STATE}


class Workload:
    """Four nodes, a sharded kv, a supervised journaled ledger."""

    def __init__(self, rng: Any, spans: Spans = None) -> None:
        self.rng = rng
        self.spans = spans
        self.network = Network()
        self.names = NameService()
        self.nodes = {tag: Node(tag, self.network).start()
                      for tag in ("n1", "n2", "n3", "n4")}
        n1, n2 = self.nodes["n1"], self.nodes["n2"]
        self.names.bind_sharded("kv", ["s0", "s1"])
        n1.export("kv#s0", self._servant(KV()))
        n2.export("kv#s1", self._servant(KV()))
        self.names.bind("kv#s0", "n1", "kv#s0")
        self.names.bind("kv#s1", "n2", "kv#s1")
        self.s1_home = "n2"
        self.store = MemoryStore()
        self.plan = RecoveryPlan(
            self.store, capture,
            lambda state: self._servant(Ledger(**state)),
            mutating=["post"])
        self.supervisor = Supervisor(self.names, detector=None)
        self.rebalancer = Rebalancer(self.names)
        self.client = Client("churn", self.network, self.names,
                             default_timeout=TIMEOUT, retry_policy=POLICY)
        self.router = self.client.shard_router("kv")
        if spans is not None:
            self._instrument(spans)
        self.spec = self.supervisor.supervise(
            "ledger", "ledger", self.plan,
            [self.nodes["n3"], self.nodes["n4"]],
            bootstrap=lambda: self._servant(Ledger()))
        self.supervisor.place(self.spec, self.nodes["n3"])
        self.ledger_home = "n3"
        # acknowledged state, as the caller saw it
        self.entries: Dict[str, int] = {}
        self.kv: Dict[str, str] = {}
        self.writes: Set[str] = set()
        self.uncertain: Set[str] = set()
        self.last_post: Optional[Tuple[str, int, str, int]] = None
        self.resends = 0
        self.failovers: List[Any] = []
        self.serial = 0
        self.until_control = rng.randint(*CONTROL_GAP)
        self.next_control = "rebalance"

    # ------------------------------------------------------------------
    def _servant(self, servant: Any) -> Any:
        if self.spans is not None:
            names = [n for n in ("put", "get", "post", "balance",
                                 "snapshot", "dump") if hasattr(servant, n)]
            layers.instrument_methods(self.spans, servant, names,
                                      "dist.node.serve",
                                      skip_under=(RECOVER,))
        return servant

    def _instrument(self, spans: Spans) -> None:
        layers.instrument_client(spans, self.client)
        layers.instrument_naming(spans, self.names)
        self.router.shard_for = spans.wrap("dist.sharding.route",
                                           self.router.shard_for)
        self.rebalancer.rebalance = spans.wrap("dist.sharding.rebalance",
                                               self.rebalancer.rebalance)
        self.store.append = spans.wrap("dist.recovery.append",
                                       self.store.append)
        for method in ("load_checkpoint", "entries"):
            setattr(self.store, method, spans.wrap(
                "dist.recovery.store_read", getattr(self.store, method)))
        self.supervisor.place = spans.wrap(RECOVER, self.supervisor.place)
        for tag in ("n3", "n4"):
            node = self.nodes[tag]
            node.checkpoint = spans.wrap("dist.recovery.checkpoint",
                                         node.checkpoint)

    # ------------------------------------------------------------------
    def _operation(self) -> Tuple[str, Tuple[Any, ...]]:
        draw = self.rng.uniform(0.0, 1.0)
        kind = next(name for bound, name in MIX if draw < bound)
        self.serial += 1
        if kind == "post":
            return kind, (f"e{self.serial}", self.rng.randint(1, 100))
        if kind == "put":
            key = f"k{self.rng.zipf_index(KEYS)}"
            return kind, (key, f"w{self.serial}")
        if kind == "get":
            return kind, (f"k{self.rng.zipf_index(KEYS)}",)
        return kind, ()

    def _issue(self, kind: str, args: Tuple[Any, ...]) -> Any:
        if kind == "post":
            key = f"post:{args[0]}"
            reply = self.client.call_name("ledger", "post", *args,
                                          idempotency_key=key)
            self.last_post = (args[0], args[1], key, reply)
            return reply
        if kind == "balance":
            return self.client.call_name("ledger", "balance")
        return getattr(self.router, kind)(*args)

    def _record(self, kind: str, args: Tuple[Any, ...], result: Any) -> None:
        if kind == "post":
            self.entries[args[0]] = args[1]
            check(result == len(self.entries),
                  f"post {args[0]} answered {result}, expected "
                  f"{len(self.entries)} entries")
        elif kind == "put":
            self.kv[args[0]] = args[1]
            self.writes.add(args[1])
        elif kind == "get":
            check(result == self.kv.get(args[0]),
                  f"get {args[0]} returned {result!r}, acknowledged "
                  f"{self.kv.get(args[0])!r}")
        else:
            check(result == sum(self.entries.values()),
                  f"balance {result} != acknowledged "
                  f"{sum(self.entries.values())}")

    def step(self, epoch: Epoch = None) -> None:
        kind, args = self._operation()
        started = time.perf_counter_ns()
        try:
            result = self._issue(kind, args)
        except Exception:  # noqa: BLE001 - counted; effect may have run
            if epoch is None:
                raise
            epoch.failed += 1
            if kind in ("post", "put"):
                self.uncertain.add(args[0] if kind == "post" else args[1])
            return
        if epoch is not None:
            epoch.latencies_ns.append(time.perf_counter_ns() - started)
        self._record(kind, args, result)

    # ------------------------------------------------------------------
    def _rebalance(self, epoch: Epoch) -> None:
        source = self.s1_home
        target = "n1" if source == "n2" else "n2"
        report = self.rebalancer.rebalance(
            "kv", "s1", self.nodes[source], self.nodes[target],
            capture=capture, rebuild=lambda state: self._servant(KV(**state)))
        self.s1_home = target
        epoch.add_sample("move_downtime_ms", report.downtime * 1000.0)

    def _failover(self, epoch: Epoch) -> None:
        source = self.nodes[self.ledger_home]
        target = self.nodes["n4" if self.ledger_home == "n3" else "n3"]
        source.crash(lose_memory=True)
        report = self.supervisor.failover(self.spec, target,
                                          from_node=source.node_id)
        source.recover()
        self.ledger_home = target.node_id
        self.failovers.append(report)
        epoch.add_sample("failover_ms", report.duration * 1000.0)
        if self.last_post is not None:
            # an acknowledged write re-sent with its key must replay
            entry, amount, key, reply = self.last_post
            hits = target.dedup_hits
            again = self.client.call_name("ledger", "post", entry, amount,
                                          idempotency_key=key)
            check(again == reply and target.dedup_hits == hits + 1,
                  f"re-sent {key} answered {again} (first {reply}); dedup "
                  f"hits {hits} -> {target.dedup_hits}")
            self.resends += 1

    def _control(self, epoch: Epoch) -> None:
        if self.next_control == "rebalance":
            self._rebalance(epoch)
            self.next_control = "failover"
        else:
            self._failover(epoch)
            self.next_control = "rebalance"
        self.until_control = self.rng.randint(*CONTROL_GAP)

    def warm(self) -> None:
        for _ in range(WARM_OPS):
            self.step()

    def drive(self, epoch: Epoch) -> None:
        clock = time.perf_counter
        started = clock()
        paused = 0.0
        while epoch.ops < EPOCH_OPS:
            if self.until_control == 0:
                control_started = clock()
                self._control(epoch)
                paused += clock() - control_started
                continue
            self.step(epoch)
            self.until_control -= 1
            epoch.ops += 1
        # moves are the harness's fault schedule, timed on their own
        epoch.window_s = clock() - started - paused

    # ------------------------------------------------------------------
    def _check_applied(self, what: str, applied: Dict[str, int],
                       acknowledged: Set[str]) -> None:
        for write in acknowledged:
            check(applied.get(write, 0) == 1,
                  f"{what}: acknowledged {write} applied "
                  f"{applied.get(write, 0)} times")
        for write, count in applied.items():
            check(write in acknowledged or (write in self.uncertain
                                            and count == 1),
                  f"{what}: {write} applied {count} times, never "
                  f"acknowledged")

    def verify(self) -> None:
        live = self.client.call_name("ledger", "snapshot")
        rebuild = recover_service if self.spans is None else \
            self.spans.wrap(RECOVER, recover_service)
        rebuilt = rebuild(self.plan, "ledger", bootstrap=Ledger).servant
        acknowledged = set(self.entries)
        for what, state in (("live ledger", live),
                            ("recovered ledger", capture(rebuilt))):
            self._check_applied(what, state["applied"], acknowledged)
            entries = {k: v for k, v in state["entries"].items()
                       if k in acknowledged}
            check(entries == self.entries,
                  f"{what} entries differ from the acknowledged posts")
        applied: Dict[str, int] = {}
        data: Dict[str, str] = {}
        for shard in ("s0", "s1"):
            dump = self.client.call_name(f"kv#{shard}", "dump")
            for write, count in dump["applied"].items():
                applied[write] = applied.get(write, 0) + count
            data.update(dump["data"])
        self._check_applied("kv", applied, self.writes)
        check(all(data.get(key) == value for key, value in self.kv.items()),
              "a kv key does not hold its last acknowledged write")

    def close(self) -> Dict[str, float]:
        counters = {
            "retries": self.client.retries,
            "messages": self.network.sent,
            "dedup_hits": sum(n.dedup_hits for n in self.nodes.values()),
            "fenced_rejections": sum(
                sum(n.registry.snapshot().get(
                    "repro_recovery_fenced_rejections", {}).values())
                for n in self.nodes.values()),
            "journaled_writes": len(self.entries),
            "failovers": len(self.failovers),
            "replayed": sum(report.replayed for report in self.failovers),
        }
        self.client.close()
        self.network.close()
        for node in self.nodes.values():
            node.stop()
        return counters


def probe(rng: Any) -> Tuple[float, float]:
    """No moderated activations run here: the counts are zero."""
    return 0.0, 0.0
