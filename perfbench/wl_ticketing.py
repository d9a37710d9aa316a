"""ticketing-local: the paper's trouble-ticketing cluster, in process.

Authentication wraps synchronization and audit observes both
(``build_ticketing_cluster(sessions=, audit_log=)``, paper Figs 13-18).
One caller opens tickets in seeded bursts of 1..capacity and then assigns
until the buffer is empty, so no activation ever blocks. About 5% of
calls carry an invalid session token: authentication ABORTs them and the
audit aspect's compensation logs the abort.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.apps import build_ticketing_cluster, make_session_manager
from repro.aspects.audit import AuditLog
from repro.concurrency.buffer import Ticket
from repro.core import MethodAborted

from harness import AllocMeter, CallCounter, Epoch, Spans, check, \
    run_probe
import layers

CAPACITY = 16
INVALID_RATE = 0.05
USERS = ("alice", "bob", "carol", "dave")
BAD_TOKEN = "tok-revoked"
WARM_OPS = 200
EPOCH_OPS = 10000
PROBE_OPS = 400


class Workload:
    """One freshly built ticketing cluster and its seeded caller."""

    def __init__(self, rng: Any, spans: Spans = None) -> None:
        self.rng = rng
        sessions = make_session_manager({user: f"pw-{user}" for user in USERS})
        self.tokens = [sessions.login(user, f"pw-{user}") for user in USERS]
        self.audit = AuditLog()
        self.cluster = build_ticketing_cluster(
            capacity=CAPACITY, sessions=sessions, audit_log=self.audit,
        )
        self.proxy = self.cluster.proxy
        self.store = self.cluster.component
        if spans is not None:
            layers.instrument_moderation(spans, self.cluster.moderator,
                                         self.store, ("open", "assign"))
            # the caller's own span around each proxy call is the proxy
            # layer; moderation and body spans nest inside it
            self._call = spans.wrap("core.proxy", self._call)
        self.opened: List[int] = []
        self.assigned: List[int] = []
        self.ok = 0
        self.aborted = 0
        self._summary = 0
        self._ops = self._operations()

    # ------------------------------------------------------------------
    def _token(self) -> str:
        if self.rng.bernoulli(INVALID_RATE):
            return BAD_TOKEN
        return self.rng.choice(self.tokens)

    def _operations(self):
        """Seeded bursts: 1..capacity opens, then assigns until empty.

        Yields ``(method, argument, token)``; outcomes are
        known in advance because only the token decides an ABORT.
        """
        pending = 0
        while True:
            for _ in range(self.rng.randint(1, CAPACITY)):
                self._summary += 1
                token = self._token()
                ticket = Ticket(summary=f"fault {self._summary}",
                                reporter="bench", severity=self._summary % 5)
                yield "open", ticket, token
                if token != BAD_TOKEN:
                    pending += 1
            while pending:
                token = self._token()
                yield "assign", "agent", token
                if token != BAD_TOKEN:
                    pending -= 1

    def _call(self, method: str, argument: Any, token: str) -> Any:
        return self.proxy.call(method, argument, caller=token)

    def _record(self, method: str, token: str, result: Any,
                aborted: bool) -> None:
        if aborted:
            check(token == BAD_TOKEN, f"{method} with a valid token ABORTed")
            self.aborted += 1
            return
        check(token != BAD_TOKEN, f"{method} with a bad token ran")
        self.ok += 1
        if method == "open":
            self.opened.append(result)
        else:
            self.assigned.append(result.ticket_id)

    def step(self, timed: List[int] = None) -> bool:
        """One call; returns whether it was an expected ABORT."""
        method, argument, token = next(self._ops)
        aborted = False
        result = None
        started = time.perf_counter_ns()
        try:
            result = self._call(method, argument, token)
        except MethodAborted:
            aborted = True
        if timed is not None:
            timed.append(time.perf_counter_ns() - started)
        self._record(method, token, result, aborted)
        return aborted

    def warm(self) -> None:
        for _ in range(WARM_OPS):
            self.step()

    def drive(self, epoch: Epoch) -> None:
        latencies = epoch.latencies_ns
        started = time.perf_counter()
        ops = rejected = 0
        # run on past the budget to the end of the burst in flight, so
        # every opened ticket is assigned
        while ops < EPOCH_OPS or self.store.pending:
            rejected += self.step(latencies)
            ops += 1
        epoch.window_s = time.perf_counter() - started
        epoch.ops += ops
        epoch.rejected += rejected

    # ------------------------------------------------------------------
    def verify(self) -> None:
        store = self.store
        check(store.pending == 0, f"{store.pending} tickets left unassigned")
        check(self.assigned == self.opened,
              "assignments are not the opened tickets in FIFO order")
        check(len(set(self.assigned)) == len(self.assigned),
              "a ticket was assigned twice")
        check(store.opened == self.opened and store.assigned == self.assigned,
              "component history differs from the acknowledged calls")
        outcomes = self.audit.outcomes()
        check(outcomes.get("ok", 0) == self.ok
              and outcomes.get("aborted", 0) == self.aborted
              and sum(outcomes.values()) == self.ok + self.aborted,
              f"audit outcomes {outcomes} != ok {self.ok}, "
              f"aborted {self.aborted}")
        check(self.audit.verify_chain(), "audit hash chain is broken")
        stats = self.cluster.moderator.stats
        check(stats.aborts == self.aborted,
              f"moderator counted {stats.aborts} aborts, callers saw "
              f"{self.aborted}")

    def close(self) -> Dict[str, float]:
        return {}


def probe(rng: Any) -> Tuple[float, float]:
    """Python calls and traced bytes per activation over seeded calls."""

    def count(meter: Any) -> float:
        system = Workload(rng.fork("probe-system"))
        system.warm()
        operations = [next(system._ops) for _ in range(PROBE_OPS)]
        for method, argument, token in operations:
            try:
                meter.measure(system._call, method, argument, token)
            except MethodAborted:
                pass
        return PROBE_OPS

    counter = CallCounter()
    activations = run_probe(lambda: count(counter))
    meter = AllocMeter()
    run_probe(lambda: count(meter), traced_memory=True)
    return counter.calls / activations, meter.bytes / activations
