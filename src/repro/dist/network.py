"""Simulated network: latency, loss and partitions over thread inboxes.

Substitution note (see DESIGN.md §2): the paper targets components
"distributed across the network" but reports no networked experiments.
This module provides the closest synthetic equivalent — per-link latency
drawn from a seeded distribution, probabilistic loss, and explicit
partitions — so the distributed examples and benches exercise the same
code paths (marshalling, timeouts, retries, failover) a deployment
would.

One rule orders delivery: a message is delivered in ``(deliver_at,
seq)`` order, where ``seq`` is its place in the send sequence. A message
that is due now (no latency, no injected delay) with nothing queued
ahead of it is therefore delivered on the sender's own thread, inside
``send``. Every other message waits on a timed heap that one dispatcher
thread drains; that thread starts with the first message it has to
hold. Both paths share one delivery step, so per-link FIFO holds for
equal latencies and delivered / dropped counts are deterministic for a
fixed seed and send sequence.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import NodeUnreachable
from repro.concurrency.primitives import WaitQueue
from .message import Message


class Network:
    """An in-process network connecting named endpoints.

    Args:
        latency: mean one-way delivery latency, seconds (0 = immediate).
        jitter: uniform +/- fraction applied to the latency.
        loss: probability a message is silently dropped.
        seed: RNG seed for jitter and loss decisions.
        on_error: callback invoked with any exception a delivery
            raises, on the sender's or the dispatcher's thread (delivery
            errors never reach the sender nor kill the dispatcher;
            without a callback they are only counted in
            ``dispatch_errors``).
    """

    def __init__(self, latency: float = 0.0, jitter: float = 0.0,
                 loss: float = 0.0, seed: int = 7,
                 on_error: Optional[
                     Callable[[BaseException], None]] = None) -> None:
        self.latency = latency
        self.jitter = jitter
        self.loss = loss
        self.on_error = on_error
        self.dispatch_errors = 0
        #: deterministic delivery-fault hook (``repro.faults``): consulted
        #: per send for drop/delay/raise at named delivery sites
        self.fault_injector: Optional[object] = None
        self._rng = random.Random(seed)
        self._lock = threading.RLock()
        self._inboxes: Dict[str, "WaitQueue[Message]"] = {}
        self._partitions: List[Set[str]] = []
        self._down: Set[str] = set()
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self._heap: List[Tuple[float, int, Message]] = []
        self._sequence = itertools.count()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        #: set while the dispatcher delivers a message it popped: that
        #: message is still ahead of anything sent meanwhile
        self._dispatching = False
        self._dispatcher: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def register(self, endpoint: str,
                 inbox: "Optional[WaitQueue[Message]]" = None,
                 ) -> "WaitQueue[Message]":
        """Attach an endpoint; returns its inbox queue.

        ``inbox`` lets the endpoint supply its own queue — e.g. a
        bounded :class:`~repro.dist.resilience.ShedInbox` for admission
        control, or an RPC client's reply sink. The network only calls
        ``put``, outside its own lock, on the sending thread (a message
        due now) or on the dispatcher thread (a delayed one); so any
        ``WaitQueue`` subclass whose ``put`` does not block works here.
        ``put`` may itself send on this network.
        """
        with self._lock:
            if endpoint in self._inboxes:
                raise ValueError(f"endpoint {endpoint!r} already registered")
            if inbox is None:
                inbox = WaitQueue()
            self._inboxes[endpoint] = inbox
            return inbox

    def unregister(self, endpoint: str) -> None:
        with self._lock:
            inbox = self._inboxes.pop(endpoint, None)
            if inbox is not None:
                inbox.close()

    def endpoints(self) -> List[str]:
        with self._lock:
            return list(self._inboxes)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def partition(self, *groups: Set[str]) -> None:
        """Split endpoints into isolated groups (others see everyone)."""
        with self._lock:
            self._partitions = [set(group) for group in groups]

    def heal(self) -> None:
        with self._lock:
            self._partitions = []

    def take_down(self, endpoint: str) -> None:
        """Crash an endpoint: messages to it are dropped."""
        with self._lock:
            self._down.add(endpoint)

    def bring_up(self, endpoint: str) -> None:
        with self._lock:
            self._down.discard(endpoint)

    def is_up(self, endpoint: str) -> bool:
        with self._lock:
            return endpoint in self._inboxes and endpoint not in self._down

    def _reachable(self, source: str, dest: str) -> bool:
        if dest in self._down or source in self._down:
            return False
        for group in self._partitions:
            source_in = source in group
            dest_in = dest in group
            if source_in != dest_in:
                return False
        return True

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Deliver or queue a message, applying faults and latency.

        Unknown destinations raise :class:`NodeUnreachable` immediately
        (the simulated analogue of a connection refusal); loss and
        partitions drop silently, as a real network would. An installed
        fault injector is consulted per send: its ``skip`` action drops
        the k-th delivery to an endpoint, ``delay`` widens its latency,
        ``raise`` surfaces :class:`~repro.faults.InjectedFault` to the
        sender. A message due now with nothing queued ahead of it is
        delivered before ``send`` returns; a failing delivery is counted
        and reported, never raised here.
        """
        extra_delay = 0.0
        injector = self.fault_injector
        if injector is not None:
            spec = injector.deliver(message.dest)
            if spec is not None:
                if spec.action == "raise":
                    from repro.faults.plan import InjectedFault
                    with self._lock:
                        self.sent += 1
                        self.dropped += 1
                    raise InjectedFault(spec)
                if spec.action == "skip":
                    with self._lock:
                        self.sent += 1
                        self.dropped += 1
                    return
                extra_delay = spec.arg
        with self._lock:
            self.sent += 1
            inbox = self._inboxes.get(message.dest)
            if inbox is None:
                raise NodeUnreachable(message.dest)
            if not self._reachable(message.source, message.dest):
                self.dropped += 1
                return
            if self.loss > 0 and self._rng.random() < self.loss:
                self.dropped += 1
                return
            delay = self.latency
            if delay > 0 and self.jitter > 0:
                delay *= 1.0 + self.jitter * (2 * self._rng.random() - 1)
            delay = max(0.0, delay) + extra_delay
            if delay > 0 or self._heap or self._dispatching:
                self._queue(message, time.monotonic() + delay)
                return
            # Due now, nothing ahead: this send is the delivery.
            self.delivered += 1
        self._deliver(inbox, message)

    def _queue(self, message: Message, deliver_at: float) -> None:
        # under self._lock
        heapq.heappush(self._heap,
                       (deliver_at, next(self._sequence), message))
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="network-dispatch",
                daemon=True,
            )
            self._dispatcher.start()
        else:
            self._wakeup.notify()

    def _deliver(self, inbox: "WaitQueue[Message]",
                 message: Message) -> None:
        """Put a copy of ``message`` into ``inbox``; counted delivered.

        A closing inbox (``WaitQueue.Closed``) turns the delivery into a
        drop. Any other failure — a payload that no longer copies, a
        broken inbox — is a drop too, and is reported through
        ``dispatch_errors`` / ``on_error``: it must neither reach the
        sender nor take the dispatcher down.
        """
        try:
            inbox.put(message.copy_for_delivery())
        except WaitQueue.Closed:
            self._undo_delivery()
        except Exception as exc:  # noqa: BLE001 - contained and reported
            self._undo_delivery()
            self._report_error(exc)

    def _undo_delivery(self) -> None:
        with self._lock:
            self.delivered -= 1
            self.dropped += 1

    def _dispatch_loop(self) -> None:
        # The dispatcher carries every delayed delivery: if it died on
        # one bad message the delayed traffic would silently stop.
        # Deliveries contain their own errors; anything else is
        # counted, reported through on_error, and the loop continues.
        while True:
            try:
                if self._dispatch_once():
                    return
            except Exception as exc:  # noqa: BLE001 - must survive
                self._report_error(exc)

    def _dispatch_once(self) -> bool:
        """One wait-or-deliver step; True when the network has shut down."""
        with self._wakeup:
            self._dispatching = False
            while not self._heap and not self._closed:
                self._wakeup.wait()
            if self._closed and not self._heap:
                return True
            deliver_at, _seq, message = self._heap[0]
            now = time.monotonic()
            if deliver_at > now:
                self._wakeup.wait(deliver_at - now)
                return False
            heapq.heappop(self._heap)
            # Re-check reachability at delivery time: a partition or
            # crash that happened in flight still loses the message.
            inbox = self._inboxes.get(message.dest)
            if inbox is None \
                    or not self._reachable(message.source, message.dest):
                self.dropped += 1
                return False
            self.delivered += 1
            self._dispatching = True
        self._deliver(inbox, message)
        return False

    def _report_error(self, exc: BaseException) -> None:
        with self._lock:
            self.dispatch_errors += 1
        callback = self.on_error
        if callback is not None:
            try:
                callback(exc)
            except Exception:  # noqa: BLE001 - error hook must not kill us
                pass

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "sent": self.sent,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "in_flight": len(self._heap),
                "dispatch_errors": self.dispatch_errors,
            }

    def close(self) -> None:
        """Unregister every endpoint and stop the dispatcher, if started.

        Queued messages are dropped as they fall due (their endpoints
        are gone); a network that never delayed a message has no
        dispatcher thread to stop.
        """
        with self._wakeup:
            self._closed = True
            self._wakeup.notify_all()
        for endpoint in list(self._inboxes):
            self.unregister(endpoint)
