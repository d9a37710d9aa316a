"""Continuation moderator runtime: park activations, not threads.

The paper's moderation protocol (Figure 11) parks a BLOCKed caller on a
monitor — ``while (result == BLOCKED) wait()`` — and the threaded
runtime reproduces that literally: every blocked activation pins an OS
thread on a :class:`threading.Condition`, so a node can hold at most
thread-pool-size activations in flight. This module adds the second
runtime: an event-loop *reactor* in which BLOCK suspends the activation
as a heap-allocated :class:`ActivationContinuation` — the plan suffix to
re-run, the bound join point (whose context carries the re-anchored
contract runner), and the deadline — and a wake re-enqueues just that
suffix onto a small worker set. A parked continuation costs a few
hundred bytes of heap instead of a thread stack, which is what lets one
process hold ~10^6 parked activations (``benchmarks/bench_parked_scale``).

Equivalence contract
--------------------

The threaded runtime stays the reference implementation, and this
runtime shares all of its moderation code: the entry bookkeeping, the
lock-free ``never_blocks`` round and Figure 11's blocking loop are
:meth:`AspectModerator.preactivation` and
:meth:`~AspectModerator._blocking_rounds`, the unwind is
:meth:`~AspectModerator.postactivation`. The loop is parameterised by a
*park strategy* — the one step taken once a round has BLOCKed, the
wake epoch has been re-checked and the activation is registered as
parked. A thread waits on the method's queue in place
(:class:`~repro.core.moderator.WaitInPlace`); an
:class:`ActivationContinuation` is the other strategy: it records itself
in the runtime's table, arms its deadline and returns ``SUSPENDED``, so
the loop returns and the worker is free. A wake or an expiry re-enters
the same loop at the next round. The differential suite
(``tests/properties/test_continuation_differential.py``) holds the two
runtimes observably identical — outcomes, event streams, span shapes,
counters, contract verdicts — across all 228 fault-chaos schedules and
a park/notify/expiry script.

There is one parked registry: thread and continuation parks both
register in the moderator's ``_parked`` count and ``_parked_info`` table
under ``_waiter_guard``, after the same wake-epoch re-check, so
:meth:`AspectModerator.parked_snapshot`, ``queue_lengths`` and the wake
test of ``postactivation`` see one population. The runtime's own table
maps activation ids to continuations only so that a wake, an expiry or
:meth:`ContinuationRuntime.close` can claim one — whoever pops it owns
its next step. A continuation records itself there before its domain
lock is released, and the moderator reaches the runtime only after it
has taken the lock of every domain it notifies, so a wake cannot miss a
continuation that registered before it.

Contract ``old``-state re-anchoring across suspensions is inherited,
not re-implemented: the contract runner lives in ``joinpoint.context``
(it *is* part of the continuation's captured state), and
``ContractRunner.start_round`` re-captures observables at the top of
every evaluation round — including the round a wake re-runs — so
blame assignment sees exactly the rounds the threaded runtime would.

Deterministic mode
------------------

Pass ``engine=repro.sim.Engine(...)`` to bridge the reactor onto the
discrete-event simulator: dispatch becomes ``engine.call_after(0, ...)``,
deadline expiry becomes ``engine.call_at(expires_at, ...)``, and the
runtime clock is virtual time. No worker threads are started; the test
drives ``engine.run()`` and the whole park/wake/timeout lifecycle
replays identically for a given schedule. (Virtual-time mode expects
budgets via ``timeout=`` — a ``Deadline`` object's ``expires_at`` is a
wall-monotonic stamp and would be compared against virtual time.)
"""

from __future__ import annotations

import heapq
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.concurrency.primitives import WaitQueue

from .errors import MethodAborted
from .joinpoint import JoinPoint
from .moderator import SUSPENDED, TIMED_OUT, WOKEN
from .results import AspectResult, Phase

__all__ = ["ActivationContinuation", "CallFuture", "ContinuationRuntime"]


class CallFuture:
    """Write-once completion token for a reactor-submitted activation.

    Deliberately leaner than :class:`repro.concurrency.primitives.Future`:
    a parked-at-scale workload holds one of these per activation, so it
    must not carry a private ``Lock``+``Condition`` pair (~that would be
    two kernel-backed objects per parked call). Completion transitions
    are serialized on one class-level lock — only completers and late
    waiter registrations touch it — and a blocking :meth:`result` call
    materializes an :class:`threading.Event` lazily, so the common
    fire-and-park case allocates none.
    """

    __slots__ = ("_done", "_value", "_exception", "_event", "_callbacks")

    _guard = threading.Lock()

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._event: Optional[threading.Event] = None
        self._callbacks: Optional[List[Callable[["CallFuture"], None]]] = None

    @property
    def done(self) -> bool:
        return self._done

    def _complete(self, value: Any,
                  exception: Optional[BaseException]) -> None:
        with CallFuture._guard:
            if self._done:
                raise RuntimeError("future already completed")
            self._value = value
            self._exception = exception
            self._done = True
            event = self._event
            callbacks = self._callbacks
            self._callbacks = None
        if event is not None:
            event.set()
        if callbacks:
            for callback in callbacks:
                callback(self)

    def set_result(self, value: Any) -> None:
        self._complete(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._complete(None, exc)

    def _wait(self, timeout: Optional[float]) -> None:
        if self._done:
            return
        with CallFuture._guard:
            if self._done:
                return
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        if not event.wait(timeout):
            raise TimeoutError("activation not completed in time")

    def result(self, timeout: Optional[float] = None) -> Any:
        self._wait(timeout)
        if self._exception is not None:
            raise self._exception
        return self._value

    def exception(self,
                  timeout: Optional[float] = None) -> Optional[BaseException]:
        self._wait(timeout)
        return self._exception

    def add_callback(self, callback: Callable[["CallFuture"], None]) -> None:
        """Run ``callback(self)`` on completion (immediately if done)."""
        run_now = False
        with CallFuture._guard:
            if self._done:
                run_now = True
            else:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(callback)
        if run_now:
            callback(self)


class ActivationContinuation:
    """The heap-allocated suspension of one moderated activation.

    Everything a wake needs to re-run the suffix: the join point (whose
    ``context`` carries the RESUMEd-chain stash and the contract
    runner), the body callable, and the deadline. The threaded runtime
    keeps all of this in stack frames pinned by ``Condition.wait``;
    here it is this object, and the worker's stack unwinds completely
    while parked.

    It is also the continuation runtime's park strategy (see
    :class:`~repro.core.moderator.WaitInPlace`): :meth:`park` suspends
    instead of waiting.
    """

    __slots__ = (
        "runtime", "clock", "method_id", "joinpoint", "func", "args",
        "kwargs", "wrap", "future", "timeout", "deadline", "woke",
    )

    def __init__(self, runtime: "ContinuationRuntime", method_id: str,
                 joinpoint: JoinPoint, func: Optional[Callable[..., Any]],
                 args: Tuple[Any, ...], kwargs: Dict[str, Any],
                 wrap: Optional[Callable[[], Any]],
                 timeout: Optional[float], deadline: Any) -> None:
        self.runtime = runtime
        self.clock = runtime._clock
        self.method_id = method_id
        self.joinpoint = joinpoint
        self.func = func
        self.args = args
        self.kwargs = kwargs
        #: optional zero-arg context-manager factory applied around every
        #: segment run (the dist layer re-activates trace propagation and
        #: the serving context on whichever worker resumes the suffix)
        self.wrap = wrap
        self.future = CallFuture()
        #: the caller's budget until the first park, then the resolved
        #: one (effective timeout, absolute expiry) a resumption reuses
        self.timeout = timeout
        self.deadline = deadline
        #: how the last park ended (``WOKEN`` or ``TIMED_OUT``), set by
        #: whoever claimed it; ``None`` until the first park
        self.woke: Optional[str] = None

    def park(self, queue: Any, expires_at: Optional[float],
             timeout: Optional[float]) -> str:
        """The park step: record this continuation and suspend.

        Called by the moderator's blocking loop under the method's domain
        lock, after the activation registered as parked. A budget already
        spent returns ``TIMED_OUT`` at once, as a thread's wait does.
        """
        if expires_at is not None and expires_at <= self.clock():
            return TIMED_OUT
        self.timeout = timeout
        self.deadline = expires_at
        runtime = self.runtime
        with runtime._lock:
            if runtime._closed:
                raise RuntimeError("runtime is closed")
            runtime._parked[self.joinpoint.activation_id] = self
        if expires_at is not None:
            runtime._schedule_expiry(self)
        return SUSPENDED


class ContinuationRuntime:
    """Event-loop moderator runtime: the reactor behind ``submit``.

    Args:
        moderator: the :class:`~repro.core.moderator.AspectModerator`
            whose methods this runtime executes; the runtime attaches
            itself so moderator wakes route into the ready queue.
        workers: size of the worker set that runs activation segments
            (ignored in engine mode). Throughput scales with runnable
            segments, not with parked count — 2 is plenty for pure
            coordination workloads.
        engine: optional :class:`repro.sim.Engine`; bridges dispatch and
            timers onto virtual time for deterministic tests.
        name: worker-thread name prefix.
    """

    def __init__(self, moderator: Any, workers: int = 2,
                 engine: Optional[Any] = None,
                 name: str = "reactor") -> None:
        self._moderator = moderator
        self._engine = engine
        #: the runtime clock: virtual time in engine mode
        self._clock: Callable[[], float] = (
            time.monotonic if engine is None else lambda: engine.now
        )
        self._lock = threading.Lock()
        #: activation_id -> suspended continuation, for redispatch: a
        #: wake, an expiry or ``close`` claims an entry by popping it
        self._parked: Dict[int, ActivationContinuation] = {}
        self._closed = False
        self.submitted = 0
        self.completed = 0
        #: deadline timer state (threaded mode): heap of
        #: (expires_at, activation_id), serviced by a lazy daemon thread
        self._timer_heap: List[Tuple[float, int]] = []
        self._timer_cond = threading.Condition(threading.Lock())
        self._timer_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        if engine is None:
            self._ready: Optional[WaitQueue] = WaitQueue()
            for index in range(workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"{name}-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        else:
            self._ready = None
        moderator.attach_runtime(self)

    # ------------------------------------------------------------------
    # dispatch plumbing (threaded vs. engine-bridged)
    # ------------------------------------------------------------------
    def _dispatch(self, continuation: ActivationContinuation) -> None:
        if self._engine is not None:
            self._engine.call_after(
                0.0, lambda: self._run(continuation),
                label=f"segment {continuation.method_id}",
            )
        else:
            self._ready.put(continuation)

    def _worker_loop(self) -> None:
        while True:
            try:
                continuation = self._ready.get()
            except WaitQueue.Closed:
                return
            if continuation is None:
                return
            self._run(continuation)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, method_id: str,
               func: Optional[Callable[..., Any]] = None, *args: Any,
               component: Any = None, caller: Any = None,
               timeout: Optional[float] = None, deadline: Any = None,
               wrap: Optional[Callable[[], Any]] = None,
               **kwargs: Any) -> CallFuture:
        """Run ``func(*args, **kwargs)`` as a fully moderated activation.

        The reactor analogue of :meth:`AspectModerator.moderate_call` /
        :meth:`ComponentProxy.call`: returns immediately with a
        :class:`CallFuture` that completes with the body's result, or
        with the same exception the threaded bracket would raise
        (:class:`MethodAborted`, :class:`ActivationTimeout`, aspect
        faults, contract violations, body exceptions).

        ``wrap`` is a zero-arg factory of a context manager entered
        around *every* segment run — thread-local ambience (trace
        propagation, serving context) must be re-established on
        whichever worker resumes a suffix.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        joinpoint = JoinPoint(
            method_id=method_id, component=component,
            args=args, kwargs=kwargs, caller=caller,
        )
        continuation = ActivationContinuation(
            self, method_id, joinpoint, func, args, kwargs, wrap,
            timeout, deadline,
        )
        self.submitted += 1
        self._dispatch(continuation)
        return continuation.future

    # ------------------------------------------------------------------
    # one call per runnable segment
    # ------------------------------------------------------------------
    def _run(self, continuation: ActivationContinuation) -> None:
        wrap = continuation.wrap
        with wrap() if wrap is not None else nullcontext():
            self._advance(continuation)

    def _advance(self, continuation: ActivationContinuation) -> None:
        """Advance a continuation until it suspends or completes.

        The first run is :meth:`AspectModerator.preactivation` with this
        continuation as the park strategy; a resumption re-enters the
        moderator's blocking loop at the next round. Either returns
        ``None`` when the continuation suspended again. Otherwise the
        invoke tail runs here, outside every moderator lock, as in
        :meth:`AspectModerator.guarded_call`.
        """
        moderator = self._moderator
        joinpoint = continuation.joinpoint
        method_id = continuation.method_id
        woke = continuation.woke
        try:
            if woke is None:
                outcome = moderator.preactivation(
                    method_id, joinpoint, timeout=continuation.timeout,
                    deadline=continuation.deadline, park=continuation,
                )
            else:
                outcome = moderator._blocking_rounds(
                    method_id, joinpoint,
                    moderator.plan_for(method_id)
                    if moderator.compile_plans else None,
                    continuation, continuation.deadline,
                    continuation.timeout, woke,
                )
            if outcome is None:
                return  # suspended; a wake or an expiry runs it again
            if outcome is AspectResult.ABORT:
                raise MethodAborted(
                    method_id,
                    concern=joinpoint.context.get("abort_concern"),
                )
            joinpoint.phase = Phase.INVOCATION
            try:
                if not joinpoint.invocation_skipped:
                    moderator.events.emit(
                        "invoke", method_id,
                        activation_id=joinpoint.activation_id,
                    )
                    if continuation.func is not None:
                        joinpoint.result = continuation.func(
                            *continuation.args, **continuation.kwargs
                        )
            except BaseException as exc:
                joinpoint.exception = exc
                raise
            finally:
                moderator.postactivation(method_id, joinpoint)
        except BaseException as exc:  # noqa: BLE001 - routed to future
            self._finish(continuation, None, exc)
            return
        self._finish(continuation, joinpoint.result, None)

    def _finish(self, continuation: ActivationContinuation,
                value: Any, exc: Optional[BaseException]) -> None:
        self.completed += 1
        if exc is not None:
            continuation.future.set_exception(exc)
        else:
            continuation.future.set_result(value)

    # ------------------------------------------------------------------
    # wake routing (called by the moderator's notify sites)
    # ------------------------------------------------------------------
    def wake(self, targets: Optional[Set[str]] = None) -> None:
        """Re-enqueue parked continuations (all, or of target methods).

        The reactor counterpart of ``LockDomain.notify_all``: the
        moderator calls it from every site that notifies domain queues
        (two-phase post-activation wake, explicit ``notify``, domain
        moves). Spurious wakes are safe — a re-enqueued continuation
        just re-evaluates its round and re-parks.
        """
        with self._lock:
            if not self._parked:
                return
            if targets is None:
                woken = list(self._parked.values())
                self._parked.clear()
            else:
                woken = [
                    continuation
                    for continuation in self._parked.values()
                    if continuation.method_id in targets
                ]
                for continuation in woken:
                    del self._parked[continuation.joinpoint.activation_id]
            for continuation in woken:
                continuation.woke = WOKEN
        for continuation in woken:
            self._dispatch(continuation)

    # ------------------------------------------------------------------
    # deadline expiry
    # ------------------------------------------------------------------
    def _schedule_expiry(self, continuation: ActivationContinuation) -> None:
        activation_id = continuation.joinpoint.activation_id
        expires_at = continuation.deadline
        if self._engine is not None:
            self._engine.call_at(
                expires_at, lambda: self._expire(activation_id),
                label=f"deadline {continuation.method_id}",
            )
            return
        with self._timer_cond:
            heapq.heappush(self._timer_heap, (expires_at, activation_id))
            if self._timer_thread is None:
                self._timer_thread = threading.Thread(
                    target=self._timer_loop, name="reactor-timer",
                    daemon=True,
                )
                self._timer_thread.start()
            self._timer_cond.notify()

    def _timer_loop(self) -> None:
        while True:
            with self._timer_cond:
                if self._closed:
                    return
                if not self._timer_heap:
                    self._timer_cond.wait()
                    continue
                expires_at, activation_id = self._timer_heap[0]
                delay = expires_at - time.monotonic()
                if delay > 0:
                    self._timer_cond.wait(delay)
                    continue
                heapq.heappop(self._timer_heap)
            self._expire(activation_id)

    def _expire(self, activation_id: int) -> None:
        """Deadline fired: re-enqueue for the final round, if still parked.

        Idempotent against wakes — whoever pops the parked entry owns
        the next run; a stale timer for a woken (or completed)
        activation is a no-op.
        """
        with self._lock:
            continuation = self._parked.pop(activation_id, None)
            if continuation is None:
                return
            continuation.woke = TIMED_OUT
        self._dispatch(continuation)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def parked_count(self) -> int:
        return len(self._parked)

    def close(self) -> None:
        """Stop workers and the timer; fail every parked call.

        Each parked continuation's future fails with the
        ``RuntimeError`` that :meth:`submit` raises once closed, and its
        waiter slot and parked registration on the moderator are
        released. A continuation still running parks into a closed
        runtime and fails the same way.
        """
        moderator = self._moderator
        # _waiter_guard before the runtime lock: claiming a continuation
        # and dropping its parked registration are one step to readers
        # of the registry
        with moderator._waiter_guard:
            with self._lock:
                if self._closed:
                    return
                self._closed = True
                stranded = list(self._parked.values())
                self._parked.clear()
            for continuation in stranded:
                moderator._waiters -= 1
                moderator._parked -= 1
                del moderator._parked_info[
                    continuation.joinpoint.activation_id
                ]
        with self._timer_cond:
            self._timer_heap.clear()
            self._timer_cond.notify_all()
        for continuation in stranded:
            self._finish(continuation, None,
                         RuntimeError("runtime is closed"))
        if self._ready is not None:
            for _ in self._threads:
                self._ready.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)
        moderator.detach_runtime(self)

    def __enter__(self) -> "ContinuationRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ContinuationRuntime parked={len(self._parked)} "
            f"submitted={self.submitted} completed={self.completed} "
            f"{'engine' if self._engine is not None else 'threaded'}>"
        )
