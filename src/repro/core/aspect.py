"""Aspect abstractions: the ``AspectIF`` of the paper, in Python.

Every aspect object implements ``precondition()`` and ``postaction()``
(paper Figure 7: ``OpenSynchronizationAspect``). Aspects are first-class
values ("aspect objects are first class abstractions (values)",
Section 5.1.2): they can be stored in the aspect bank, passed around,
shared between methods, and swapped at runtime.

This module provides:

* :class:`Aspect` — the abstract base class (``AspectIF``),
* :class:`FunctionAspect` — adapts plain callables into aspects,
* :class:`StatefulAspect` — base class with a per-aspect lock for aspects
  that maintain mutable synchronization counters,
* :class:`NullAspect` — the do-nothing aspect (useful default / testing),
* :func:`as_aspect` — coercion helper used throughout the framework.
"""

from __future__ import annotations

import abc
import threading
from typing import Any, Callable, Optional, Tuple

from .joinpoint import JoinPoint
from .results import AspectResult

#: Signature of a precondition callable: JoinPoint -> AspectResult | bool | None
PreconditionFn = Callable[[JoinPoint], Any]
#: Signature of a postaction callable: JoinPoint -> None
PostactionFn = Callable[[JoinPoint], Any]


def _coerce_result(value: Any) -> AspectResult:
    """Map loose precondition return values onto :class:`AspectResult`.

    Accepts an ``AspectResult`` directly, a boolean (``True`` -> RESUME,
    ``False`` -> BLOCK, matching the paper's "if the shared object is not
    full then return true else return blocked"), or ``None`` (-> RESUME,
    for preconditions that only raise on failure).
    """
    if isinstance(value, AspectResult):
        return value
    if value is None or value is True:
        return AspectResult.RESUME
    if value is False:
        return AspectResult.BLOCK
    raise TypeError(
        f"precondition returned {value!r}; expected AspectResult, bool or None"
    )


class Aspect(abc.ABC):
    """Interface of the objects the aspect factory creates (``AspectIF``).

    Subclasses override :meth:`precondition` and/or :meth:`postaction`.
    The default precondition is RESUME and the default postaction is a
    no-op, so one-sided aspects (pure loggers, pure guards) only override
    what they need.
    """

    #: Concern label ("Sync", "Authenticate", ...) — informational; the
    #: authoritative binding is the bank registration.
    concern: str = "aspect"

    #: Contract flag: ``True`` promises that :meth:`precondition` never
    #: returns BLOCK *and* that :meth:`postaction` never enables another
    #: method's blocked precondition. Methods whose entire chain carries
    #: the promise moderate on a lock-free fast path (no wait queue, no
    #: domain lock). Observers (timing, audit), caches and pure guards
    #: (which may ABORT but never BLOCK) qualify; synchronization,
    #: scheduling and rate-limiting aspects do not.
    never_blocks: bool = False

    #: Quarantine policy applied when this aspect keeps *raising* out of
    #: protocol phases (a contract violation — see ``repro.core.health``):
    #: ``"fail_open"`` skips the degraded aspect (observers: audit,
    #: timing), ``"fail_closed"`` ABORTs activations instead of admitting
    #: them unguarded (guards: auth, sync), ``None`` (default) never
    #: quarantines — every fault propagates, the aspect stays in the
    #: chain. Overridable per registration via ``fault_policy=``.
    fault_policy: Optional[str] = None

    #: Faults tolerated before quarantine kicks in; ``None`` defers to
    #: the moderator's default threshold.
    fault_threshold: Optional[int] = None

    #: Optional shared lock-domain name. Aspects that mutate state shared
    #: across several methods *without their own lock* set this (or pass
    #: ``lock_domain=`` at registration) so every method they guard
    #: moderates under one lock, preserving the atomicity a single
    #: moderator-wide monitor used to give them. Aspects with their own
    #: lock (:class:`StatefulAspect`) don't need it.
    lock_domain: Optional[str] = None

    # -- profiler declarations (consumed by ``repro.obs.profile``) -----
    # All four default to the conservative "no" and are ignored unless a
    # ClauseProfiler is installed on the moderator, so undeclared aspects
    # and profiler-less deployments behave exactly as before.

    #: Concern labels this aspect's *precondition* commutes with: the
    #: composed outcome (votes, component state, compensation debt) is
    #: the same whichever of the two evaluates first. ``"*"`` (or a
    #: collection containing it) declares commutativity with any other
    #: aspect that declares back. Reordering is mutual: a profiler only
    #: swaps two adjacent cells when *each* names the other (or ``"*"``)
    #: — one-sided declarations reorder nothing.
    commutes_with: Tuple[str, ...] = ()

    #: ``True`` promises the precondition is a pure function of the join
    #: point and observable state — no side effects, so a cached RESUME
    #: may stand in for a re-evaluation and ``on_abort`` owes nothing
    #: for it. Only RESUME votes are ever memoized (a BLOCK must re-poll
    #: the condition it waits on; an ABORT may depend on per-call data).
    idempotent_precondition: bool = False

    #: Cache-key function for memoized preconditions: ``cache_key(jp)``
    #: returns a hashable key identifying the decision's inputs (the
    #: ouroboros pattern: the strategy owns its key). ``None`` disables
    #: memoization even when ``idempotent_precondition`` is declared. A
    #: *raising* key function follows the cell's quarantine policy:
    #: ``fail_closed`` cells propagate it as an :class:`AspectFault`,
    #: anything else bypasses the cache and evaluates normally.
    cache_key: Optional[Callable[[JoinPoint], Any]] = None

    #: ``True`` declares this aspect a pure observer: its precondition
    #: always RESUMEs without side effects and its postaction never
    #: affects any other activation's outcome. A profiler running with
    #: ``skip_analysis`` elides such cells from compiled plans entirely
    #: (the hot-path escape); requires ``never_blocks``.
    pure_observer: bool = False

    def precondition(self, joinpoint: JoinPoint) -> AspectResult:
        """Evaluate this aspect's constraint before the method runs.

        Called during pre-activation (paper Figure 11). Must be free of
        side effects that cannot be compensated by :meth:`on_abort`,
        because a later aspect in the chain may still ABORT the
        activation.
        """
        return AspectResult.RESUME

    def postaction(self, joinpoint: JoinPoint) -> None:
        """Update aspect state after the method has run (post-activation)."""

    def on_abort(self, joinpoint: JoinPoint) -> None:
        """Compensate a RESUMEd precondition when a later aspect aborts.

        The paper's listings do not undo earlier preconditions on abort
        (its sync preconditions mutate counters before returning, Figure
        7) — a latent bug in the original design. The framework closes it:
        when aspect *k* of the chain aborts, ``on_abort`` is invoked on
        aspects ``0..k-1`` in reverse order.
        """

    def evaluate_precondition(self, joinpoint: JoinPoint) -> AspectResult:
        """Call :meth:`precondition` and normalize its result."""
        result = self.precondition(joinpoint)
        # An AspectResult needs no coercion: skip the call per aspect.
        if result.__class__ is AspectResult:
            return result
        return _coerce_result(result)

    def describe(self) -> str:
        """Human-readable identity used in traces."""
        return f"{type(self).__name__}({self.concern})"


class NullAspect(Aspect):
    """An aspect with no constraints and no state. Always RESUMEs."""

    concern = "null"
    never_blocks = True


class FunctionAspect(Aspect):
    """Adapts plain callables into an :class:`Aspect`.

    Example::

        timing = FunctionAspect(
            concern="timing",
            precondition=lambda jp: jp.context.setdefault("t0", time.time()),
            postaction=lambda jp: print(time.time() - jp.context["t0"]),
        )
    """

    def __init__(
        self,
        concern: str = "function",
        precondition: Optional[PreconditionFn] = None,
        postaction: Optional[PostactionFn] = None,
        on_abort: Optional[PostactionFn] = None,
        never_blocks: bool = False,
        lock_domain: Optional[str] = None,
        fault_policy: Optional[str] = None,
        fault_threshold: Optional[int] = None,
        commutes_with: Tuple[str, ...] = (),
        idempotent_precondition: bool = False,
        cache_key: Optional[Callable[[JoinPoint], Any]] = None,
        pure_observer: bool = False,
    ) -> None:
        self.concern = concern
        self._precondition = precondition
        self._postaction = postaction
        self._on_abort = on_abort
        self.never_blocks = never_blocks
        self.lock_domain = lock_domain
        self.fault_policy = fault_policy
        self.fault_threshold = fault_threshold
        self.commutes_with = tuple(commutes_with)
        self.idempotent_precondition = idempotent_precondition
        if cache_key is not None:
            self.cache_key = cache_key
        self.pure_observer = pure_observer

    def precondition(self, joinpoint: JoinPoint) -> AspectResult:
        if self._precondition is None:
            return AspectResult.RESUME
        result = self._precondition(joinpoint)
        if result.__class__ is AspectResult:
            return result
        return _coerce_result(result)

    def postaction(self, joinpoint: JoinPoint) -> None:
        if self._postaction is not None:
            self._postaction(joinpoint)

    def on_abort(self, joinpoint: JoinPoint) -> None:
        if self._on_abort is not None:
            self._on_abort(joinpoint)


class StatefulAspect(Aspect):
    """Base class for aspects with mutable state shared across threads.

    Provides ``self._lock``, an RLock guarding the aspect's counters. The
    moderator already serializes pre-activations per (method, concern)
    wait queue, but one aspect instance may guard *several* methods
    (e.g. one ``BoundedBufferSync`` guarding both ``put`` and ``take``),
    in which case its own lock is what keeps the counters consistent.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()

    def snapshot(self) -> dict:
        """Return a copy of the aspect's public state for inspection/tests."""
        with self._lock:
            return {
                key: value
                for key, value in vars(self).items()
                if not key.startswith("_")
            }


def as_aspect(obj: Any, concern: str = "function") -> Aspect:
    """Coerce ``obj`` into an :class:`Aspect`.

    Accepts an existing aspect (returned unchanged), a callable (treated
    as a precondition), or a ``(precondition, postaction)`` tuple of
    callables.
    """
    if isinstance(obj, Aspect):
        return obj
    if callable(obj):
        return FunctionAspect(concern=concern, precondition=obj)
    if isinstance(obj, tuple) and len(obj) == 2:
        pre, post = obj
        return FunctionAspect(concern=concern, precondition=pre, postaction=post)
    raise TypeError(f"cannot interpret {obj!r} as an aspect")
