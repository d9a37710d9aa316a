"""The aspect moderator: coordinator of functional and aspectual behaviour.

Paper, Section 4.2 / 5.2: upon a message reception that involves a
participating method, the proxy delegates to the moderator, which

1. evaluates the *pre-activation* phase — calling ``precondition()`` of
   every required aspect in composition order; BLOCK parks the caller on
   the method's wait queue inside a re-evaluation loop (Figure 11's
   ``while (result == BLOCKED) wait()``), ABORT rejects the activation;
2. after the method executes, evaluates the *post-activation* phase —
   calling ``postaction()`` of the aspects in reverse order and notifying
   wait queues so blocked activations re-evaluate (Figure 11's
   ``notify()``).

Concurrency design
------------------

The paper synchronizes each phase on a *per-method* Java monitor. The
framework reproduces exactly that via **lock domains**
(:class:`~repro.concurrency.primitives.LockDomain`): every participating
method is assigned to a domain holding one lock and one condition queue
per method. Three regimes coexist:

* **striped (default)** — each method gets a private domain, so the
  precondition chains of unrelated methods (say ``open`` and ``assign``)
  evaluate concurrently. Within one method, rounds stay atomic: an
  activation observes and mutates aspect state atomically with respect
  to every other activation *of the same method*. Aspects whose state
  spans several methods must either carry their own lock
  (:class:`~repro.core.aspect.StatefulAspect` does) or opt into…
* **shared domains (opt-in)** — registering an aspect with a
  ``lock_domain`` (parameter or aspect attribute) places its method in
  that named domain. All methods of one domain moderate under a single
  lock, restoring the seed's moderator-wide monitor for exactly the
  group that needs it — e.g. paper-style sync aspects that mutate a
  shared counter in ``precondition()`` without any lock of their own.
* **lock-free fast path** — when every aspect in a method's chain
  declares ``never_blocks = True`` (timing, audit, caching, validation:
  aspects that may RESUME or ABORT but never BLOCK, and whose
  postactions never enable another method's blocked precondition), the
  moderator skips the condition machinery entirely: no domain lock is
  taken for either phase. Completions on the fast path still perform a
  wake when (and only when) some activation is parked anywhere on the
  moderator, so a mixed deployment cannot lose wakeups.

Post-activation uses a **two-phase wake**: postactions run under the
method's own domain lock, which is then *released* before any queue is
notified. Each target queue is notified under its own lock, so a
completion of ``open`` can wake waiters of ``assign`` across domains
without ever holding two domain locks at once — no lock-order cycles by
construction. A waiter cannot miss such a wake: it evaluates and parks
while continuously holding its own domain lock, which the notifier must
acquire, so the notification is always ordered after the park.

The functional method itself always runs *outside* every moderator lock
— only moderation is serialized, and only per domain.

Fix over the paper: the published listings mutate synchronization
counters inside ``precondition()`` but never undo them when a *later*
aspect in the chain blocks or aborts. The moderator closes that hole by
invoking ``on_abort()`` on already-RESUMEd aspects, in reverse order,
before waiting or aborting. A second repair: when a timeout expires
while an activation is parked, the chain is re-evaluated one final time
before :class:`ActivationTimeout` is raised, so a notification that
races the deadline is honoured rather than dropped.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.concurrency.primitives import LockDomain
from repro.obs.metrics import MetricsRegistry

from .aspect import Aspect
from .bank import AspectBank
from .errors import (
    ActivationTimeout,
    AspectFault,
    CompositionErrors,
    ContractViolation,
    MethodAborted,
    RegistrationError,
)
from .events import EventBus
from .health import FAIL_CLOSED, FAIL_OPEN, HealthTracker
from .joinpoint import SKIP_INVOCATION_KEY, JoinPoint
from .ordering import OrderingPolicy, registration_order
from .plan import ActivationPlan, compile_plan
from .results import AspectResult, Phase

#: context key under which the RESUMEd chain is stashed between phases
CHAIN_KEY = "__moderation_chain__"

#: context key under which an activation's contract runner is stashed
#: between phases; must match ``repro.contracts.CONTRACT_KEY`` (the
#: literal is duplicated so the core never imports the contracts
#: package — contracts-off deployments pay no import, and no cycle)
CONTRACT_KEY = "__contract_runner__"

#: prefix of the private (per-method) lock-domain namespace; user-chosen
#: shared domain names never collide with it
_PRIVATE_DOMAIN_PREFIX = "~method:"

#: what a park strategy's step reports (see :class:`WaitInPlace`)
WOKEN = "woken"
TIMED_OUT = "timed_out"
SUSPENDED = "suspended"


class WaitInPlace:
    """The threaded park strategy: Figure 11's ``wait()``, in place.

    A park strategy is the one step of the blocking loop
    (:meth:`AspectModerator._blocking_rounds`) that differs between
    runtimes: what happens once a round has BLOCKed, the wake-epoch
    re-check has passed and the activation is registered as parked.
    ``park(queue, expires_at, timeout)`` returns ``WOKEN``,
    ``TIMED_OUT`` or ``SUSPENDED``; ``clock()`` is the time base of
    deadlines and park stamps. This one waits on the method's condition
    queue, holding the calling thread, and never suspends. The other is
    :class:`repro.core.continuation.ActivationContinuation`.
    """

    __slots__ = ()

    clock = staticmethod(time.monotonic)

    @staticmethod
    def park(queue: Any, expires_at: Optional[float],
             timeout: Optional[float]) -> str:
        if expires_at is None:
            queue.wait()
            return WOKEN
        remaining = expires_at - time.monotonic()
        if remaining <= 0 or not queue.wait(remaining):
            return TIMED_OUT
        return WOKEN


WAIT_IN_PLACE = WaitInPlace()


#: the moderation counters, in their historical declaration order
STAT_NAMES: Tuple[str, ...] = (
    "preactivations", "resumes", "blocks", "aborts", "waits", "wakeups",
    "postactivations", "notifications", "compensations", "fastpaths",
    "faults", "quarantines", "reinstatements", "degraded_skips",
    "plan_compiles", "contract_violations",
)


class ModerationStats:
    """Aggregate counters maintained by a moderator.

    Backed by a thread-striped :class:`~repro.obs.metrics.MetricsRegistry`
    rather than one global lock: :meth:`bump` touches only the calling
    thread's stripe, whose lock no other writer ever contends — so the
    lock-free ``never_blocks`` fast path no longer serializes every
    method's activations on a single cross-method lock (the last such
    point after PR 1 striped the moderation locks themselves).

    Counters remain readable as plain attributes (``stats.resumes``) and
    :meth:`as_dict` remains a *consistent* snapshot: the merge holds all
    stripe locks at once, so a multi-counter bump is never observed torn.
    """

    __slots__ = ("registry", "_block", "compile_seconds", "keys", "local")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._block = self.registry.counter_block(
            STAT_NAMES, prefix="repro_moderation_"
        )
        #: the activation driver's bump: ``stats.local.cells[stats.keys[
        #: name]] += 1`` writes this thread's stripe directly, with no
        #: call instead of three frames per counter
        self.keys = self._block.keys
        self.local = self._block.local
        #: plan-compilation latency histogram (seconds). Recorded on the
        #: registry, *not* the event bus: compiled and interpreted runs
        #: must keep byte-identical event streams (the differential
        #: suite's contract), and only compiled runs compile.
        self.compile_seconds = self.registry.histogram(
            "repro_plan_compile_seconds",
            help="Activation-plan compilation latency in seconds",
        ).labels()

    def bump(self, *names: str, amount: int = 1) -> None:
        """Increment each named counter by ``amount``, as one atomic cut."""
        self._block.bump(*names, amount=amount)

    def __getattr__(self, name: str) -> int:
        if name in STAT_NAMES:
            return int(self._block.value(name))
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def as_dict(self) -> Dict[str, int]:
        """Consistent snapshot of every counter (all stripes, one cut)."""
        return self._block.as_dict()


class AspectModerator:
    """Evaluates and coordinates the aspects of participating methods.

    Mirrors the paper's ``AspectModerator`` class (Figure 12):
    ``registeraspect`` / ``preactivation`` / ``postactivation``, backed by
    the two-dimensional aspect bank.

    Args:
        bank: aspect registry; a fresh :class:`AspectBank` by default.
        ordering: composition-order policy applied to each activation.
        events: protocol event bus; a fresh :class:`EventBus` by default.
        default_timeout: optional bound, in seconds, on how long a
            BLOCKed activation may wait before :class:`ActivationTimeout`
            (``None`` reproduces the paper's unbounded wait).
        notify_scope: wakeup policy after post-activation — see below.
        fault_threshold: default number of aspect faults tolerated per
            (method, concern) cell before its quarantine policy (if any)
            kicks in; overridable per registration or per aspect.
        compile_plans: when True (the default), activations execute
            compiled :class:`~repro.core.plan.ActivationPlan` pipelines,
            cached under a composite revision key and recompiled only
            when a registration, ordering, lock-domain, quarantine or
            injector change invalidates them. ``False`` restores the
            paper's per-call interpreter — observably identical (the
            differential suite proves it), only slower; kept as the
            reference implementation.
    """

    def __init__(
        self,
        bank: Optional[AspectBank] = None,
        ordering: OrderingPolicy = registration_order,
        events: Optional[EventBus] = None,
        default_timeout: Optional[float] = None,
        notify_scope: str = "all",
        fault_threshold: int = 3,
        compile_plans: bool = True,
    ) -> None:
        if notify_scope not in ("all", "linked"):
            raise ValueError("notify_scope must be 'all' or 'linked'")
        self.bank = bank if bank is not None else AspectBank()
        self.events = events if events is not None else EventBus()
        #: epoch components of the composite plan-revision key; bumped
        #: under ``_lock`` by the property setters / mutators below.
        #: Bare reads are atomic ints — see :meth:`_composition_key`.
        self._domain_epoch = 0
        self._injector_epoch = 0
        self._ordering_epoch = 0
        self._contract_epoch = 0
        self._profile_epoch = 0
        #: installed clause profiler (``repro.obs.profile``), or ``None``
        #: — plans compile uninstrumented and the hot path pays nothing
        self._profiler = None
        #: compiled-plan cache: method_id -> ActivationPlan. Plain-dict
        #: reads are GIL-atomic; writes race benignly (equivalent plans,
        #: last one wins).
        self._plans: Dict[str, ActivationPlan] = {}
        self.compile_plans = compile_plans
        self.ordering = ordering
        self.default_timeout = default_timeout
        #: wakeup policy after post-activation: ``"all"`` notifies every
        #: method queue (the paper's conservative behaviour, absorbed by
        #: re-evaluation); ``"linked"`` notifies only methods sharing at
        #: least one aspect instance (or state holder, or lock domain)
        #: with the completed method — fewer spurious wakeups, same
        #: safety, measured in bench A-ABL.
        self.notify_scope = notify_scope
        self.stats = ModerationStats()
        #: per-(method, concern) fault accounting and quarantine state
        self.health = HealthTracker(default_threshold=fault_threshold)
        #: deterministic fault-injection hook (``repro.faults``); ``None``
        #: in production — the hot path pays one attribute read for it
        self.fault_injector = None
        #: contract registry (``repro.contracts``); ``None`` keeps every
        #: moderation path byte-for-byte the legacy one — the seams are
        #: single ``is not None`` checks, and compiled fast-path methods
        #: pay nothing at all (contract methods compile off fast_cells)
        self.contracts = None
        #: registry lock: guards the domain maps and the linkage cache,
        #: never held while moderating or notifying a foreign domain.
        self._lock = threading.RLock()
        self._domains: Dict[str, LockDomain] = {}
        #: explicit shared-domain assignments (method_id -> domain name);
        #: methods absent here use their private per-method domain
        self._method_domains: Dict[str, str] = {}
        self._links: Optional[Dict[str, set]] = None
        self._links_revision = -1
        #: number of activations currently inside the blocking slow path;
        #: fast-path completions consult it to decide whether a wake is
        #: needed at all (see :meth:`postactivation`)
        self._waiters = 0
        #: number of activations parked — threads in ``Condition.wait``
        #: and suspended continuations alike — and the wake epoch pairing
        #: with it: a completion bumps the epoch and reads the count
        #: atomically, a blocker re-checks the epoch atomically before
        #: parking — together they let :meth:`_wake` skip touching any
        #: domain lock when nothing is parked, without losing a wakeup
        self._parked = 0
        self._wake_epoch = 0
        self._waiter_guard = threading.Lock()
        #: activation_id -> (method_id, parked_since) for every parked
        #: activation, counted in ``_parked`` — the stall watchdog's
        #: window into the moderator (guarded by ``_waiter_guard``)
        self._parked_info: Dict[int, Tuple[str, float]] = {}
        #: attached continuation runtime
        #: (:class:`repro.core.continuation.ContinuationRuntime`), or
        #: ``None``. When attached, every site that notifies domain
        #: queues also routes the wake into the reactor's ready queue,
        #: so suspended continuations re-evaluate exactly when
        #: thread-parked ones would. One attribute read on wake paths;
        #: the moderation hot path itself never consults it.
        self._runtime = None

    # ------------------------------------------------------------------
    # revisioned collaborators (plan-key components)
    # ------------------------------------------------------------------
    @property
    def ordering(self) -> OrderingPolicy:
        """Composition-order policy; swapping it invalidates every plan."""
        return self._ordering

    @ordering.setter
    def ordering(self, policy: OrderingPolicy) -> None:
        self._ordering = policy
        # Unlocked bump: ordering swaps are control-plane operations; a
        # racing pair still moves the epoch past every compiled key.
        self._ordering_epoch += 1

    @property
    def fault_injector(self) -> Optional[Any]:
        """Installed fault injector (``repro.faults``), or ``None``.

        Assigning (what :meth:`FaultInjector.install` does) bumps the
        injector epoch: plans compiled without site hooks must not
        survive an injector arming, and vice versa.
        """
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector: Optional[Any]) -> None:
        self._fault_injector = injector
        self._injector_epoch += 1

    @property
    def contracts(self) -> Optional[Any]:
        """Installed contract registry (``repro.contracts``), or ``None``.

        Assigning (what :meth:`ContractRegistry.install` does, and what
        the registry re-does on every :meth:`~ContractRegistry.declare`)
        bumps the contract epoch: plans compiled without check-point
        seams must not survive a contract arming, and vice versa.
        """
        return self._contracts

    @contracts.setter
    def contracts(self, registry: Optional[Any]) -> None:
        self._contracts = registry
        self._contract_epoch += 1

    @property
    def profiler(self) -> Optional[Any]:
        """Installed clause profiler (``repro.obs.profile``), or ``None``.

        Assigning (what :meth:`ClauseProfiler.install` does) bumps the
        profile epoch: plans compiled uninstrumented must not survive a
        profiler arming, and instrumented/optimized plans must not
        survive its removal.
        """
        return self._profiler

    @profiler.setter
    def profiler(self, profiler: Optional[Any]) -> None:
        self._profiler = profiler
        self._profile_epoch += 1

    def bump_profile_epoch(self) -> None:
        """Invalidate every plan against a refreshed clause profile.

        Called by :meth:`ClauseProfiler.refresh` after it folds live
        counters into a new decision snapshot — cached plans recompile
        (and re-optimize) on their next activation, through the same
        revision mechanism every other mutation family uses.
        """
        self._profile_epoch += 1

    # ------------------------------------------------------------------
    # plan compilation (interpreter -> compiled pipeline)
    # ------------------------------------------------------------------
    def _composition_key(self) -> Tuple[int, int, int, int, int, int, int]:
        """Composite revision key every compiled plan is cached under.

        One component per mutation family — bank registrations/ordering
        (``register``/``unregister``/``swap``/``set_order``), explicit
        lock-domain moves, quarantine transitions, injector arming,
        ordering-policy swaps, contract declarations/arming, and clause-
        profile refreshes — so each invalidates exactly by bumping its
        own counter. All seven are monotonic ints read without locks; a
        stale component only delays revalidation by one call.
        """
        return (
            self.bank._revision,  # the property's read, minus a frame
            self._domain_epoch,
            self.health.epoch,
            self._injector_epoch,
            self._ordering_epoch,
            self._contract_epoch,
            self._profile_epoch,
        )

    def plan_for(self, method_id: str) -> ActivationPlan:
        """The current compiled plan for ``method_id`` (cached).

        Revalidation is a dict probe plus an int-tuple compare; a plan
        is recompiled only when some component of the composition key
        moved. Usable regardless of :attr:`compile_plans` — compilation
        is pure, so introspection (``explain()``, diagrams, lint) works
        even on an interpreting moderator.
        """
        key = self._composition_key()
        plan = self._plans.get(method_id)
        if plan is not None and plan.key == key:
            return plan
        return self._compile_plan(method_id, key)

    def _compile_plan(self, method_id: str,
                      key: Tuple[int, ...]) -> ActivationPlan:
        """Compile and cache one method's plan under ``key``.

        The key is captured *before* the constituents are read: if a
        registration lands mid-compile, the stored plan's key no longer
        matches and the very next :meth:`plan_for` recompiles — a torn
        build can be executed for at most one round, the same staleness
        window the interpreter's unlocked bank/health reads always had.
        """
        started = time.monotonic()
        _revision, raw_pairs = self.bank.snapshot_for(method_id)
        policy = self._ordering
        resolve = getattr(policy, "compile", None)
        pairs = resolve(method_id, raw_pairs) if resolve is not None \
            else policy(method_id, raw_pairs)
        profiler = self._profiler
        profile_info = None
        if profiler is not None:
            # Profile feedback composes *after* the ordering policy: the
            # policy states intent, the profiler only permutes within
            # runs the aspects themselves declared commutative (and
            # elides declared-pure observers).
            pairs, profile_info = profiler.plan_pairs(method_id, pairs)
        registry = self._contracts
        plan = compile_plan(
            method_id, pairs, key, self._domain_for(method_id),
            self.health, self._fault_injector,
            getattr(policy, "__name__", type(policy).__name__),
            registry.contract_for(method_id)
            if registry is not None else None,
            profile=profile_info,
        )
        if profiler is not None:
            profiler.instrument(plan)
        plan.compile_seconds = time.monotonic() - started
        self._plans[method_id] = plan
        self.stats.bump("plan_compiles")
        self.stats.compile_seconds.observe(plan.compile_seconds)
        return plan

    def explain(self, method_id: Optional[str] = None) -> Any:
        """Compiled-contract report(s): one method's, or all methods'."""
        if method_id is not None:
            return self.plan_for(method_id).explain()
        return {
            method: self.plan_for(method).explain()
            for method in self.bank.methods()
        }

    # ------------------------------------------------------------------
    # runtime selection (threaded reference vs. continuation reactor)
    # ------------------------------------------------------------------
    def attach_runtime(self, runtime: Any) -> None:
        """Attach a continuation runtime, so wakes reach its parks.

        Called by :class:`repro.core.continuation.ContinuationRuntime`
        on construction. At most one runtime may be attached; threaded
        activations keep working unchanged alongside it (both park
        populations re-evaluate on every wake, and both register in the
        one parked table behind :meth:`parked_snapshot`).
        """
        if self._runtime is not None and self._runtime is not runtime:
            raise RegistrationError(
                "a continuation runtime is already attached"
            )
        self._runtime = runtime

    def detach_runtime(self, runtime: Any) -> None:
        """Detach ``runtime`` (no-op when it is not the attached one)."""
        if self._runtime is runtime:
            self._runtime = None

    # ------------------------------------------------------------------
    # registration (paper Figure 9)
    # ------------------------------------------------------------------
    def register_aspect(self, method_id: str, concern: str, aspect: Aspect,
                        replace: bool = False,
                        lock_domain: Optional[str] = None,
                        fault_policy: Optional[str] = None,
                        fault_threshold: Optional[int] = None) -> None:
        """Store a first-class aspect object for future reference.

        ``lock_domain`` (or, when omitted, the aspect's own
        ``lock_domain`` attribute) places ``method_id`` into a named
        shared lock domain; methods of one domain moderate under a
        single lock, which is what paper-style aspects that mutate
        shared counters without their own lock require. Conflicting
        explicit domains for one method raise
        :class:`RegistrationError`.

        ``fault_policy`` / ``fault_threshold`` (falling back to the
        aspect's own attributes) declare how the cell degrades when the
        aspect keeps raising out of protocol phases: ``"fail_open"``
        skips it, ``"fail_closed"`` ABORTs activations, ``None`` (the
        default) propagates every fault without ever quarantining.
        Registration — including a ``replace=True`` swap — resets the
        cell's fault history.
        """
        domain_name = (
            lock_domain if lock_domain is not None
            else getattr(aspect, "lock_domain", None)
        )
        policy = (
            fault_policy if fault_policy is not None
            else getattr(aspect, "fault_policy", None)
        )
        threshold = (
            fault_threshold if fault_threshold is not None
            else getattr(aspect, "fault_threshold", None)
        )
        moved_from: Optional[LockDomain] = None
        with self._lock:
            if domain_name is not None:
                current = self._method_domains.get(method_id)
                if current is not None and current != domain_name:
                    raise RegistrationError(
                        f"{method_id!r} is already in lock domain "
                        f"{current!r}; cannot also join {domain_name!r}"
                    )
            self.bank.register(method_id, concern, aspect, replace=replace)
            self.health.set_policy(method_id, concern, policy, threshold)
            self._links = None
            if domain_name is not None and \
                    method_id not in self._method_domains:
                self._method_domains[method_id] = domain_name
                self._domain_epoch += 1
                moved_from = self._domains.get(
                    _PRIVATE_DOMAIN_PREFIX + method_id
                )
        if moved_from is not None:
            # Waiters parked in the old private domain re-evaluate and
            # re-park under the shared one.
            moved_from.notify_all(method_id)
            if self._runtime is not None:
                self._runtime.wake({method_id})
        self.events.emit("register_aspect", method_id, concern,
                         detail=aspect.describe())
        if domain_name is not None:
            self.events.emit("lock_domain", method_id, detail=domain_name)

    def unregister_aspect(self, method_id: str, concern: str) -> Aspect:
        """Remove an aspect; wakes blocked activations to re-evaluate."""
        aspect = self.bank.unregister(method_id, concern)
        self.health.drop(method_id, concern)
        with self._lock:
            self._links = None
        self.notify()
        return aspect

    def reinstate_aspect(self, method_id: str, concern: str) -> bool:
        """Manually lift a cell's quarantine (operator intervention).

        Clears the fault count so the aspect gets a fresh allowance of
        ``fault_threshold`` faults, emits a ``reinstate`` event, and
        wakes parked activations — a formerly fail-closed guard may now
        admit them. Returns whether the cell was actually quarantined.
        Swapping a repaired aspect in via ``register_aspect(...,
        replace=True)`` resets health implicitly and is the other
        recovery path.
        """
        was_quarantined = self.health.reinstate(method_id, concern)
        if was_quarantined:
            if self._profiler is not None:
                # Stale-profile hygiene: statistics gathered while the
                # cell was sick must not order the healed composition.
                self._profiler.reset_cell(method_id, concern)
            self.stats.bump("reinstatements")
            self.events.emit("reinstate", method_id, concern)
            self.notify()
        return was_quarantined

    def aspect_health(self) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """Fault/quarantine records per (method, concern) with any faults."""
        return self.health.snapshot()

    def assign_lock_domain(self, lock_domain: Optional[str],
                           *method_ids: str) -> None:
        """Place ``method_ids`` into one shared lock domain.

        The explicit form of the ``lock_domain`` registration parameter:
        existing assignments are overwritten, and ``lock_domain=None``
        returns the methods to their private per-method domains (the
        striped default). Waiters parked under a previous domain are
        woken so they re-evaluate and re-park under the new one.
        """
        moved: List[Tuple[LockDomain, str]] = []
        with self._lock:
            for method_id in method_ids:
                old_name = self._method_domains.get(
                    method_id, _PRIVATE_DOMAIN_PREFIX + method_id
                )
                if lock_domain is None:
                    self._method_domains.pop(method_id, None)
                else:
                    self._method_domains[method_id] = lock_domain
                old = self._domains.get(old_name)
                if old is not None:
                    moved.append((old, method_id))
            self._domain_epoch += 1
            self._links = None
        for domain, method_id in moved:
            domain.notify_all(method_id)
        if moved and self._runtime is not None:
            self._runtime.wake({method_id for _, method_id in moved})
        for method_id in method_ids:
            self.events.emit("lock_domain", method_id,
                             detail=lock_domain or "")

    def lock_domain_of(self, method_id: str) -> str:
        """Name of the lock domain currently assigned to ``method_id``."""
        with self._lock:
            return self._method_domains.get(
                method_id, _PRIVATE_DOMAIN_PREFIX + method_id
            )

    @property
    def registration_version(self) -> int:
        """Monotonic epoch of the aspect composition.

        Proxies key their guarded-wrapper caches on this value. It is
        the sum of every plan-key component, so anything that
        invalidates a compiled plan — (un)registration (including
        direct bank mutation), lock-domain moves, quarantine
        transitions, injector arming, ordering swaps, contract
        declarations — also invalidates
        cached wrappers: a wrapper can never outlive the plan it was
        built against.
        """
        return (
            self.bank._revision + self._domain_epoch + self.health.epoch
            + self._injector_epoch + self._ordering_epoch
            + self._contract_epoch + self._profile_epoch
        )

    def participates(self, method_id: str) -> bool:
        """Whether calls to ``method_id`` must go through moderation.

        True when any aspect is registered for the method, or when an
        installed contract registry declares a contract on it — a
        contracted method with an empty aspect chain still needs the
        pre-/post-activation bracket for its entry and post-body check
        points.

        O(1) and lock-free: this probe runs on *every* attribute access
        of a dynamic proxy, participating or not, so it must not build a
        concern list (the previous implementation) or contend the bank
        lock just to answer yes/no.
        """
        if self.bank.has_method(method_id):
            return True
        contracts = self._contracts
        return (contracts is not None
                and contracts.contract_for(method_id) is not None)

    # ------------------------------------------------------------------
    # pre-activation (paper Figure 11 / 17)
    # ------------------------------------------------------------------
    def preactivation(
        self,
        method_id: str,
        joinpoint: Optional[JoinPoint] = None,
        timeout: Optional[float] = None,
        plan: Optional[ActivationPlan] = None,
        deadline: Any = None,
        park: Any = WAIT_IN_PLACE,
    ) -> Optional[AspectResult]:
        """Evaluate the pre-activation phase for one activation.

        Returns ``RESUME`` when every aspect's precondition holds (the
        proxy must then invoke the method and later call
        :meth:`postactivation` exactly once with the same join point),
        or ``ABORT`` when some aspect rejected the activation. ``BLOCK``
        is never returned: blocking is handled internally by waiting on
        the method's queue and re-evaluating, as in the paper.

        Raises :class:`ActivationTimeout` when a timeout (argument or
        moderator default) elapses while blocked — but only after one
        final re-evaluation of the chain, so a notification racing the
        deadline admits the activation instead of being dropped.

        ``plan`` lets callers that already hold a validated
        :class:`~repro.core.plan.ActivationPlan` skip the cache probe;
        without it — and with :attr:`compile_plans` on — the current
        plan is fetched here. With ``compile_plans`` off the paper's
        per-call interpreter runs instead.

        ``deadline`` is an optional end-to-end budget: an absolute
        monotonic time, or any object exposing ``expires_at`` (e.g.
        :class:`repro.dist.resilience.Deadline`). When it is nearer
        than the timeout-derived bound, BLOCK parks stop at the budget
        instead — a remote caller that has already given up never keeps
        an activation parked here.

        ``park`` is the park strategy (:class:`WaitInPlace`, waiting on
        the calling thread, by default). The continuation runtime passes
        its :class:`~repro.core.continuation.ActivationContinuation`,
        which suspends instead; this then returns ``None`` and a wake
        re-enters :meth:`_blocking_rounds`.

        This method is the pre side of the activation driver: one frame
        runs the entry bookkeeping and the lock-free round of a
        ``never_blocks`` chain; anything that may BLOCK runs Figure 11's
        loop, :meth:`_blocking_rounds`. Each round is one
        :meth:`_run_round` call.
        """
        if joinpoint is None:
            joinpoint = JoinPoint(method_id=method_id)
        joinpoint.phase = Phase.PRE_ACTIVATION
        events = self.events
        if events._listeners:
            events.emit("preactivation", method_id,
                        activation_id=joinpoint.activation_id)
        stats = self.stats
        stats.local.cells[stats.keys["preactivations"]] += 1

        if self._contracts is not None:
            # Entry check point: require clauses + entry invariants run
            # before any aspect — a failure blames the *caller* (the
            # activation was invalid on arrival; nothing to compensate).
            # Methods without a declared contract stash no runner and
            # pay nothing further.
            try:
                self._contracts.begin(method_id, joinpoint)
            except ContractViolation as violation:
                self._note_violation(violation, joinpoint)
                raise

        if self.compile_plans:
            if plan is None:
                plan = self.plan_for(method_id)
            never_blocks = plan.never_blocks
        else:
            never_blocks = all(
                aspect.never_blocks for _, aspect in self.ordering(
                    method_id, self.bank.aspects_for(method_id)
                )
            )
        if never_blocks:
            # Lock-free fast path: the chain has promised never to BLOCK,
            # so no wait queue — hence no lock — is needed.
            outcome = self._run_round(method_id, joinpoint, plan)
            if outcome is not AspectResult.BLOCK:
                if outcome is AspectResult.RESUME:
                    stats.local.cells[stats.keys["fastpaths"]] += 1
                return outcome
            # An aspect broke its never_blocks promise; fall through to
            # the locked path and moderate properly.

        effective_timeout = (
            timeout if timeout is not None else self.default_timeout
        )
        expires_at = (
            park.clock() + effective_timeout
            if effective_timeout is not None else None
        )
        budget = getattr(deadline, "expires_at", deadline)
        if budget is not None and (expires_at is None or budget < expires_at):
            expires_at = budget
            effective_timeout = max(0.0, budget - park.clock())
        return self._blocking_rounds(method_id, joinpoint, plan, park,
                                     expires_at, effective_timeout)

    def _blocking_rounds(
        self,
        method_id: str,
        joinpoint: JoinPoint,
        plan: Optional[ActivationPlan],
        park: Any,
        expires_at: Optional[float],
        timeout: Optional[float],
        woke: Optional[str] = None,
    ) -> Optional[AspectResult]:
        """Figure 11's ``while (result == BLOCKED) wait()``, for both runtimes.

        Runs rounds under the method's domain lock, revalidating the
        plan per round, until one does not BLOCK, and returns its
        outcome. A BLOCKed round re-checks the wake epoch and registers
        the activation in ``_parked``/``_parked_info`` — the one parked
        registry — then hands the rest to ``park.park``: a thread waits
        in place (:class:`WaitInPlace`); a continuation suspends, and
        this returns ``None`` with the worker free. A wake or an expiry
        of a suspended continuation re-enters here with ``woke`` set,
        at the next round.

        The activation holds a slot in ``_waiters`` from its first round
        to its last, across suspensions; every exit but a suspension
        gives back the slot and any parked registration.
        """
        guard = self._waiter_guard
        activation_id = joinpoint.activation_id
        compiled = self.compile_plans
        stats = self.stats
        events = self.events
        timed_out = False
        if woke is None:
            # Register in the moderator-wide waiter count for the whole
            # attempt, before the first round: fast-path completions skip
            # their wake only when this is zero, and a waiter that could
            # miss their state change is registered before it evaluates —
            # so the completion either precedes the evaluation (and is
            # seen) or follows the registration (and wakes).
            with guard:
                self._waiters += 1
        try:
            while True:
                if compiled:
                    lock = plan.domain.lock
                else:
                    domain = self._domain_for(method_id)
                    lock = domain.lock
                # The domain's RLock directly, not ``with Condition:``;
                # the queue is built on this lock, so waiting on it
                # releases this hold.
                with lock:
                    while True:
                        if woke is not None:
                            with guard:
                                self._parked -= 1
                                since = self._parked_info.pop(
                                    activation_id
                                )[1]
                            if woke is TIMED_OUT:
                                # Deadline passed while parked: one final
                                # round before giving up — a notify may
                                # have raced the timeout.
                                timed_out = True
                            else:
                                stats.bump("wakeups")
                                events.emit(
                                    "unblocked", method_id,
                                    activation_id=activation_id,
                                    # park duration, for blocked spans
                                    duration=park.clock() - since,
                                )
                            woke = None
                        # Bare read is safe: a stale value only makes the
                        # pre-park re-check conservatively re-evaluate.
                        epoch = self._wake_epoch
                        if compiled:
                            # Revalidate per round, exactly as the
                            # interpreter re-reads the bank per round.
                            # The domain epoch is a key component, so a
                            # domain move is caught here as well.
                            if plan.key != self._composition_key():
                                plan = self.plan_for(method_id)
                                if plan.domain.lock is not lock:
                                    break  # method changed domains
                            queue = plan._queue or plan.queue
                        elif self._domain_for(method_id) is not domain:
                            break  # method changed domains; re-acquire
                        else:
                            queue = domain.condition(method_id)
                        outcome = self._run_round(method_id, joinpoint,
                                                  plan)
                        if outcome is not AspectResult.BLOCK:
                            return outcome
                        if timed_out:
                            events.emit(
                                "timeout", method_id,
                                detail=f"{timeout}s",
                                activation_id=activation_id,
                            )
                            raise ActivationTimeout(method_id, timeout)
                        with guard:
                            raced = self._wake_epoch != epoch
                            if not raced:
                                self._parked += 1
                                self._parked_info[activation_id] = (
                                    method_id, park.clock()
                                )
                        if raced:
                            # A completion landed while this round was
                            # evaluating (its wake may have skipped the
                            # not-yet-parked activation): re-evaluate
                            # against the post-postaction state instead
                            # of parking on a notification already sent.
                            continue
                        stats.bump("waits")
                        woke = park.park(queue, expires_at, timeout)
                        if woke is SUSPENDED:
                            return None
        finally:
            if woke is not SUSPENDED:
                with guard:
                    self._waiters -= 1
                    # Left while registered (the park step raised).
                    if self._parked_info.pop(activation_id, None) \
                            is not None:
                        self._parked -= 1

    def _run_round(self, method_id: str, joinpoint: JoinPoint,
                   plan: Optional[ActivationPlan] = None) -> AspectResult:
        """One evaluation round, including compensation and bookkeeping.

        RESUME records the chain on the join point; ABORT and BLOCK
        compensate the RESUMEd prefix in reverse order first (see
        :meth:`_settle`).

        A plan with ``fast_cells`` (no quarantined cell, no armed
        injector, no contract) runs the driver's walk right here: a bare
        loop over pre-bound callables. A full RESUME stashes
        ``plan.pairs`` itself — zero allocations, and the identity token
        :meth:`postactivation` recognizes to take the compiled unwind —
        and a partial prefix is a slice of it. Any other plan runs the
        generic executor (:meth:`_evaluate_plan`), and no plan at all
        the interpreter (:meth:`_evaluate_chain`); both mirror the walk
        decision for decision and share its stash, stats, events and
        compensation, which is what keeps the paths observably
        identical.
        """
        if plan is not None and plan.fast_cells:
            events = self.events
            # Timing gates on listeners, exactly like event construction:
            # with nobody subscribed the walk makes no clock reads.
            listening = events._listeners
            index = 0
            for cell in plan.cells:
                began = time.monotonic() if listening else 0.0
                try:
                    result = cell.evaluate(joinpoint)
                except Exception as exc:  # noqa: BLE001 - contract violation
                    self._raise_precondition_fault(
                        method_id, cell.concern, exc,
                        list(plan.pairs[:index]), joinpoint,
                    )
                if listening:
                    events.emit(
                        "precondition", method_id, cell.concern,
                        detail=result.value,
                        activation_id=joinpoint.activation_id,
                        duration=time.monotonic() - began,
                    )
                if result is not AspectResult.RESUME:
                    return self._settle(method_id, joinpoint, result,
                                        list(plan.pairs[:index]),
                                        cell.concern)
                index += 1
            resumed = plan.pairs
        else:
            if plan is not None:
                outcome, resumed, failed_concern = self._evaluate_plan(
                    plan, joinpoint
                )
            else:
                outcome, resumed, failed_concern = self._evaluate_chain(
                    method_id, joinpoint
                )
            if outcome is not AspectResult.RESUME:
                return self._settle(method_id, joinpoint, outcome, resumed,
                                    failed_concern)
        joinpoint.context[CHAIN_KEY] = resumed
        stats = self.stats
        stats.local.cells[stats.keys["resumes"]] += 1
        return AspectResult.RESUME

    def _settle(self, method_id: str, joinpoint: JoinPoint,
                outcome: AspectResult, resumed: List[Tuple[str, Aspect]],
                failed_concern: Optional[str]) -> AspectResult:
        """Close a round that did not RESUME: compensate, count, report.

        Aspects distinguish the transient ``block`` round from a final
        ``abort`` via the compensation-reason context key. Compensation
        faults do not stop the unwind: every remaining aspect still
        compensates, and the collected faults raise afterwards
        (aggregated as :class:`CompositionErrors` when there are
        several).
        """
        joinpoint.context["__compensation__"] = outcome.value
        faults = self._compensate(resumed, joinpoint)
        joinpoint.context.pop("__compensation__", None)
        if outcome is AspectResult.ABORT:
            self.stats.bump("aborts")
            joinpoint.phase = Phase.ABORTED
            joinpoint.context["abort_concern"] = failed_concern
            self.events.emit(
                "abort", method_id, failed_concern or "",
                activation_id=joinpoint.activation_id,
            )
        else:
            self.stats.bump("blocks")
            self.events.emit(
                "blocked", method_id, failed_concern or "",
                activation_id=joinpoint.activation_id,
            )
        self._raise_faults(faults)
        return outcome

    def _raise_precondition_fault(self, method_id: str, concern: str,
                                  exc: Exception,
                                  resumed: List[Tuple[str, Aspect]],
                                  joinpoint: JoinPoint) -> None:
        """A *raising* precondition: account it, unwind, and raise.

        A raise is a contract violation, not a vote: the RESUMEd prefix
        is compensated (so no reservation leaks) and the error
        propagates wrapped in :class:`AspectFault`, together with any
        compensation faults.
        """
        fault = AspectFault(method_id, concern, "precondition", exc)
        self._note_fault(method_id, concern, "precondition", exc, joinpoint)
        joinpoint.context["__compensation__"] = "fault"
        comp_faults = self._compensate(resumed, joinpoint)
        joinpoint.context.pop("__compensation__", None)
        self._raise_faults([fault, *comp_faults])

    def _evaluate_chain(
        self, method_id: str, joinpoint: JoinPoint
    ) -> Tuple[AspectResult, List[Tuple[str, Aspect]], Optional[str]]:
        """Run one round of precondition evaluation (the interpreter).

        Returns ``(outcome, resumed_pairs, failed_concern)`` where
        ``resumed_pairs`` are the aspects that voted RESUME before the
        chain stopped (all of them when outcome is RESUME).

        A raising precondition goes to :meth:`_raise_precondition_fault`.
        Quarantined cells are handled before their aspect runs —
        ``fail_open`` skips the aspect, ``fail_closed`` turns the round
        into an ABORT attributed to the degraded concern.
        """
        pairs = self.ordering(method_id, self.bank.aspects_for(method_id))
        resumed: List[Tuple[str, Aspect]] = []
        quarantine_active = self.health.active
        injector = self.fault_injector
        runner = (
            joinpoint.context.get(CONTRACT_KEY)
            if self._contracts is not None else None
        )
        if runner is not None:
            # Contract check points anchor to the round that finally
            # RESUMEs: parked rounds legitimately observe other
            # activations mutate shared state, so ``old`` re-captures
            # here, and per-concern interference is judged within-round.
            runner.start_round(joinpoint)
        # Per-aspect timing is measured only when someone is listening —
        # the same gate that keeps event construction off the hot path.
        timed = self.events.has_listeners
        for concern, aspect in pairs:
            if quarantine_active:
                policy = self.health.quarantine_policy(method_id, concern)
                if policy == FAIL_OPEN:
                    self.stats.bump("degraded_skips")
                    self.events.emit(
                        "degraded_skip", method_id, concern,
                        activation_id=joinpoint.activation_id,
                    )
                    continue
                if policy == FAIL_CLOSED:
                    return AspectResult.ABORT, resumed, concern
            began = time.monotonic() if timed else 0.0
            try:
                if injector is not None and injector.fire(
                        "precondition", method_id, concern):
                    continue  # injected no-op crash: aspect never ran
                result = aspect.evaluate_precondition(joinpoint)
            except Exception as exc:  # noqa: BLE001 - contract violation
                self._raise_precondition_fault(method_id, concern, exc,
                                               resumed, joinpoint)
            self.events.emit(
                "precondition", method_id, concern, detail=result.value,
                activation_id=joinpoint.activation_id,
                duration=time.monotonic() - began if timed else 0.0,
            )
            if result is AspectResult.RESUME:
                resumed.append((concern, aspect))
                if runner is not None:
                    runner.checkpoint("precondition", concern, joinpoint)
                continue
            return result, resumed, concern
        return AspectResult.RESUME, resumed, None

    def _evaluate_plan(
        self, plan: ActivationPlan, joinpoint: JoinPoint
    ) -> Tuple[AspectResult, List[Tuple[str, Aspect]], Optional[str]]:
        """Generic compiled executor: degraded cells, injectors, contracts.

        Runs the plans :meth:`_run_round` does not walk itself, by
        mirroring the interpreter decision-for-decision — live
        quarantine reads, per-site injector visits (pre-bound as
        ``cell.fire_pre``, still visit-counted every call so chaos-test
        occurrence coordinates are untouched), skipped aspects excluded
        from the RESUMEd chain. The differential suite drives it against
        the interpreter across the whole fault space.
        """
        method_id = plan.method_id
        emit = self.events.emit
        activation_id = joinpoint.activation_id
        timed = self.events.has_listeners
        resumed: List[Tuple[str, Aspect]] = []
        quarantine_active = self.health.active
        runner = (
            joinpoint.context.get(CONTRACT_KEY)
            if self._contracts is not None else None
        )
        if runner is not None:
            # Same round anchor as the interpreter above — placement is
            # decision-for-decision identical, which is what keeps
            # contract verdicts equal compiled-vs-interpreted (the
            # differential suite holds them so).
            runner.start_round(joinpoint)
        for cell in plan.cells:
            concern = cell.concern
            if quarantine_active:
                # Live read, not the compiled ``cell.degraded`` snapshot:
                # a flip mid-round must act on later cells of this very
                # round, exactly as the interpreter's would.
                policy = self.health.quarantine_policy(method_id, concern)
                if policy == FAIL_OPEN:
                    self.stats.bump("degraded_skips")
                    emit(
                        "degraded_skip", method_id, concern,
                        activation_id=activation_id,
                    )
                    continue
                if policy == FAIL_CLOSED:
                    return AspectResult.ABORT, resumed, concern
            began = time.monotonic() if timed else 0.0
            try:
                if cell.fire_pre is not None and cell.fire_pre():
                    continue  # injected no-op crash: aspect never ran
                result = cell.evaluate(joinpoint)
            except Exception as exc:  # noqa: BLE001 - contract violation
                self._raise_precondition_fault(method_id, concern, exc,
                                               resumed, joinpoint)
            emit(
                "precondition", method_id, concern, detail=result.value,
                activation_id=activation_id,
                duration=time.monotonic() - began if timed else 0.0,
            )
            if result is AspectResult.RESUME:
                resumed.append(cell.pair)
                if runner is not None:
                    runner.checkpoint("precondition", concern, joinpoint)
                continue
            return result, resumed, concern
        return AspectResult.RESUME, resumed, None

    def _compensate(self, resumed: List[Tuple[str, Aspect]],
                    joinpoint: JoinPoint) -> List[AspectFault]:
        """Unwind a RESUMEd prefix; never stops at a raising aspect.

        Returns the faults encountered so callers can surface them once
        the whole prefix has been compensated — a raising ``on_abort``
        must not abandon the compensations still owed to earlier aspects.
        """
        faults: List[AspectFault] = []
        injector = self.fault_injector
        for concern, aspect in reversed(resumed):
            try:
                if injector is not None and injector.fire(
                        "on_abort", joinpoint.method_id, concern):
                    continue
                aspect.on_abort(joinpoint)
            except Exception as exc:  # noqa: BLE001 - keep unwinding
                self._note_fault(joinpoint.method_id, concern, "on_abort",
                                 exc, joinpoint)
                faults.append(AspectFault(
                    joinpoint.method_id, concern, "on_abort", exc,
                ))
                continue
            self.stats.bump("compensations")
            self.events.emit(
                "compensate", joinpoint.method_id, concern,
                activation_id=joinpoint.activation_id,
            )
        return faults

    def _note_fault(self, method_id: str, concern: str, phase: str,
                    exc: BaseException, joinpoint: JoinPoint,
                    blame: Optional[str] = None) -> None:
        """Account one aspect fault; flip the cell to quarantined at N."""
        self.stats.bump("faults")
        self.events.emit(
            "aspect_fault", method_id, concern,
            detail=f"{phase}: {type(exc).__name__}",
            activation_id=joinpoint.activation_id,
        )
        if self.health.record_fault(method_id, concern, phase, exc,
                                    activation_id=joinpoint.activation_id,
                                    blame=blame):
            self.stats.bump("quarantines")
            self.events.emit(
                "quarantine", method_id, concern,
                detail=self.health.quarantine_policy(method_id, concern)
                or "",
            )

    def _note_violation(self, violation: ContractViolation,
                        joinpoint: JoinPoint) -> None:
        """Account one contract verdict; feed aspect blame to quarantine.

        Caller and component blame only count and surface (the violation
        itself propagates to the caller); ``aspect:<concern>`` blame is
        additionally an aspect *fault* of the blamed cell, so a
        repeatedly interfering aspect degrades under its registered
        policy exactly like a raising one — observers ``fail_open``,
        guards ``fail_closed``.
        """
        self.stats.bump("contract_violations")
        concern = violation.blamed_concern
        self.events.emit(
            "contract_violation", violation.method_id, concern or "",
            detail=f"{violation.kind}:{violation.clause}:{violation.blame}",
            activation_id=joinpoint.activation_id,
        )
        if concern is not None:
            self._note_fault(violation.method_id, concern, "contract",
                             violation, joinpoint, blame=violation.blame)

    def _finish_contract(self, runner: Any,
                         joinpoint: JoinPoint) -> None:
        """Close an activation's contract; raise its verdict (if any)."""
        joinpoint.context.pop(CONTRACT_KEY, None)
        violation = runner.finish()
        if violation is not None:
            self._note_violation(violation, joinpoint)
            raise violation

    @staticmethod
    def _raise_faults(faults: List[AspectFault]) -> None:
        """Raise collected faults: one directly, several as a group."""
        if not faults:
            return
        if len(faults) == 1:
            raise faults[0]
        raise CompositionErrors(faults)

    # ------------------------------------------------------------------
    # post-activation (paper Figure 11 / 18)
    # ------------------------------------------------------------------
    def postactivation(self, method_id: str,
                       joinpoint: Optional[JoinPoint] = None,
                       plan: Optional[ActivationPlan] = None) -> None:
        """Evaluate the post-activation phase for a RESUMEd activation.

        Runs ``postaction()`` of the activation's aspects in *reverse*
        composition order (Section 5.3: synchronization unwinds before
        authentication) under the method's domain lock, then — in a
        second phase, with no domain lock held — notifies wait queues so
        blocked activations re-evaluate their preconditions.

        Chains consisting solely of ``never_blocks`` aspects skip the
        lock, and skip the wake entirely unless some activation is
        parked on the moderator.

        Fault containment: a raising postaction does not stop the
        reverse unwind — the remaining postactions still run, the wake
        phase *always* happens (parked waiters must re-evaluate, never
        wedge behind a faulty aspect), and only then do the collected
        faults propagate (:class:`AspectFault`, aggregated as
        :class:`CompositionErrors` when several raised).

        This method is the post side of the activation driver. A chain
        stashed by a ``fast_cells`` round of a still-current plan
        unwinds through the plan's pre-bound cells right here; any other
        chain (stale stash, degraded cells, armed injector, contract,
        interpreter) unwinds through :meth:`_run_postactions`, which
        reads injector and contract state live. The wake's slow path
        (:meth:`_wake`) runs only when an activation is parked.
        """
        if joinpoint is None:
            joinpoint = JoinPoint(method_id=method_id)
        joinpoint.phase = Phase.POST_ACTIVATION
        events = self.events
        listening = events._listeners
        activation_id = joinpoint.activation_id
        if listening:
            events.emit("postactivation", method_id,
                        activation_id=activation_id)

        context = joinpoint.context
        runner = (
            context.get(CONTRACT_KEY)
            if self._contracts is not None else None
        )
        if runner is not None:
            # Post-body check point, before any postaction runs: ensure
            # and invariant clauses are judged against the body's own
            # effect; a clause a *postaction* later breaks is blamed on
            # that postaction's concern (per-postaction check points in
            # :meth:`_run_postactions`).
            runner.post_body(joinpoint)

        chain = context.pop(CHAIN_KEY, None)
        fast = False
        if self.compile_plans:
            if plan is None or plan.key != self._composition_key():
                # No plan handed in, or the composition changed while the
                # method body ran: fetch the current plan. A recorded
                # chain from the superseded plan then fails the identity
                # check below and unwinds through the interpreted path,
                # which reads injector and health state live — exactly
                # what the interpreter would do with that chain.
                plan = self.plan_for(method_id)
            if chain is None:
                # No recorded chain: unwind what the current composition
                # says, which is exactly what re-reading the bank would
                # yield (the plan was just validated against it).
                chain = plan.pairs
            # Identity with the plan's own pairs tuple means a full-chain
            # RESUME under this very plan (hence this very key).
            fast = chain is plan.pairs and plan.fast_cells
        elif chain is None:
            # Post-activation without a recorded chain: fall back to the
            # current bank contents (the paper's behaviour, which always
            # re-reads the array).
            chain = self.ordering(method_id, self.bank.aspects_for(method_id))
        if fast:
            never_blocks = plan.never_blocks
            lock = None if never_blocks else plan.domain.lock
        else:
            chain = list(chain)
            never_blocks = all(aspect.never_blocks for _, aspect in chain)
            lock = None if never_blocks else self._domain_for(method_id).lock

        stats = self.stats
        keys = stats.keys
        cells = stats.local.cells
        faults: Optional[List[AspectFault]] = None
        if lock is not None:
            lock.acquire()
        try:
            cells[keys["postactivations"]] += 1
            if fast:
                for cell in reversed(plan.cells):
                    began = time.monotonic() if listening else 0.0
                    try:
                        cell.postaction(joinpoint)
                    except Exception as exc:  # noqa: BLE001 - keep unwinding
                        self._note_fault(method_id, cell.concern,
                                         "postaction", exc, joinpoint)
                        faults = faults or []
                        faults.append(AspectFault(
                            method_id, cell.concern, "postaction", exc,
                        ))
                        continue
                    if listening:
                        events.emit(
                            "postaction", method_id, cell.concern,
                            activation_id=activation_id,
                            duration=time.monotonic() - began,
                        )
            else:
                faults = self._run_postactions(method_id, chain, joinpoint)
        finally:
            if lock is not None:
                lock.release()
            # Phase two, with no domain lock held, so cross-domain
            # notification cannot deadlock. Runs even if containment
            # itself failed, so a faulty aspect never strands a waiter.
            if never_blocks and not self._waiters:
                # Wake elided (nothing parked) — but the protocol's
                # notify arrow still concluded this activation, so
                # surface it to observers (span recorders close the
                # activation on it). Observer-only: counters must not
                # depend on who is subscribed.
                if listening:
                    events.emit("notify", method_id, detail="elided",
                                activation_id=activation_id)
            else:
                # The epoch bump and the parked-count read are one atomic
                # step; see :meth:`_wake` for why that makes skipping the
                # domain locks race-free when nothing is parked.
                with self._waiter_guard:
                    self._wake_epoch += 1
                    parked = self._parked
                if parked:
                    self._wake(method_id)
                cells[keys["notifications"]] += 1
                if listening:
                    events.emit("notify", method_id,
                                activation_id=activation_id)
        if faults:
            self._raise_faults(faults)
        if runner is not None:
            self._finish_contract(runner, joinpoint)

    def _run_postactions(self, method_id: str,
                         chain: List[Tuple[str, Aspect]],
                         joinpoint: JoinPoint) -> List[AspectFault]:
        """Reverse unwind; continues past raising aspects (faults returned)."""
        faults: List[AspectFault] = []
        injector = self.fault_injector
        runner = (
            joinpoint.context.get(CONTRACT_KEY)
            if self._contracts is not None else None
        )
        timed = self.events.has_listeners
        for concern, aspect in reversed(chain):
            began = time.monotonic() if timed else 0.0
            try:
                if injector is not None and injector.fire(
                        "postaction", method_id, concern):
                    continue
                aspect.postaction(joinpoint)
            except Exception as exc:  # noqa: BLE001 - keep unwinding
                self._note_fault(method_id, concern, "postaction", exc,
                                 joinpoint)
                faults.append(AspectFault(
                    method_id, concern, "postaction", exc,
                ))
                continue
            self.events.emit(
                "postaction", method_id, concern,
                activation_id=joinpoint.activation_id,
                duration=time.monotonic() - began if timed else 0.0,
            )
            if runner is not None:
                # Re-verify the clauses that held at post-body: one that
                # just broke is blamed on this concern's postaction.
                runner.checkpoint("postaction", concern, joinpoint)
        return faults

    # ------------------------------------------------------------------
    # whole-activation brackets
    # ------------------------------------------------------------------
    def guarded_call(self, method_id: str, joinpoint: JoinPoint,
                     body: Callable[..., Any], args: Tuple[Any, ...],
                     kwargs: Dict[str, Any],
                     timeout: Optional[float] = None,
                     deadline: Any = None) -> Any:
        """Run ``body(*args, **kwargs)`` as one moderated activation.

        Figure 10's guarded method — pre-activation, the method,
        post-activation — written once for every entry point:
        :class:`~repro.core.proxy.ComponentProxy` (attribute access and
        :meth:`~repro.core.proxy.ComponentProxy.call`),
        :class:`~repro.core.proxy.GuardedMethod`, woven classes and
        :meth:`moderate_call`. ABORT raises :class:`MethodAborted`; the
        body runs in ``Phase.INVOCATION`` unless an aspect served the
        activation itself (:meth:`JoinPoint.skip_invocation`); a
        raising body is recorded on the join point and post-activation
        still runs, so aspects can compensate.

        ``preactivation`` and ``postactivation`` are looked up on the
        instance per call: they stay the two public seams, and a wrapper
        installed on either from outside sees every activation.
        """
        plan = self.plan_for(method_id) if self.compile_plans else None
        if self.preactivation(
            method_id, joinpoint, timeout=timeout, plan=plan,
            deadline=deadline,
        ) is not AspectResult.RESUME:
            raise MethodAborted(
                method_id, concern=joinpoint.context.get("abort_concern")
            )
        joinpoint.phase = Phase.INVOCATION
        try:
            if not joinpoint.context.get(SKIP_INVOCATION_KEY):
                events = self.events
                if events._listeners:
                    events.emit("invoke", method_id,
                                activation_id=joinpoint.activation_id)
                # The ``result`` setter's slot, minus its frame.
                joinpoint._result = body(*args, **kwargs)
        except BaseException as exc:
            joinpoint.exception = exc
            raise
        finally:
            self.postactivation(method_id, joinpoint, plan=plan)
        return joinpoint.result

    @contextmanager
    def activation(
        self,
        method_id: str,
        joinpoint: Optional[JoinPoint] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[JoinPoint]:
        """Context manager bracketing a participating-method body.

        Raises :class:`MethodAborted` when pre-activation aborts. When the
        body raises, the exception is recorded on the join point and
        post-activation still runs, so aspects can compensate (a sync
        aspect rolls its counters back instead of committing them).

        Example::

            with moderator.activation("open", jp):
                server.open(ticket)
        """
        joinpoint = joinpoint or JoinPoint(method_id=method_id)
        result = self.preactivation(method_id, joinpoint, timeout=timeout)
        if result is AspectResult.ABORT:
            raise MethodAborted(
                method_id, concern=joinpoint.context.get("abort_concern")
            )
        joinpoint.phase = Phase.INVOCATION
        try:
            yield joinpoint
        except BaseException as exc:
            joinpoint.exception = exc
            raise
        finally:
            self.postactivation(method_id, joinpoint)

    def moderate_call(self, method_id: str, func: Any, *args: Any,
                      component: Any = None, caller: Any = None,
                      timeout: Optional[float] = None, **kwargs: Any) -> Any:
        """Run ``func(*args, **kwargs)`` as a fully moderated activation."""
        joinpoint = JoinPoint(
            method_id=method_id, component=component,
            args=args, kwargs=kwargs, caller=caller,
        )
        return self.guarded_call(method_id, joinpoint, func, args, kwargs,
                                 timeout=timeout)

    # ------------------------------------------------------------------
    # lock-domain / wait-queue plumbing
    # ------------------------------------------------------------------
    def _domain_for(self, method_id: str) -> LockDomain:
        """The lock domain currently owning ``method_id``."""
        with self._lock:
            name = self._method_domains.get(
                method_id, _PRIVATE_DOMAIN_PREFIX + method_id
            )
            domain = self._domains.get(name)
            if domain is None:
                domain = LockDomain(name)
                self._domains[name] = domain
            return domain

    def _all_domains(self) -> List[LockDomain]:
        with self._lock:
            return list(self._domains.values())

    def _wake(self, method_id: str) -> None:
        """Second phase of post-activation, slow path: notify targets.

        :meth:`postactivation` bumps the wake epoch and reads the parked
        count in one step under ``_waiter_guard``, then calls here only
        when something is parked. Must be called while holding **no**
        domain lock; each target condition is notified under its own
        domain's lock, which orders the notification after any in-flight
        park on that queue.

        When nothing is parked anywhere the domain locks are never
        touched — otherwise every completion on one stripe would contend
        every *other* stripe's lock (held for the full length of a
        precondition round) just to notify an empty queue, re-coupling
        the domains the striping exists to separate. The elision is
        race-free via the wake epoch: a blocker re-checks the epoch
        atomically before parking, so a completion either sees the
        waiter parked (and notifies, ordered by the waiter's domain
        lock) or forces it to re-evaluate against the post-postaction
        state.
        """
        targets: Optional[set] = None
        if self.notify_scope == "linked":
            targets = self._linked_methods(method_id)
            own_domain = self._domain_for(method_id)
            for domain in self._all_domains():
                if domain is own_domain:
                    # Domain mates share the method's lock (and usually
                    # its state): always eligible.
                    domain.notify_all()
                    continue
                for key, _condition in domain.conditions():
                    if key in targets:
                        domain.notify_all(key)
        else:
            for domain in self._all_domains():
                domain.notify_all()
        runtime = self._runtime
        if runtime is not None:
            # Continuation-parked activations take the same wake, under
            # the same scope policy — and only now, once every domain's
            # lock has been taken above: a continuation records itself
            # in the runtime's table before releasing its domain lock,
            # so one registered as parked before the epoch bump is in
            # that table by now.
            runtime.wake(targets)

    def _linked_methods(self, method_id: str) -> set:
        """Methods sharing at least one aspect instance with ``method_id``.

        The completing method itself is always included (its own waiters
        may now be eligible). The map is rebuilt lazily after any
        (un)registration — tracked via the bank revision, so direct bank
        mutations are caught too.
        """
        with self._lock:
            revision = self.bank.revision
            if self._links is None or self._links_revision != revision:
                links: Dict[str, set] = {}
                owners: Dict[int, set] = {}
                for owner_method, _concern, aspect in self.bank:
                    # linkage keys: the aspect itself plus any shared state
                    # holders it references (paper-style sibling aspects
                    # share a state object rather than being one instance)
                    keys = [id(aspect)]
                    for value in vars(aspect).values():
                        if hasattr(value, "__dict__") and not callable(value):
                            keys.append(id(value))
                    for key in keys:
                        owners.setdefault(key, set()).add(owner_method)
                for methods in owners.values():
                    for method in methods:
                        links.setdefault(method, set()).update(methods)
                self._links = links
                self._links_revision = revision
            linked = set(self._links.get(method_id, ()))
        linked.add(method_id)
        return linked

    def notify(self, method_id: Optional[str] = None) -> None:
        """Explicitly wake waiters (all methods, or one method's queue).

        External state changes that affect preconditions — e.g. an
        authentication session being granted by an out-of-band login —
        must call this so parked activations re-evaluate. Safe to call
        from any thread; no moderator lock may be held by the caller.
        """
        if method_id is None:
            for domain in self._all_domains():
                domain.notify_all()
        else:
            self._domain_for(method_id).notify_all(method_id)
        runtime = self._runtime
        if runtime is not None:
            # After the domain queues: a continuation parks while
            # holding its domain lock, so the notify above serializes
            # against any in-flight park and this scan cannot miss it.
            runtime.wake(None if method_id is None else {method_id})

    def parked_snapshot(self) -> Dict[int, Tuple[str, float]]:
        """Activations currently parked: id -> (method, parked_since).

        ``parked_since`` is a stamp of the park strategy's clock
        (``time.monotonic`` for threads and threaded continuations).
        Consumed by the stall watchdog
        (:class:`repro.core.watchdog.ActivationWatchdog`) to turn silent
        hangs into diagnostics. Thread parks and continuation parks
        register in the same table, so a stalled activation surfaces
        identically whichever runtime parks it.
        """
        with self._waiter_guard:
            return dict(self._parked_info)

    def queue_lengths(self) -> Dict[str, int]:
        """Number of activations parked per method, either runtime."""
        lengths: Dict[str, int] = {}
        with self._waiter_guard:
            for method_id, _since in self._parked_info.values():
                lengths[method_id] = lengths.get(method_id, 0) + 1
        return lengths

    def lock_domains(self) -> Dict[str, List[str]]:
        """Current domain layout: domain name -> method queues in it."""
        layout: Dict[str, List[str]] = {}
        for domain in self._all_domains():
            layout[domain.name] = [key for key, _ in domain.conditions()]
        return layout
