"""Messages for the simulated distributed runtime.

Messages are value objects copied on delivery (no shared mutable state
between "hosts" — the property a real wire gives you). Payloads must be
plain data (the :func:`check_wire_safe` predicate enforces the subset a
JSON-ish wire format could carry), which keeps the in-process simulation
honest: anything that wouldn't survive serialization is rejected at send
time, not silently shared by reference. Delivery copies a payload with
:func:`wire_copy`, one walk that re-checks the same predicate while it
copies, the way a receiver's decoder would.
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

_message_ids = itertools.count(1)

#: Types allowed on the simulated wire.
WIRE_SAFE_TYPES = (type(None), bool, int, float, str, bytes)

#: deepest nesting level a wire-safe value may reach (the outermost
#: value is at depth 0)
_MAX_DEPTH = 16

#: the exact scalar types, which both walks handle inline (instances of
#: their subclasses take the general path)
_ATOMS = frozenset(WIRE_SAFE_TYPES)


def check_wire_safe(value: Any, depth: int = 0) -> bool:
    """Whether ``value`` could survive a real serialization boundary.

    Wire-safe means: a ``WIRE_SAFE_TYPES`` scalar, or a list, tuple or
    ``str``-keyed dict of wire-safe values (subclasses included), with
    nothing deeper than depth 16 (``value`` itself is at ``depth``).
    """
    if depth > _MAX_DEPTH:
        return False
    if isinstance(value, WIRE_SAFE_TYPES):
        return True
    # Items of exact scalar types are checked inline: one frame per
    # container, not per item. Any item of a container at the depth
    # limit would sit past it.
    if isinstance(value, (list, tuple)):
        for item in value:
            if depth >= _MAX_DEPTH or (
                    type(item) not in _ATOMS
                    and not check_wire_safe(item, depth + 1)):
                return False
        return True
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str) or depth >= _MAX_DEPTH or (
                    type(item) not in _ATOMS
                    and not check_wire_safe(item, depth + 1)):
                return False
        return True
    return False


class WireFormatError(TypeError):
    """Raised when a payload is not wire-safe."""


def wire_copy(value: Any) -> Any:
    """A deep copy of a wire-safe ``value``, validated in the same walk.

    Raises :class:`WireFormatError` exactly when
    ``check_wire_safe(value)`` is False: the same types, the same depth
    limit and ``str`` keys only. The copy equals ``copy.deepcopy(value)``
    with the same container types and shares no mutable container with
    ``value``; instances of subclasses of the wire types are copied by
    ``copy.deepcopy`` itself, after the predicate has accepted them.
    Shared sub-values are copied once per reference, as a decoder would
    rebuild them.
    """
    if type(value) in _ATOMS:
        return value
    return _copy(value, 0)


def _copy(value: Any, depth: int) -> Any:
    """Copy a non-scalar ``value`` found at ``depth``."""
    cls = type(value)
    if cls is dict or cls is list or cls is tuple:
        if value and depth >= _MAX_DEPTH:
            raise WireFormatError("value nests deeper than the wire allows")
        # Scalar items are copied inline: one frame per container, not
        # per item.
        if cls is not dict:
            items = []
            append = items.append
            for item in value:
                append(item if type(item) in _ATOMS
                       else _copy(item, depth + 1))
            return items if cls is list else tuple(items)
        copied = {}
        for key, item in value.items():
            if type(key) is not str:
                if not isinstance(key, str):
                    raise WireFormatError(f"dict key {key!r} is not a str")
                key = copy.deepcopy(key)
            copied[key] = item if type(item) in _ATOMS \
                else _copy(item, depth + 1)
        return copied
    if check_wire_safe(value, depth):
        return copy.deepcopy(value)
    raise WireFormatError(f"{cls.__name__} value is not wire-safe")


@dataclass(frozen=True)
class Message:
    """One message on the simulated network."""

    source: str
    dest: str
    kind: str  # "request" | "reply" | "error" | "event"
    payload: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=_message_ids.__next__)
    reply_to: Optional[int] = None
    sent_at: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        if not check_wire_safe(self.payload):
            raise WireFormatError(
                f"payload of {self.kind} message {self.source}->{self.dest} "
                f"is not wire-safe"
            )

    def copy_for_delivery(self) -> "Message":
        """Deep-copied message, simulating deserialization at the receiver.

        The payload is copied by :func:`wire_copy`, whose one walk also
        re-checks wire safety (a sender may have mutated the payload
        after construction), so the copy skips ``__post_init__``.
        """
        try:
            payload = wire_copy(self.payload)
        except WireFormatError:
            raise WireFormatError(
                f"payload of {self.kind} message {self.source}->{self.dest} "
                f"is not wire-safe"
            ) from None
        return _assemble(self.__dict__, payload=payload)


def _assemble(base: Dict[str, Any], **fields: Any) -> Message:
    """A message with ``base`` and ``fields`` set, skipping ``__post_init__``.

    Only for payloads a :func:`wire_copy` walk has just validated: the
    construction check would walk them a second time.
    """
    message = object.__new__(Message)
    message.__dict__.update(base, **fields)
    return message


def request(source: str, dest: str, service: str, method: str,
            args: Tuple[Any, ...] = (), kwargs: Optional[Dict[str, Any]] = None,
            caller: Optional[str] = None,
            trace: Optional[Dict[str, Any]] = None,
            deadline_budget: Optional[float] = None,
            idempotency_key: Optional[str] = None,
            attempt: int = 1,
            fence: Optional[int] = None) -> Message:
    """Build an RPC request message.

    ``trace`` is an optional wire-form trace context
    (:func:`repro.obs.propagation.to_wire`) — plain strings and floats,
    so it rides the payload through the same wire-safety check as
    everything else and lets the receiving node stitch its activation
    spans under the caller's trace.

    The resilience envelope (``docs/resilience.md``) is three more
    optional plain-data fields: ``deadline_budget`` is the remaining
    end-to-end budget in seconds at send time (absolute deadlines don't
    travel — monotonic clocks differ per host); ``idempotency_key``
    names the *logical* call so a server-side dedup cache can replay
    the original reply to a retry instead of re-executing; ``attempt``
    is the 1-based attempt number, carried for diagnostics.

    ``fence`` is the fencing epoch of the binding the caller resolved
    (``docs/recovery.md``): a node exported at a different epoch
    rejects the request with a retryable ``FencedOut`` instead of
    letting a stale binding land effects on a superseded location.
    """
    payload: Dict[str, Any] = {
        "service": service,
        "method": method,
        "args": list(args),
        "kwargs": dict(kwargs or {}),
        "caller": caller,
    }
    if trace is not None:
        payload["trace"] = trace
    if deadline_budget is not None:
        payload["deadline_budget"] = float(deadline_budget)
    if idempotency_key is not None:
        payload["idempotency_key"] = idempotency_key
    if attempt != 1:
        payload["attempt"] = attempt
    if fence is not None:
        payload["fence"] = int(fence)
    return Message(source=source, dest=dest, kind="request",
                   payload=payload)


def reply(to: Message, result: Any) -> Message:
    """Build a success reply to ``to``."""
    return Message(
        source=to.dest, dest=to.source, kind="reply",
        payload={"result": result}, reply_to=to.msg_id,
    )


def copied_reply(to: Message, result: Any) -> Message:
    """A success reply to ``to`` carrying a :func:`wire_copy` of ``result``.

    One walk both validates and snapshots the result, so later changes
    to the servant's objects cannot reach the reply (or a dedup cache
    holding its payload). Raises :class:`WireFormatError` when
    ``result`` is not wire-safe.
    """
    return _assemble(
        {}, source=to.dest, dest=to.source, kind="reply",
        payload={"result": wire_copy(result)}, msg_id=next(_message_ids),
        reply_to=to.msg_id, sent_at=time.monotonic(),
    )


def error_reply(to: Message, exc: BaseException,
                extra: Optional[Dict[str, Any]] = None) -> Message:
    """Build an error reply carrying the exception type and text.

    ``extra`` merges additional wire-safe fields into the payload —
    e.g. the ``retry_after`` hint on an ``Overloaded`` rejection.
    """
    payload: Dict[str, Any] = {
        "error_type": type(exc).__name__,
        "error": str(exc),
    }
    retry_after = getattr(exc, "retry_after", None)
    if isinstance(retry_after, (int, float)):
        payload["retry_after"] = retry_after
    wire = getattr(exc, "wire_payload", None)
    if callable(wire):
        # Errors that carry structured diagnostics (e.g.
        # ``ContractViolation`` with its blame verdict and checkpoint
        # evidence) contribute their own wire-safe fields, so the
        # client can rehydrate the typed error with evidence intact.
        payload.update(wire())
    if extra:
        payload.update(extra)
    return Message(
        source=to.dest, dest=to.source, kind="error",
        payload=payload,
        reply_to=to.msg_id,
    )
