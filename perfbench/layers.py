"""Per-layer instrumentation and the per-layer metric set.

Every wrapper is installed from outside a layer, before the first call
(compiled activation plans bind ``aspect.evaluate_precondition`` and
``aspect.postaction`` when they are compiled, so a later wrapper would
never run). Each workload reports the same metric set; a layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.results import AspectResult

from harness import Spans, median

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.proxy.self_us", "us"),
    ("core.moderator.pre_us", "us"),
    ("core.moderator.post_us", "us"),
    ("core.moderator.py_calls_per_activation", "calls"),
    ("core.moderator.allocs_per_activation", "B"),
    ("core.moderator.abort_ratio", "ratio"),
    ("aspects.precondition_us", "us"),
    ("aspects.postaction_us", "us"),
    ("aspects.veto_ratio", "ratio"),
    ("apps.body_us", "us"),
    ("obs.listener_us", "us"),
    ("obs.span_trees_per_1k", "count"),
    ("core.continuation.park_rate_s", "1/s"),
    ("core.continuation.wake_rate_s", "1/s"),
    ("core.continuation.bytes_per_parked", "B"),
    ("core.continuation.useful_wake_ratio", "ratio"),
    ("dist.rpc.call_us", "us"),
    ("dist.rpc.retries_per_call", "ratio"),
    ("dist.node.serve_us", "us"),
    ("dist.network.transport_us", "us"),
    ("dist.network.messages_per_call", "count"),
    ("dist.naming.resolve_us", "us"),
    ("dist.naming.resolves_per_call", "count"),
    ("dist.sharding.route_us", "us"),
    ("dist.sharding.rebalance_ms", "ms"),
    ("dist.recovery.append_us", "us"),
    ("dist.recovery.appends_per_write", "count"),
    ("dist.recovery.checkpoint_ms", "ms"),
    ("dist.recovery.store_read_ms", "ms"),
    ("dist.recovery.replayed_per_failover", "count"),
    ("dist.resilience.dedup_hits", "count"),
    ("dist.resilience.fenced_rejections", "count"),
    ("latency_p99_us", "us"),
    ("move_downtime_p50_ms", "ms"),
    ("failover_p50_ms", "ms"),
    ("trace.untraced_throughput_ops_s", "1/s"),
    ("trace.traced_throughput_ops_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _count_abort(spans: Spans) -> Any:
    def on_result(result: Any) -> None:
        if result is AspectResult.ABORT:
            spans.bump("aborts")
    return on_result


def _count_veto(spans: Spans) -> Any:
    def on_result(result: Any) -> None:
        if result is not AspectResult.RESUME:
            spans.bump("vetoes")
    return on_result


def instrument_methods(spans: Spans, target: Any, names: Sequence[str],
                       span: str, **options: Any) -> None:
    """Shadow bound methods of a plain object with timed wrappers.

    Do not use on a ``ComponentProxy``: its ``__setattr__`` forwards the
    write to the component, silently wrapping the wrong object.
    """
    for method in names:
        setattr(target, method,
                spans.wrap(span, getattr(target, method), **options))


def instrument_moderation(spans: Spans, moderator: Any, component: Any,
                          methods: Iterable[str]) -> None:
    """Wrap the moderator bracket, every registered aspect, and the
    component's methods (the proxy itself is wrapped by its caller:
    see :func:`instrument_served_proxy`)."""
    moderator.preactivation = spans.wrap(
        "core.moderator.pre", moderator.preactivation,
        on_result=_count_abort(spans))
    moderator.postactivation = spans.wrap(
        "core.moderator.post", moderator.postactivation)
    seen = set()
    for _method, _concern, aspect in moderator.bank:
        if id(aspect) in seen:
            continue
        seen.add(id(aspect))
        aspect.evaluate_precondition = spans.wrap(
            "aspects.precondition", aspect.evaluate_precondition,
            on_result=_count_veto(spans))
        aspect.postaction = spans.wrap(
            "aspects.postaction", aspect.postaction)
    # a validation rule reading the component is aspect time, not a
    # body invocation
    instrument_methods(spans, component, methods, "apps.body",
                       skip_under=("aspects.precondition",))


def instrument_served_proxy(spans: Spans, proxy: Any) -> None:
    """Time an exported proxy's ``call`` as the node's serve span
    around the proxy span (a node serves a proxy through ``call``).

    ``ComponentProxy.__setattr__`` forwards attribute writes to the
    component, so ``proxy.call = wrapper`` would wrap nothing on the
    proxy; the wrapper is stored on the proxy instance directly.
    """
    wrapped = spans.wrap("dist.node.serve",
                         spans.wrap("core.proxy", proxy.call))
    object.__setattr__(proxy, "call", wrapped)


def instrument_listeners(spans: Spans, bus: Any) -> None:
    """Time every listener subscribed to ``bus`` from now on."""
    subscribe = bus.subscribe
    bus.subscribe = lambda listener: subscribe(
        spans.wrap("obs.listener", listener))


def instrument_client(spans: Spans, client: Any) -> None:
    client.call_name = spans.wrap("dist.rpc.call", client.call_name)


def instrument_naming(spans: Spans, names: Any) -> None:
    names.resolve = spans.wrap("dist.naming.resolve", names.resolve)
    names.resolve_sharded = spans.wrap("dist.naming.resolve",
                                       names.resolve_sharded)


# ----------------------------------------------------------------------
# the metric set
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(spans: Spans, counters: Dict[str, float],
              samples: Dict[str, List[float]],
              probe: Tuple[float, float], untraced_p99_us: float,
              untraced_ops_s: float, traced_ops_s: float) -> Dict[str, float]:
    """Every per-layer metric from traced epochs' spans and counters,
    plus the untraced epochs' tail latency and move times."""
    bumped = spans.counters
    rpc_calls = spans.calls("dist.rpc.call")
    call_us = spans.mean_us("dist.rpc.call")
    serve_us = spans.mean_us("dist.node.serve")
    return {
        "core.proxy.self_us": spans.mean_us("core.proxy", self_time=True),
        "core.moderator.pre_us": spans.mean_us("core.moderator.pre"),
        "core.moderator.post_us": spans.mean_us("core.moderator.post"),
        "core.moderator.py_calls_per_activation": probe[0],
        "core.moderator.allocs_per_activation": probe[1],
        "core.moderator.abort_ratio": _ratio(
            bumped.get("aborts", 0), spans.calls("core.moderator.pre")),
        "aspects.precondition_us": spans.mean_us("aspects.precondition"),
        "aspects.postaction_us": spans.mean_us("aspects.postaction"),
        "aspects.veto_ratio": _ratio(
            bumped.get("vetoes", 0), spans.calls("aspects.precondition")),
        "apps.body_us": spans.mean_us("apps.body"),
        "obs.listener_us": _ratio(
            spans.totals.get("obs.listener", [0, 0])[1] / 1000.0,
            counters.get("obs_activations", 0)),
        "obs.span_trees_per_1k": 1000.0 * _ratio(
            counters.get("span_trees", 0), counters.get("obs_activations", 0)),
        "core.continuation.park_rate_s": median(samples.get("park_rate_s", [])),
        "core.continuation.wake_rate_s": median(samples.get("wake_rate_s", [])),
        "core.continuation.bytes_per_parked": median(
            samples.get("bytes_per_parked", [])),
        "core.continuation.useful_wake_ratio": _ratio(
            counters.get("resumed_after_wake", 0), counters.get("wakeups", 0)),
        "dist.rpc.call_us": call_us,
        "dist.rpc.retries_per_call": _ratio(counters.get("retries", 0),
                                            rpc_calls),
        "dist.node.serve_us": serve_us,
        "dist.network.transport_us": call_us - serve_us if rpc_calls else 0.0,
        "dist.network.messages_per_call": _ratio(counters.get("messages", 0),
                                                 rpc_calls),
        "dist.naming.resolve_us": spans.mean_us("dist.naming.resolve"),
        "dist.naming.resolves_per_call": _ratio(
            spans.calls("dist.naming.resolve"), rpc_calls),
        "dist.sharding.route_us": spans.mean_us("dist.sharding.route"),
        "dist.sharding.rebalance_ms": spans.mean_us(
            "dist.sharding.rebalance") / 1000.0,
        "dist.recovery.append_us": spans.mean_us("dist.recovery.append"),
        "dist.recovery.appends_per_write": _ratio(
            spans.calls("dist.recovery.append"),
            counters.get("journaled_writes", 0)),
        "dist.recovery.checkpoint_ms": spans.mean_us(
            "dist.recovery.checkpoint") / 1000.0,
        "dist.recovery.store_read_ms": _ratio(
            spans.totals.get("dist.recovery.store_read", [0, 0])[1] / 1e6,
            spans.calls("dist.recovery.recover")),
        "dist.recovery.replayed_per_failover": _ratio(
            counters.get("replayed", 0), counters.get("failovers", 0)),
        "dist.resilience.dedup_hits": counters.get("dedup_hits", 0),
        "dist.resilience.fenced_rejections": counters.get(
            "fenced_rejections", 0),
        "latency_p99_us": untraced_p99_us,
        "move_downtime_p50_ms": median(samples.get("move_downtime_ms", [])),
        "failover_p50_ms": median(samples.get("failover_ms", [])),
        "trace.untraced_throughput_ops_s": untraced_ops_s,
        "trace.traced_throughput_ops_s": traced_ops_s,
        "trace.overhead_ratio": _ratio(untraced_ops_s, traced_ops_s),
    }
