"""Unit tests for ComponentProxy and GuardedMethod (paper Figure 10)."""

import pytest

from repro.core import (
    AspectModerator,
    ComponentProxy,
    FunctionAspect,
    MethodAborted,
)
from repro.core.proxy import GuardedMethod
from repro.core.results import ABORT, RESUME


class TestComponentProxyInterception:
    def test_non_participating_passthrough(self, echo, moderator):
        proxy = ComponentProxy(echo, moderator)
        assert proxy.ping(1) == 1
        assert moderator.stats.preactivations == 0

    def test_participating_methods_are_moderated(self, echo, moderator):
        moderator.register_aspect("ping", "a", FunctionAspect(concern="a"))
        proxy = ComponentProxy(echo, moderator)
        assert proxy.ping(2) == 2
        assert moderator.stats.preactivations == 1
        assert moderator.stats.postactivations == 1

    def test_dynamic_participation_follows_bank(self, echo, moderator):
        proxy = ComponentProxy(echo, moderator)
        assert not proxy.is_participating("ping")
        moderator.register_aspect("ping", "a", FunctionAspect(concern="a"))
        assert proxy.is_participating("ping")
        proxy.ping()
        assert moderator.stats.preactivations == 1

    def test_explicit_participation_list(self, echo, moderator):
        moderator.register_aspect("ping", "a", FunctionAspect(concern="a"))
        proxy = ComponentProxy(echo, moderator, participating=["boom"])
        # ping has aspects but is not in the explicit list -> passthrough
        proxy.ping()
        assert moderator.stats.preactivations == 0

    def test_abort_raises_method_aborted(self, echo, moderator):
        moderator.register_aspect("ping", "guard", FunctionAspect(
            concern="guard", precondition=lambda jp: ABORT,
        ))
        proxy = ComponentProxy(echo, moderator)
        with pytest.raises(MethodAborted) as excinfo:
            proxy.ping()
        assert excinfo.value.concern == "guard"
        assert echo.calls == []  # method never executed

    def test_body_exception_propagates_and_post_runs(self, echo, moderator):
        seen = {}
        moderator.register_aspect("boom", "a", FunctionAspect(
            concern="a", postaction=lambda jp: seen.update(exc=jp.exception),
        ))
        proxy = ComponentProxy(echo, moderator)
        with pytest.raises(RuntimeError):
            proxy.boom()
        assert isinstance(seen["exc"], RuntimeError)
        assert moderator.stats.postactivations == 1

    def test_non_callable_attributes_pass_through(self, echo, moderator):
        proxy = ComponentProxy(echo, moderator)
        assert proxy.calls == []

    def test_component_and_moderator_accessors(self, echo, moderator):
        proxy = ComponentProxy(echo, moderator)
        assert proxy.component is echo
        assert proxy.moderator is moderator

    def test_repr_mentions_component(self, echo, moderator):
        assert "Echo" in repr(ComponentProxy(echo, moderator))


class TestProxyCall:
    def test_call_attaches_caller(self, echo, moderator):
        seen = {}
        moderator.register_aspect("ping", "a", FunctionAspect(
            concern="a",
            precondition=lambda jp: seen.update(caller=jp.caller) or True,
        ))
        proxy = ComponentProxy(echo, moderator)
        proxy.call("ping", 1, caller="alice")
        assert seen["caller"] == "alice"

    def test_proxy_default_caller_used(self, echo, moderator):
        seen = {}
        moderator.register_aspect("ping", "a", FunctionAspect(
            concern="a",
            precondition=lambda jp: seen.update(caller=jp.caller) or True,
        ))
        proxy = ComponentProxy(echo, moderator, caller="bob")
        proxy.ping()
        assert seen["caller"] == "bob"

    def test_call_on_non_participating_is_plain(self, echo, moderator):
        proxy = ComponentProxy(echo, moderator)
        assert proxy.call("ping", 3) == 3
        assert moderator.stats.preactivations == 0


class TestAttributeDelegation:
    """Regression: ``proxy.attr = x`` must reach the component.

    The proxy intercepts reads via ``__getattr__`` but used to let writes
    land on the proxy instance itself, silently shadowing the component's
    attribute on every subsequent read through the proxy.
    """

    def test_write_reaches_component(self, echo, moderator):
        proxy = ComponentProxy(echo, moderator)
        proxy.calls = ["seeded"]
        assert echo.calls == ["seeded"]          # component mutated
        assert "calls" not in vars(proxy)        # nothing shadowed

    def test_write_then_read_is_consistent(self, echo, moderator):
        proxy = ComponentProxy(echo, moderator)
        proxy.label = "a"
        echo.label = "b"  # direct component write must stay visible
        assert proxy.label == "b"

    def test_delete_reaches_component(self, echo, moderator):
        proxy = ComponentProxy(echo, moderator)
        proxy.label = "x"
        del proxy.label
        assert not hasattr(echo, "label")
        with pytest.raises(AttributeError):
            del proxy.label

    def test_own_slots_stay_on_proxy(self, echo, moderator):
        proxy = ComponentProxy(echo, moderator)
        proxy._caller = "alice"  # _OWN slot: proxy state, not component's
        assert not hasattr(echo, "_caller")
        assert proxy._caller == "alice"


class TestWrapperCache:
    def test_repeated_access_returns_cached_wrapper(self, echo, moderator):
        moderator.register_aspect("ping", "a", FunctionAspect(concern="a"))
        proxy = ComponentProxy(echo, moderator)
        assert proxy.ping is proxy.ping

    def test_cache_invalidated_on_registration(self, echo, moderator):
        moderator.register_aspect("ping", "a", FunctionAspect(concern="a"))
        proxy = ComponentProxy(echo, moderator)
        first = proxy.ping
        moderator.register_aspect("boom", "b", FunctionAspect(concern="b"))
        assert proxy.ping is not first  # epoch bumped -> rebuilt

    def test_cache_invalidated_on_unregister(self, echo, moderator):
        moderator.register_aspect("ping", "a", FunctionAspect(concern="a"))
        proxy = ComponentProxy(echo, moderator)
        assert proxy.ping is proxy.ping
        moderator.unregister_aspect("ping", "a")
        assert proxy.ping() is None  # back to passthrough
        assert moderator.stats.preactivations == 0

    def test_rebound_component_method_defeats_stale_cache(
        self, echo, moderator
    ):
        moderator.register_aspect("ping", "a", FunctionAspect(concern="a"))
        proxy = ComponentProxy(echo, moderator)
        proxy.ping(1)
        echo.ping = lambda value=None: "rebound"
        assert proxy.ping(2) == "rebound"
        assert moderator.stats.preactivations == 2  # still moderated

    def test_cached_wrapper_still_moderates(self, echo, moderator):
        moderator.register_aspect("ping", "a", FunctionAspect(concern="a"))
        proxy = ComponentProxy(echo, moderator)
        for index in range(5):
            proxy.ping(index)
        assert moderator.stats.preactivations == 5
        assert moderator.stats.postactivations == 5


class TestCallAllocations:
    def test_passthrough_call_builds_no_joinpoint(self, echo, moderator):
        """Regression: ``call`` allocated (and numbered) a JoinPoint even
        for non-participating methods, then threw it away."""
        from repro.core import JoinPoint

        proxy = ComponentProxy(echo, moderator)
        before = JoinPoint(method_id="probe").activation_id
        assert proxy.call("ping", 7) == 7
        after = JoinPoint(method_id="probe").activation_id
        # consecutive probe ids -> no activation id was consumed in between
        assert after == before + 1


class TestSkipInvocation:
    def test_skip_returns_replacement_without_calling_body(
        self, echo, moderator
    ):
        moderator.register_aspect("ping", "cache", FunctionAspect(
            concern="cache",
            precondition=lambda jp: jp.skip_invocation("cached!") or True,
        ))
        proxy = ComponentProxy(echo, moderator)
        assert proxy.ping("real") == "cached!"
        assert echo.calls == []  # body skipped
        assert moderator.stats.postactivations == 1  # protocol balanced


class TestGuardedMethod:
    def make_class(self):
        class Base:
            def __init__(self):
                self.ran = []

            def act(self, value):
                self.ran.append(value)
                return value * 2

        class Proxy(Base):
            act = GuardedMethod("act")

            def __init__(self, moderator):
                super().__init__()
                self.moderator = moderator

        return Proxy

    def test_guarded_method_brackets_super_call(self):
        moderator = AspectModerator()
        events = []
        moderator.register_aspect("act", "a", FunctionAspect(
            concern="a",
            precondition=lambda jp: events.append("pre") or True,
            postaction=lambda jp: events.append("post"),
        ))
        proxy_class = self.make_class()
        proxy = proxy_class(moderator)
        assert proxy.act(21) == 42
        assert events == ["pre", "post"]
        assert proxy.ran == [21]

    def test_guarded_method_abort(self):
        moderator = AspectModerator()
        moderator.register_aspect("act", "g", FunctionAspect(
            concern="g", precondition=lambda jp: ABORT,
        ))
        proxy_class = self.make_class()
        proxy = proxy_class(moderator)
        with pytest.raises(MethodAborted):
            proxy.act(1)
        assert proxy.ran == []

    def test_class_access_returns_descriptor(self):
        proxy_class = self.make_class()
        assert isinstance(proxy_class.__dict__["act"], GuardedMethod)


def _entry_points(moderator):
    """One ``act(value)`` callable per built-in entry point, plus the
    list each component's body appends ``(value, phase)`` to."""
    from repro.core import moderated, participating

    ran = []

    class Component:
        def act(self, value):
            ran.append((value, self.phase_of()))
            return f"body:{value}"

        def phase_of(self):
            return seen["joinpoint"].phase if "joinpoint" in seen else None

    class Paper(Component):
        act = GuardedMethod("act")

        def __init__(self):
            self.moderator = moderator

    @moderated
    class Woven(Component):
        @participating
        def act(self, value):
            return Component.act(self, value)

        def __init__(self):
            self.moderator = moderator

    proxy = ComponentProxy(Component(), moderator)
    seen = {}
    return {
        "attribute": lambda value: proxy.act(value),
        "call": lambda value: proxy.call("act", value),
        "guarded_method": Paper().act,
        "woven": Woven().act,
    }, ran, seen


ENTRY_POINTS = ("attribute", "call", "guarded_method", "woven")


@pytest.mark.parametrize("compile_plans", [True, False])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestEveryEntryPoint:
    """All four entry points run one bracket, so they agree on skips,
    phases and the ``invoke`` arrow."""

    def test_cache_hit_skips_the_body(self, entry, compile_plans):
        # Regression: GuardedMethod ran the body after a caching aspect
        # served the activation, overwriting the cached result.
        moderator = AspectModerator(compile_plans=compile_plans)
        moderator.register_aspect("act", "cache", FunctionAspect(
            concern="cache",
            precondition=lambda jp: jp.skip_invocation("cached") or True,
        ))
        calls, ran, _seen = _entry_points(moderator)
        assert calls[entry](1) == "cached"
        assert ran == []
        assert moderator.stats.postactivations == 1

    def test_body_runs_in_invocation_phase(self, entry, compile_plans):
        # Regression: ComponentProxy.call left the phase at
        # PRE_ACTIVATION while the body ran.
        from repro.core.results import Phase

        moderator = AspectModerator(compile_plans=compile_plans)
        calls, ran, seen = _entry_points(moderator)
        moderator.register_aspect("act", "spy", FunctionAspect(
            concern="spy",
            precondition=lambda jp: seen.update(joinpoint=jp) or True,
        ))
        assert calls[entry](2) == "body:2"
        assert ran == [(2, Phase.INVOCATION)]
        assert seen["joinpoint"].phase is Phase.POST_ACTIVATION

    def test_invoke_arrow_emitted(self, entry, compile_plans):
        # Regression: GuardedMethod never emitted ``invoke``.
        from repro.core import Tracer

        moderator = AspectModerator(compile_plans=compile_plans)
        moderator.register_aspect("act", "a", FunctionAspect(concern="a"))
        calls, _ran, _seen = _entry_points(moderator)
        tracer = Tracer()
        moderator.events.subscribe(tracer)
        calls[entry](3)
        assert tracer.kinds() == [
            "preactivation", "precondition", "invoke", "postactivation",
            "postaction", "notify",
        ]
