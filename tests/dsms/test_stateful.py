"""STATE / SFUN framework."""

import pytest

from repro.errors import RegistryError, StatefulFunctionError
from repro.dsms.expr import EvalContext, Literal, StatefulCall, evaluate
from repro.dsms.stateful import StatefulLibrary, StatefulState


def make_counter_library():
    library = StatefulLibrary()

    @library.state("counter_state")
    class CounterState(StatefulState):
        def __init__(self, start=0):
            self.count = start
            self.finalized = False

        @classmethod
        def initial(cls, old):
            # Carry half the old count into the new window.
            return cls(old.count // 2 if old is not None else 0)

        def on_window_final(self):
            self.finalized = True

    @library.sfun("bump", state="counter_state")
    def bump(state, amount):
        state.count += amount
        return state.count

    @library.sfun("read", state="counter_state")
    def read(state):
        return state.count

    return library


class TestRegistration:
    def test_state_and_sfun_lookup(self):
        library = make_counter_library()
        assert "bump" in library
        assert library.state_of("bump") == "counter_state"
        assert library.state_names() == ["counter_state"]
        assert library.sfun_names() == ["bump", "read"]

    def test_duplicate_state_rejected(self):
        library = make_counter_library()
        with pytest.raises(RegistryError):
            library.add_state("counter_state", StatefulState)

    def test_duplicate_sfun_rejected(self):
        library = make_counter_library()
        with pytest.raises(RegistryError):
            library.add_sfun("bump", "counter_state", lambda s: None)

    def test_state_must_subclass(self):
        library = StatefulLibrary()
        with pytest.raises(RegistryError, match="must subclass"):
            library.add_state("bad", object)  # type: ignore[arg-type]

    def test_unknown_lookups_raise(self):
        library = StatefulLibrary()
        with pytest.raises(RegistryError):
            library.state_of("nope")
        with pytest.raises(RegistryError):
            library.state_class("nope")
        with pytest.raises(RegistryError):
            library.callable_of("nope")


def call(library, fn_name, states, *args):
    """An SFUN called the way a compiled clause calls it: out of the
    library's ``functions``, its state first."""
    return library.functions[fn_name](states[library.state_of(fn_name)], *args)


class TestRuntime:
    def test_sfun_mutates_shared_state(self):
        library = make_counter_library()
        states = library.instantiate_states(["counter_state"])
        assert call(library, "bump", states, 5) == 5
        assert call(library, "bump", states, 2) == 7
        assert call(library, "read", states) == 7

    def test_window_carryover(self):
        library = make_counter_library()
        old = library.instantiate_states(["counter_state"])
        call(library, "bump", old, 10)
        new = library.instantiate_states(["counter_state"], old_states=old)
        assert call(library, "read", new) == 5

    def test_fresh_state_without_old(self):
        library = make_counter_library()
        states = library.instantiate_states(["counter_state"])
        assert call(library, "read", states) == 0

    def test_sfun_without_state_raises(self):
        library = make_counter_library()
        ctx = EvalContext(sfuns=library.functions)
        ctx.states = {}
        with pytest.raises(StatefulFunctionError, match="was not allocated"):
            evaluate(StatefulCall("bump", "counter_state", (Literal(1),)), ctx)

    def test_on_window_final_default_noop(self):
        StatefulState().on_window_final()  # must not raise


class TestMerge:
    def test_merge_combines_registries(self):
        a = make_counter_library()
        b = StatefulLibrary()

        @b.state("other_state")
        class Other(StatefulState):
            pass

        @b.sfun("noop", state="other_state")
        def noop(state):
            return True

        merged = a.merge(b)
        assert "bump" in merged and "noop" in merged
        assert set(merged.state_names()) == {"counter_state", "other_state"}

    def test_merge_state_collision_rejected(self):
        a = make_counter_library()
        b = make_counter_library()
        with pytest.raises(RegistryError, match="registered twice"):
            a.merge(b)

    def test_merge_does_not_mutate_inputs(self):
        a = make_counter_library()
        b = StatefulLibrary()

        @b.state("s2")
        class S2(StatefulState):
            pass

        @b.sfun("f2", state="s2")
        def f2(state):
            return 1

        a.merge(b)
        assert "f2" not in a
