"""STATE / SFUN framework."""

import pickle
from itertools import islice

import pytest

from repro.algorithms.bindings import (
    DISTINCT_SAMPLING_QUERY,
    HEAVY_HITTERS_QUERY,
    SUBSET_SUM_QUERY,
    standard_libraries,
)
from repro.analysis.signatures import SAMPLER_PROFILES
from repro.dsms.expr import EvalContext, Literal, StatefulCall, evaluate
from repro.dsms.parser.analyzer import analyze
from repro.dsms.parser.parser import parse_query
from repro.dsms.runtime import Gigascope
from repro.dsms.stateful import StatefulLibrary, StatefulState
from repro.errors import RegistryError, StatefulFunctionError
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed


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

    @library.sfun("read", state="counter_state", reader=True)
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


class TestReaders:
    """``reader=True``: the SFUN returns a value of its state and
    arguments, writes nothing and raises nothing; a node may call it once
    where its value cannot change (DESIGN.md §2)."""

    def test_declared_at_registration(self):
        library = make_counter_library()
        library.add_sfun("peek", "counter_state", lambda state: state.count, reader=True)
        library.add_sfun("poke", "counter_state", lambda state: state.count)
        assert [library.is_reader(name) for name in ("read", "peek", "bump", "poke", "nope")] == [
            True, True, False, False, False,
        ]

    def test_merge_keeps_the_declaration(self):
        b = StatefulLibrary()
        b.add_state("other_state", StatefulState)
        b.add_sfun("look", "other_state", lambda state: 1, reader=True)
        b.add_sfun("touch", "other_state", lambda state: 1)
        merged = make_counter_library().merge(b)
        assert {name for name in merged.sfun_names() if merged.is_reader(name)} == {"read", "look"}

    def test_the_analyzer_carries_it_onto_the_call(self):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(make_counter_library())
        analyzed = analyze(parse_query(
            "SELECT tb, srcIP, read(), bump(1) FROM TCP GROUP BY time/2 as tb, srcIP"
        ), gs.registries)
        calls = {n.name: n.reader for item in analyzed.ast.select for n in item.expr.walk()
                 if isinstance(n, StatefulCall)}
        assert calls == {"read": True, "bump": False}

    def test_every_shipped_reader_only_reads(self):
        """On each pack's states after a real run: two calls agree and
        leave the state's checkpoint as it was."""
        libraries = standard_libraries()
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        for library in libraries:
            gs.use_stateful_library(library)
        ops = [
            gs.add_query(text, name=f"q{i}").operator
            for i, text in enumerate((
                SUBSET_SUM_QUERY.format(window=60, target=20),
                HEAVY_HITTERS_QUERY.format(window=60, bucket=20),
                DISTINCT_SAMPLING_QUERY.format(window=60, capacity=10),
            ))
        ]
        gs.start()
        gs.feed(list(islice(research_center_feed(TraceConfig(rate_scale=0.005, seed=3)), 2000)))
        live = {name: state for op in ops for sg in op._tables.new_supergroups.values()
                for name, state in sg.states.items()}
        readers = [(library, name) for library in libraries for name in library.sfun_names()
                   if library.is_reader(name)]
        assert sorted(name for _, name in readers) == ["current_bucket", "dslevel", "ssthreshold"]
        for library, name in readers:
            state, fn = live[library.state_of(name)], library.callable_of(name)
            before = pickle.dumps(state.checkpoint())
            assert fn(state) == fn(state)
            assert pickle.dumps(state.checkpoint()) == before, name

    def test_every_read_only_sampler_profile_is_a_reader(self):
        declared = {name for library in standard_libraries() for name in library.sfun_names()
                    if library.is_reader(name)}
        read_only = {name for name, profile in SAMPLER_PROFILES.items() if not profile.admits}
        assert read_only == {"ssthreshold", "dslevel"} and read_only <= declared
