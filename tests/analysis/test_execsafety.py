"""The SA3xx execution-safety rules (``repro.analysis.execsafety``).

The family's contract is a **one-to-one mapping** with the runtime
refusal sites: ``repro lint --target <spec>`` must report an SA3xx error
exactly when deploying the query under ``<spec>`` makes
``ShardedGigascope.add_query`` or ``DurableRunner.__init__`` raise.
These tests pin both directions over the whole shipped example corpus
plus targeted single-rule cases.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.execsafety import ExecTarget, parse_target
from repro.analysis.linter import default_lint_registries, lint_source
from repro.dsms.durability import DurableRunner, ResultJournal
from repro.dsms.rebalance import RebalancePolicy
from repro.dsms.runtime import Gigascope
from repro.dsms.sharded import ShardedGigascope
from repro.dsms.stateful import StatefulLibrary, StatefulState
from repro.errors import ExecutionError, PlanningError
from repro.serving.server import StandingQueryEngine
from repro.streams.schema import TCP_SCHEMA
from repro.algorithms.bindings import (
    basic_subset_sum_library,
    distinct_sampling_library,
    heavy_hitters_library,
    reservoir_library,
    subset_sum_library,
)

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples/queries").glob("*.gsql")
)


def rules_of(result):
    return {d.rule for d in result.diagnostics}


def make_runtime(
    shards=0, supervise=False, shed_threshold=None, rebalance=False, target=None
):
    """A fully-loaded runtime mirroring the lint registries: the instance
    ``target`` describes (whatever drives it — ``durable``, ``serve`` —
    goes on top)."""
    if target is None:
        target = ExecTarget(
            shards=shards or None,
            supervise=supervise,
            rebalance=rebalance,
            shed_threshold=shed_threshold,
        )
    if target.sharded:
        gs = ShardedGigascope(
            shards=target.shards,
            supervise=target.supervise,
            shed_threshold=target.shed_threshold,
            rebalance=RebalancePolicy() if target.rebalance else None,
        )
    else:
        gs = Gigascope(shed_threshold=target.shed_threshold)
    gs.register_stream(TCP_SCHEMA)
    for pack in (
        subset_sum_library(),
        basic_subset_sum_library(),
        reservoir_library(),
        heavy_hitters_library(),
        distinct_sampling_library(),
    ):
        gs.use_stateful_library(pack)
    return gs


class TestParseTarget:
    def test_full_spec(self):
        target = parse_target("shards=4,supervise,durable,shed=100")
        assert target == ExecTarget(
            shards=4,
            supervise=True,
            durable=True,
            shed_threshold=100,
        )

    def test_empty_means_serial(self):
        target = parse_target("")
        assert target == ExecTarget()
        assert not target.sharded
        assert target.describe() == "serial"

    def test_describe_round_trips(self):
        spec = "shards=4,supervise,durable"
        assert parse_target(spec).describe() == spec

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("shards=zero", "integer"),
            ("shards=0", ">= 1"),
            ("durable=1", "takes no value"),
            ("bogus", "unknown target item"),
            ("processes", "unknown target item"),  # removed with the mode
            ("shed", "integer"),
        ],
    )
    def test_rejects_bad_specs(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_target(spec)

    def test_whitespace_tolerated(self):
        assert parse_target(" shards = 2 , durable ") == ExecTarget(
            shards=2, durable=True
        )

    def test_rebalance_flag(self):
        target = parse_target("shards=4,supervise,rebalance")
        assert target == ExecTarget(shards=4, supervise=True, rebalance=True)
        assert target.describe() == "shards=4,supervise,rebalance"


class TestTargetsNoRuntimeCanBuild:
    """A deployment that cannot exist is not a target (it used to lint
    ``ok``): the dataclass refuses it, so ``--target`` and ``repro
    query``'s flags refuse it with one sentence."""

    @pytest.mark.parametrize("flag", ["supervise", "rebalance"])
    def test_workers_and_migration_need_shards(self, flag):
        with pytest.raises(ValueError, match=r"shards=N"):
            ExecTarget(**{flag: True})
        with pytest.raises(ValueError, match=rf"'{flag}' needs shards=N"):
            parse_target(flag)
        assert getattr(parse_target(f"shards=2,{flag}"), flag)

    def test_the_serving_engine_is_serial(self):
        with pytest.raises(ValueError, match="serial Gigascope"):
            parse_target("serve,shards=2")
        with pytest.raises(ValueError, match="serial Gigascope"):
            ExecTarget(shards=1, serve=True)


class TestGating:
    def test_no_target_no_sa3xx(self, registries):
        # unsound_unshardable is the worst case: serial lint stays clean.
        text = (EXAMPLES[0].parent / "unsound_unshardable.gsql").read_text()
        result = lint_source(text, registries)
        assert result.clean, result.render()

    def test_all_sa3xx_are_errors(self, registries):
        text = (EXAMPLES[0].parent / "unsound_unshardable.gsql").read_text()
        result = lint_source(
            text, registries, target=parse_target("shards=4,durable")
        )
        assert rules_of(result) == {"SA301", "SA302"}
        assert all(d.is_error for d in result.diagnostics)


class TestSingleRules:
    def test_sa301_no_ordered_output(self, registries):
        result = lint_source(
            "SELECT srcIP, destIP FROM TCP WHERE len > 100\n"
            "-- lint: disable=SA102",
            registries,
            target=parse_target("shards=2"),
        )
        assert "SA301" in rules_of(result), result.render()

    def test_sa301_silenced_by_ordered_column(self, registries):
        result = lint_source(
            "SELECT time, srcIP FROM TCP WHERE len > 100\n"
            "-- lint: disable=SA102",
            registries,
            target=parse_target("shards=2"),
        )
        assert "SA301" not in rules_of(result), result.render()

    def test_sa302_unpartitionable_state(self, registries):
        result = lint_source(
            "SELECT time, srcIP FROM TCP WHERE ssbasic(len, 25) = TRUE",
            registries,
            target=parse_target("shards=2"),
        )
        diags = [d for d in result.diagnostics if d.rule == "SA302"]
        assert diags, result.render()
        # Anchored on the SFUN call whose global state blocks sharding.
        assert diags[0].span is not None and diags[0].span.line == 1

    def test_sa303_durable_plus_shedding(self, registries):
        result = lint_source(
            "SELECT tb, sum(len) FROM TCP GROUP BY time/20 as tb",
            registries,
            target=parse_target("durable,shed=100"),
        )
        assert "SA303" in rules_of(result)

    def test_durable_shards_lint_clean_under_either_pool(self, registries):
        for spec in ("shards=4,durable", "shards=4,durable,supervise"):
            result = lint_source(
                "SELECT tb, srcIP, sum(len) FROM TCP GROUP BY time/20 as tb, srcIP",
                registries,
                target=parse_target(spec),
            )
            assert result.clean, result.render()

    def test_pragma_applies_to_sa3xx(self, registries):
        text = (EXAMPLES[0].parent / "unsound_unshardable.gsql").read_text()
        result = lint_source(
            "-- lint: disable=SA301,SA302\n" + text,
            registries,
            target=parse_target("shards=4,durable"),
        )
        assert result.clean, result.render()


def flaky_library():
    """A pack whose state opts out of checkpointing (SA305 fixture)."""
    library = StatefulLibrary()

    @library.state("flaky_state")
    class FlakyState(StatefulState):
        checkpointable = False  # models a live external resource

    @library.sfun("flaky", state="flaky_state")
    def flaky(state: FlakyState, measure: int) -> bool:
        return True

    return library


FLAKY_QUERY = "SELECT time, srcIP FROM TCP WHERE flaky(len) = TRUE"
#: the same state in a plan that shards cleanly (state per tb, srcIP)
FLAKY_SAMPLING = (
    "SELECT tb, srcIP, count(*) FROM TCP WHERE flaky(len) = TRUE"
    " GROUP BY time/20 as tb, srcIP SUPERGROUP BY tb, srcIP"
)


class TestSA305:
    def make_registries(self):
        registries = default_lint_registries()
        registries.stateful = registries.stateful.merge(flaky_library())
        return registries

    def test_non_checkpointable_state_under_durable(self):
        result = lint_source(
            FLAKY_QUERY, self.make_registries(), target=parse_target("durable")
        )
        diags = [d for d in result.diagnostics if d.rule == "SA305"]
        assert diags, result.render()
        assert "flaky_state" in diags[0].message

    def test_checkpointable_states_are_fine(self, registries):
        result = lint_source(
            "SELECT time, srcIP FROM TCP WHERE rsample(100) = TRUE\n"
            "GROUP BY time/20 as tb, srcIP, uts\n"
            "HAVING rsfinal_clean() = TRUE\n"
            "CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE\n"
            "CLEANING BY rsclean_with() = TRUE",
            registries,
            target=parse_target("durable"),
        )
        assert "SA305" not in rules_of(result), result.render()

    def test_runtime_twin_refuses(self, tmp_path):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(flaky_library())
        gs.add_query(FLAKY_QUERY, name="q")
        with pytest.raises(ExecutionError, match="flaky_state"):
            DurableRunner(gs, str(tmp_path / "journal.bin"))

    def test_every_opted_out_state_is_named_in_one_pass(self, tmp_path):
        # Fixing the first must not be what reveals the second.
        brittle = StatefulLibrary()

        @brittle.state("brittle_state")
        class BrittleState(StatefulState):
            checkpointable = False

        @brittle.sfun("brittle", state="brittle_state")
        def brittle_sfun(state: BrittleState, measure: int) -> bool:
            return True

        text = "SELECT time, srcIP FROM TCP WHERE flaky(len) = TRUE AND brittle(len) = TRUE"
        registries = self.make_registries()
        registries.stateful = registries.stateful.merge(brittle)
        for spec, rule in [("durable", "SA305"), ("shards=2,rebalance", "SA306")]:
            result = lint_source(text, registries, target=parse_target(spec))
            (diag,) = [d for d in result.diagnostics if d.rule == rule]
            assert "SFUN state 'flaky_state' declares checkpointable=False" in diag.message
            assert "(as do 'brittle_state')" in diag.message
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(flaky_library())
        gs.use_stateful_library(brittle)
        gs.add_query(text, name="q")
        with pytest.raises(ExecutionError, match="flaky_state.*brittle_state"):
            DurableRunner(gs, str(tmp_path / "journal.bin"))

    def test_runtime_accepts_checkpointable_state(self, tmp_path):
        gs = make_runtime()
        gs.add_query(
            "SELECT time, srcIP FROM TCP WHERE ssbasic(len, 25) = TRUE",
            name="q",
        )
        runner = DurableRunner(gs, str(tmp_path / "journal.bin"))
        assert runner is not None

    def test_supervised_workers_are_a_checkpointing_target(self):
        registries = self.make_registries()
        for spec, refused in [("shards=2,supervise", True), ("shards=2", False)]:
            result = lint_source(FLAKY_SAMPLING, registries, target=parse_target(spec))
            assert ("SA305" in rules_of(result)) == refused, result.render()

    @pytest.mark.parametrize("supervise", [True, False])
    def test_supervised_twin_refuses_at_registration(self, supervise):
        # A restarted worker recovers from a checkpoint: refused up
        # front, not by burning the restart budget on a pickling error.
        sh = ShardedGigascope(shards=2, supervise=supervise)
        sh.register_stream(TCP_SCHEMA)
        sh.use_stateful_library(flaky_library())
        if supervise:
            with pytest.raises(PlanningError, match="flaky_state"):
                sh.add_query(FLAKY_SAMPLING, name="q")
        else:
            assert sh.add_query(FLAKY_SAMPLING, name="q") is not None

    @pytest.mark.parametrize("journalled", [True, False])
    def test_journalled_serve_twin_refuses_at_registration(self, tmp_path, journalled):
        def factory():
            gs = Gigascope()
            gs.register_stream(TCP_SCHEMA)
            gs.use_stateful_library(flaky_library())
            return gs

        journal = ResultJournal(str(tmp_path / "j.bin"), fresh=True) if journalled else None
        engine = StandingQueryEngine(factory, journal=journal)
        if journalled:
            with pytest.raises(ExecutionError, match="flaky_state"):
                engine.register(FLAKY_QUERY, name="q")
            assert engine.queries() == []
        else:
            assert engine.register(FLAKY_QUERY, name="q").active
        engine.close()


class TestSA306:
    def make_registries(self):
        registries = default_lint_registries()
        registries.stateful = registries.stateful.merge(flaky_library())
        return registries

    def test_non_migratable_state_under_rebalance(self):
        result = lint_source(
            FLAKY_QUERY,
            self.make_registries(),
            target=parse_target("shards=2,rebalance"),
        )
        diags = [d for d in result.diagnostics if d.rule == "SA306"]
        assert diags, result.render()
        assert "flaky_state" in diags[0].message
        assert "not migratable across shard boundaries" in diags[0].message

    def test_silent_without_rebalance_flag(self):
        result = lint_source(
            FLAKY_QUERY,
            self.make_registries(),
            target=parse_target("shards=2"),
        )
        assert "SA306" not in rules_of(result), result.render()

    def test_checkpointable_states_are_fine(self, registries):
        text = (EXAMPLES[0].parent / "top_talkers.gsql").read_text()
        result = lint_source(
            text, registries, target=parse_target("shards=2,rebalance")
        )
        assert "SA306" not in rules_of(result), result.render()

    def test_runtime_twin_refuses(self):
        sh = ShardedGigascope(shards=2, rebalance=RebalancePolicy())
        sh.register_stream(TCP_SCHEMA)
        sh.use_stateful_library(flaky_library())
        with pytest.raises(
            PlanningError, match="not migratable across shard boundaries"
        ):
            sh.add_query(FLAKY_QUERY, name="q")

    def test_runtime_accepts_checkpointable_state(self):
        sh = make_runtime(shards=2, rebalance=True)
        text = (EXAMPLES[0].parent / "top_talkers.gsql").read_text()
        assert sh.add_query(text, name="q") is not None


class TestOneToOneMapping:
    """lint --target reports an error ⟺ the runtime refuses the deployment."""

    @pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
    def test_sharding_verdict_matches_runtime(self, registries, path):
        text = path.read_text()
        result = lint_source(text, registries, target=parse_target("shards=4"))
        lint_refuses = bool(
            {"SA301", "SA302"} & {d.rule for d in result.errors}
        )
        gs = make_runtime(shards=4)
        try:
            gs.add_query(text, name="q")
            runtime_refuses = False
        except PlanningError:
            runtime_refuses = True
        assert lint_refuses == runtime_refuses, result.render()

    @pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
    def test_rebalance_verdict_matches_runtime(self, registries, path):
        text = path.read_text()
        result = lint_source(
            text, registries, target=parse_target("shards=4,rebalance")
        )
        lint_refuses = bool(
            {"SA301", "SA302", "SA306"} & {d.rule for d in result.errors}
        )
        gs = make_runtime(shards=4, rebalance=True)
        try:
            gs.add_query(text, name="q")
            runtime_refuses = False
        except PlanningError:
            runtime_refuses = True
        assert lint_refuses == runtime_refuses, result.render()

    @pytest.mark.parametrize(
        "text",
        [FLAKY_SAMPLING, FLAKY_QUERY, (EXAMPLES[0].parent / "top_talkers.gsql").read_text()],
        ids=["flaky-sampling", "flaky-selection", "top_talkers"],
    )
    def test_supervise_verdict_matches_runtime(self, text):
        registries = default_lint_registries()
        registries.stateful = registries.stateful.merge(flaky_library())
        result = lint_source(
            text, registries, target=parse_target("shards=4,supervise")
        )
        lint_refuses = bool(
            {"SA301", "SA302", "SA305"} & {d.rule for d in result.errors}
        )
        gs = make_runtime(shards=4, supervise=True)
        gs.use_stateful_library(flaky_library())
        try:
            gs.add_query(text, name="q")
            runtime_refuses = False
        except PlanningError:
            runtime_refuses = True
        assert lint_refuses == runtime_refuses, result.render()

    @pytest.mark.parametrize(
        "spec, shards, supervise, shed",
        [
            ("durable", 0, False, None),
            ("durable,shed=100", 0, False, 100),
            ("shards=4,durable", 4, False, None),
            ("shards=4,durable,supervise", 4, True, None),
        ],
    )
    def test_durability_verdict_matches_runtime(
        self, registries, tmp_path, spec, shards, supervise, shed
    ):
        # top_talkers shards cleanly, so any refusal is durability's.
        text = (EXAMPLES[0].parent / "top_talkers.gsql").read_text()
        result = lint_source(text, registries, target=parse_target(spec))
        lint_refuses = bool(
            {"SA303", "SA305"} & {d.rule for d in result.errors}
        )
        gs = make_runtime(shards=shards, supervise=supervise, shed_threshold=shed)
        gs.add_query(text, name="q")
        try:
            DurableRunner(gs, str(tmp_path / "journal.bin"))
            runtime_refuses = False
        except ExecutionError:
            runtime_refuses = True
        assert lint_refuses == runtime_refuses, result.render()


LATTICE_QUERIES = {path.stem: path.read_text() for path in EXAMPLES}
LATTICE_QUERIES.update(flaky_sampling=FLAKY_SAMPLING, flaky_selection=FLAKY_QUERY)


def deploy(target, text, directory):
    """Build the deployment ``target`` describes and register ``text`` on
    it; returns what describes itself (the instance, or the runner over
    it) — ``None`` behind the engine, which keeps a target per instance."""

    def instance():
        gs = make_runtime(target=replace(target, durable=False, serve=False))
        gs.use_stateful_library(flaky_library())
        return gs

    journal = os.path.join(directory, "journal.bin")
    if target.serve:
        engine = StandingQueryEngine(
            instance,
            journal=ResultJournal(journal, fresh=True) if target.durable else None,
        )
        try:
            engine.register(text, name="q")
        finally:
            engine.close()
        return None
    gs = instance()
    gs.add_query(text, name="q")
    return DurableRunner(gs, journal) if target.durable else gs


class TestOneTableTwoReaders:
    def test_every_row_has_a_doc_row_and_a_sarif_title(self):
        from repro.analysis.legality import RULES
        from repro.analysis.sarif import RULE_DESCRIPTIONS

        docs = (EXAMPLES[0].parents[2] / "docs" / "LINT_RULES.md").read_text()
        for rule in RULES:
            assert f"| {rule.id} |" in docs, f"{rule.id} has no row in LINT_RULES.md"
            assert RULE_DESCRIPTIONS[rule.id] == rule.title

    def test_an_instance_lints_against_itself(self):
        text = LATTICE_QUERIES["unsound_unshardable"]
        assert make_runtime().lint(text).clean
        sharded = make_runtime(shards=2)
        assert sharded.lint(text).target == sharded.target == parse_target("shards=2")
        assert rules_of(sharded.lint(text)) == {"SA301", "SA302"}

    def test_a_journalled_engine_refuses_shedding_like_the_runner(self, tmp_path):
        # One SA303 row, two drivers: the same serial shedding instance
        # was refused durability by DurableRunner and granted it by the
        # engine, which nothing had ever resumed.
        text = LATTICE_QUERIES["top_talkers"]
        with pytest.raises(ExecutionError) as runner:
            deploy(parse_target("durable,shed=100"), text, str(tmp_path))
        engine = StandingQueryEngine(
            lambda: make_runtime(shed_threshold=100),
            journal=ResultJournal(str(tmp_path / "j.bin"), fresh=True),
        )
        with pytest.raises(ExecutionError) as served:
            engine.register(text, name="q")
        assert engine.queries() == []
        engine.close()
        sentence = "shedding depends on wall-clock queue depths"
        assert sentence in str(runner.value) and sentence in str(served.value)
        # Without a journal the same factory serves (on a private feed).
        unjournalled = StandingQueryEngine(lambda: make_runtime(shed_threshold=100))
        assert unjournalled.register(text, name="q").active
        unjournalled.close()


class TestAnnotations:
    def test_execsafety_exported_without_target(self, registries):
        result = lint_source(
            "SELECT tb, srcIP, sum(len) FROM TCP GROUP BY time/20 as tb, srcIP",
            registries,
        )
        facts = result.plan.annotations["execsafety"]
        assert facts["target"] is None
        assert facts["mergeable"] is True
        assert facts["shardable"] is True
        assert "srcIP" in facts["partition_candidates"]
        assert facts["checkpointable"] is True

    def test_states_and_verdicts_for_stateful_selection(self, registries):
        result = lint_source(
            "SELECT time, srcIP FROM TCP WHERE ssbasic(len, 25) = TRUE",
            registries,
            target=parse_target("durable"),
        )
        facts = result.plan.annotations["execsafety"]
        assert facts["states"] and facts["partition_candidates"] == []
        assert facts["shardable"] is False
        assert facts["target"]["durable"] is True
