"""One admission routine, one refusal path (``dsms/runtime.py``).

``admit_payload`` is the only code that routes, validates and coerces a
fed payload, and ``REFUSALS`` / ``account_refusal`` the only code that
charges, counts and traces a record a deployment does not process — on
the serial ring, at the SPLIT edge, at the serving edge and at the
supervisor's queues.  So every deployment refuses the same payloads for
the same reasons, and the conservation identity

    records read == stream_records_total
                 == stream_ingested_total + Σ REFUSALS counters

holds on each deployment's (folded) registry, with ``run_report()``'s
``streams`` columns reading the same counters.
"""

import ast
import glob
import math
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.dsms.cost import CostModel
from repro.dsms.runtime import REFUSALS, Gigascope
from repro.dsms.sharded import ShardedGigascope
from repro.obs.tracing import TraceSink
from repro.serving.faults import BreakerConfig
from repro.serving.server import StandingQueryEngine, TenantQuota, drive
from repro.streams.records import Record
from repro.streams.schema import PKT_SCHEMA, TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed

AGG_TEXT = "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/5 as tb, srcIP"

GOOD = list(
    research_center_feed(TraceConfig(duration_seconds=3, rate_scale=0.005, seed=11))
)[:48]


def _query_schema():
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    return gs.add_query(AGG_TEXT, name="q").output_schema


#: a registered *query's* output schema: a record carrying it names no
#: source stream, whatever the deployment's node table says
Q_SCHEMA = _query_schema()

KINDS = {
    "record": lambda r: r,
    "mapping": lambda r: dict(zip(TCP_SCHEMA.names, r.values)),
    "values": lambda r: tuple(r.values),
    "other_stream": lambda r: Record(PKT_SCHEMA, (r.values[0], 1, 2, 40, 1, 2, 6)),
    "query_schema": lambda r: Record(Q_SCHEMA, (0,) * len(Q_SCHEMA)),
    "nan_time": lambda r: Record(TCP_SCHEMA, (math.nan,) + r.values[1:]),
    "none_time": lambda r: Record(TCP_SCHEMA, (None,) + r.values[1:]),
    "non_record": lambda r: 42,
}
#: what ``validate_admission=True`` admits (the rest is dead-lettered)
ADMITTED = ("record", "mapping", "values")

mixes = st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=len(GOOD))
batch_sizes = st.sampled_from([1, 5, 16, 64])


def payloads_of(kinds):
    return [KINDS[kind](record) for kind, record in zip(kinds, GOOD)]


def bare(validate):
    gs = Gigascope(validate_admission=validate)
    gs.register_stream(TCP_SCHEMA)
    return gs


def serial(validate):
    gs = bare(validate)
    gs.add_query(AGG_TEXT, name="q")
    return gs


def sharded(validate, **kwargs):
    sh = ShardedGigascope(shards=2, validate_admission=validate, **kwargs)
    sh.register_stream(TCP_SCHEMA)
    sh.add_query(AGG_TEXT, name="q")
    return sh


def conserved(metrics, report, read):
    """The identity on one (folded) registry and its report; returns the
    refusal columns of the registered stream."""
    refused = {
        kind: int(metrics.total(row.counter)) for kind, row in REFUSALS.items()
    }
    assert read == metrics.total("stream_records_total")
    assert read == metrics.total("stream_ingested_total") + sum(refused.values())
    for stream, columns in report["streams"].items():
        for kind, row in REFUSALS.items():
            assert columns[kind] == metrics.total(row.counter, stream=stream)
    return {kind: report["streams"]["TCP"][kind] for kind in REFUSALS}


def dead_letters(quarantine):
    return sorted((e.reason, e.source) for e in quarantine.entries)


class TestEveryDeploymentRefusesAlike:
    @settings(max_examples=40, deadline=None)
    @given(kinds=mixes, batch_size=batch_sizes)
    def test_validated_payload_mix(self, kinds, batch_size):
        """Serial, two inline shards, served direct and served in a
        (would-be) sharing group: same dead letters, nothing raised,
        every registry conserved."""
        feed = payloads_of(kinds)
        admitted = sum(kind in ADMITTED for kind in kinds)

        gs = serial(True)
        assert gs.run(iter(feed), batch_size=batch_size) == len(feed)
        expected = conserved(gs.metrics, gs.run_report(), len(feed))
        letters = dead_letters(gs.quarantine)
        assert len(letters) == len(feed) - admitted
        assert gs.metrics.total("stream_ingested_total") == admitted

        sh = sharded(True)
        assert sh.run(iter(feed), batch_size=batch_size) == len(feed)
        assert conserved(sh.metrics, sh.run_report(), len(feed)) == expected
        assert dead_letters(sh.quarantine) == letters

        for count in (1, 2):
            engine = StandingQueryEngine(lambda: bare(True))
            # a lone query runs direct; equal twins would form a sharing
            # group, which per-instance validation declines
            twins = [engine.register(AGG_TEXT, name="q") for _ in range(count)]
            assert drive(engine, iter(feed), batch_size=batch_size) == len(feed)
            assert not engine.dead_letters.entries  # nothing raised in a query
            for sq in twins:
                instance = sq.instance
                assert conserved(
                    instance.metrics, instance.run_report(), len(feed)
                ) == expected
                assert dead_letters(instance.quarantine) == letters

    @settings(max_examples=40, deadline=None)
    @given(kinds=mixes, batch_size=batch_sizes)
    def test_unvalidated_payload_mix_raises_alike(self, kinds, batch_size):
        """Validation off: the first payload the serial ring cannot
        take raises, with the same text, at the SPLIT edge."""
        feed = payloads_of(kinds)
        outcomes = []
        for instance in (serial(False), sharded(False)):
            try:
                outcomes.append(("read", instance.run(iter(feed), batch_size=batch_size)))
            except ExecutionError as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes[0] == outcomes[1]


class TestSplitEdgeNamesNoQuery:
    """``_validate_edge`` used to test membership in the *node* table,
    which holds query names too: a record carrying a query's output
    schema passed validation and crashed ``_split``."""

    @pytest.mark.parametrize("supervise", [False, True], ids=["inline", "supervised"])
    def test_query_schema_record_is_quarantined_not_raised(self, supervise):
        feed = GOOD[:25] + [KINDS["query_schema"](GOOD[0])] + GOOD[25:]
        gs = serial(True)
        assert gs.run(iter(feed)) == len(feed)
        sh = sharded(True, supervise=supervise)
        assert sh.run(iter(feed), batch_size=16) == len(feed)
        for instance in (gs, sh):
            assert dead_letters(instance.quarantine) == [
                ("record for unregistered stream 'q'", "q")
            ]
            assert instance.metrics.total("stream_quarantined_total", stream="q") == 1
            conserved(instance.metrics, instance.run_report(), len(feed))


def _source_trees():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    for package in ("dsms", "serving"):
        pattern = os.path.join(src, package, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, "r", encoding="utf-8") as fh:
                yield ast.parse(fh.read())


class TestOneOwner:
    """The design, checked the way the issue states it: by grep."""

    def test_refusal_names_are_spelled_in_the_table_only(self):
        in_table = [
            cell for kind, row in REFUSALS.items() for cell in (kind, *row)
        ]
        spelled = []
        for tree in _source_trees():
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(
                    node, (ast.Module, ast.ClassDef, ast.FunctionDef)
                )
                and isinstance(node.body[0], ast.Expr)
            }
            spelled += [
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and id(node) not in docstrings
            ]
        for row in REFUSALS.values():
            for name in (row.op, row.counter):
                if name not in REFUSALS:  # a kind is what refusing sites pass
                    assert spelled.count(name) == in_table.count(name), name

    def test_one_function_coerces_payloads(self):
        callers = [
            node
            for tree in _source_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "coerce_record"
        ]
        assert len(callers) == 1


class TestOneTable:
    def test_one_help_string_whichever_edge_fires_first(self):
        bad = [KINDS["none_time"](GOOD[0])]
        gs, sh = serial(True), sharded(True)
        gs.run(iter(bad))
        sh.run(iter(bad))
        row = REFUSALS["quarantined"]
        assert gs.metrics.help_text(row.counter) == row.help
        assert sh.metrics.help_text(row.counter) == row.help

    def test_trace_events_keep_their_kinds_and_fields(self):
        gs = Gigascope(
            validate_admission=True, shed_threshold=4, trace=TraceSink()
        )
        gs.register_stream(TCP_SCHEMA)
        gs.add_query("SELECT time, len FROM TCP", name="sel")
        gs.start()
        gs.feed(GOOD[:6] + [KINDS["none_time"](GOOD[6])])
        gs.refuse("quota_shed", "TCP", 3)
        gs.refuse("poison_skipped", "TCP", 2)
        gs.finish()
        events = [
            (e.kind, sorted(e.fields))
            for e in gs.trace.events
            if not e.kind.startswith(("window", "group"))
        ]
        assert events == [
            ("quarantine", ["reason", "stream"]),
            ("shed", ["count", "stream"]),
            ("quota_shed", ["count", "stream"]),
            ("poison_skip", ["count", "stream"]),
        ]
        conserved(gs.metrics, gs.run_report(), 7 + 3 + 2)

    def test_a_refusal_outside_admission_counts_the_records_as_offered(self):
        cost = CostModel()
        gs = Gigascope(cost_model=cost)
        gs.register_stream(TCP_SCHEMA)
        gs.refuse("quota_shed", "TCP", 5)
        gs.refuse("shed", "TCP", 2, offered=False)  # admission counted them
        gs.refuse("poison_skipped", "TCP", 0)  # nothing to account
        m = gs.metrics
        assert m.total("stream_records_total") == 5
        assert m.total("stream_quota_shed_total") == 5
        assert m.total("stream_shed_total") == 2
        assert m.total("serve_poison_skipped_total") == 0
        assert cost.cycles("TCP") == 5 * cost.book.quota_shed + 2 * cost.book.tuple_shed


class TestServedQuotaAndBreaker:
    def test_five_term_identity_with_a_quota_and_an_open_breaker(self):
        # a scalar that raises once ``time`` passes 4, on a standard instance
        from tests.serving.test_faults import POISON_SHARED, poison_factory

        feed = list(
            research_center_feed(
                TraceConfig(duration_seconds=10, rate_scale=0.01, seed=5)
            )
        )
        engine = StandingQueryEngine(
            poison_factory,
            quotas={"metered": TenantQuota(cycles_per_record=100.0)},
            breaker=BreakerConfig(failure_threshold=1, cooldown_batches=2),
        )
        metered = engine.register(AGG_TEXT, name="q", tenant="metered")
        poisoned = engine.register(POISON_SHARED, name="q")
        assert drive(engine, iter(feed), batch_size=64) == len(feed)
        over_quota = conserved(
            metered.instance.metrics, metered.instance.run_report(), len(feed)
        )
        skipped = conserved(
            poisoned.instance.metrics, poisoned.instance.run_report(), len(feed)
        )
        assert over_quota["quota_shed"] > 0 and over_quota["poison_skipped"] == 0
        assert skipped["poison_skipped"] > 0 and skipped["quota_shed"] == 0


class TestCheckpointCarriesNoShadowCounters:
    KEYS = ("shed", "quarantined", "quota_shed", "poison_skipped")

    def fed(self):
        gs = Gigascope(shed_threshold=8)
        gs.register_stream(TCP_SCHEMA)
        gs.add_query(AGG_TEXT, name="q")
        gs.start()
        gs.feed(GOOD[:32])
        return gs

    def test_fresh_checkpoint_does_not_contain_them(self):
        gs = self.fed()
        assert gs.metrics.total("stream_shed_total") > 0
        state = gs.checkpoint()
        assert not set(self.KEYS) & set(state)
        for key in self.KEYS:
            assert not hasattr(gs, f"_{key}")

    def test_parent_shaped_checkpoint_still_restores(self):
        gs = self.fed()
        state = gs.checkpoint()
        # What the parent commit pickled into every checkpoint and journal
        # commit: per-stream dicts nothing ever read.
        state.update(
            shed={"TCP": 24}, quarantined={}, quota_shed={}, poison_skipped={}
        )
        fresh = Gigascope(shed_threshold=8)
        fresh.register_stream(TCP_SCHEMA)
        handle = fresh.add_query(AGG_TEXT, name="q")
        fresh.restore(pickle.loads(pickle.dumps(state)))
        fresh.start()
        fresh.feed(GOOD[32:])
        fresh.finish()
        gs.feed(GOOD[32:])
        gs.finish()
        assert [r.values for r in handle.results] == [
            r.values for r in gs.query("q").results
        ]
        assert fresh.metrics.comparable_items() == gs.metrics.comparable_items()
        assert fresh.run_report() == gs.run_report()
