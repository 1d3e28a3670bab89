"""Sharded parallel runtime: SPLIT / MERGE execution.

The load-bearing property: for a query whose state is partitionable,
running it hash-partitioned across N shards yields the oracle's window
output (up to within-window row order, hence :func:`canonical_rows`) —
drawn with everything else in ``tests/test_oracle.py``, with fixed
points in ``TestSerialEquivalence``.
"""

import pytest

from repro.analysis.legality import ExecTarget
from repro.errors import ExecutionError, PlanningError
from repro.dsms.cost import CostModel
from repro.dsms.parser.planner import compile_query, partition_info
from repro.dsms.runtime import Gigascope
from repro.dsms.sharded import ShardedGigascope, canonical_rows, stable_hash
from repro.streams.records import Record
from repro.streams.schema import PKT_SCHEMA, TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed
from repro.algorithms.bindings import (
    HEAVY_HITTERS_QUERY,
    RESERVOIR_QUERY,
    SUBSET_SUM_QUERY,
    reservoir_library,
    subset_sum_library,
)

from tests.test_oracle import TRACES, Case, Family, agree, stream


def trace(seconds=30, seed=11):
    config = TraceConfig(duration_seconds=seconds, rate_scale=0.02, seed=seed)
    return research_center_feed(config)


def with_supergroup(text, window):
    """Give the paper's query templates an explicit per-key supergroup so
    their SFUN state becomes shard-local (see partition_info)."""
    return text.replace(
        f"GROUP BY time/{window} as tb, srcIP, destIP, uts",
        f"GROUP BY time/{window} as tb, srcIP, destIP, uts"
        " SUPERGROUP BY tb, srcIP",
    ).replace(
        f"GROUP BY time/{window} as tb, srcIP\n",
        f"GROUP BY time/{window} as tb, srcIP SUPERGROUP BY tb, srcIP\n",
    )


HH_TEXT = with_supergroup(HEAVY_HITTERS_QUERY.format(window=5, bucket=100), 5)
SS_TEXT = with_supergroup(SUBSET_SUM_QUERY.format(window=5, target=500), 5)
AGG_TEXT = "SELECT tb, srcIP, sum(len), count(*) FROM TCP GROUP BY time/5 as tb, srcIP"


def serial_rows(text, library=None, feed=None):
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    if library is not None:
        gs.use_stateful_library(library)
    handle = gs.add_query(text, name="q")
    gs.run(feed if feed is not None else trace())
    return canonical_rows(handle.results)


def sharded_rows(text, shards, library=None, supervise=False, feed=None):
    sh = ShardedGigascope(shards=shards, supervise=supervise)
    sh.register_stream(TCP_SCHEMA)
    if library is not None:
        sh.use_stateful_library(library)
    handle = sh.add_query(text, name="q")
    sh.run(feed if feed is not None else trace())
    return canonical_rows(handle.results)


class TestStableHash:
    def test_deterministic_across_values(self):
        assert stable_hash("10.0.0.1") == stable_hash("10.0.0.1")
        assert stable_hash(12345) == stable_hash(12345)

    def test_spreads_keys(self):
        buckets = {stable_hash(i) % 4 for i in range(1000)}
        assert buckets == {0, 1, 2, 3}


class TestPartitionInfo:
    def test_selection_is_unconstrained(self, registries):
        plan = compile_query("SELECT time, srcIP, len FROM TCP", registries)
        info = partition_info(plan)
        assert info.candidates is None
        assert set(info.passthrough) == {"time", "srcIP", "len"}

    def test_aggregation_partitions_on_groupby(self, registries):
        plan = compile_query(AGG_TEXT, registries)
        info = partition_info(plan)
        assert info.candidates == ("srcIP",)
        assert info.passthrough == ("srcIP",)

    def test_derived_groupby_is_no_candidate(self, registries):
        plan = compile_query(
            "SELECT tb, b, count(*) FROM TCP GROUP BY time/5 as tb, srcIP/2 as b",
            registries,
        )
        info = partition_info(plan)
        assert info.candidates == ()
        assert info.reason

    def test_sampling_needs_nonordered_supergroup(self, registries):
        library = subset_sum_library()
        registries.stateful = registries.stateful.merge(library)
        plan = compile_query(SUBSET_SUM_QUERY.format(window=5, target=500), registries)
        info = partition_info(plan)
        assert info.candidates == ()
        assert "SUPERGROUP" in info.reason

    def test_sampling_with_keyed_supergroup(self, registries):
        library = subset_sum_library()
        registries.stateful = registries.stateful.merge(library)
        plan = compile_query(SS_TEXT, registries)
        info = partition_info(plan)
        assert info.candidates == ("srcIP",)


class TestRegistration:
    def test_reservoir_without_supergroup_rejected(self):
        sh = ShardedGigascope(shards=2)
        sh.register_stream(TCP_SCHEMA)
        sh.use_stateful_library(reservoir_library())
        with pytest.raises(PlanningError, match="SUPERGROUP"):
            sh.add_query(RESERVOIR_QUERY.format(window=5, target=50), name="res")

    def test_query_without_ordered_output_rejected(self):
        sh = ShardedGigascope(shards=2)
        sh.register_stream(TCP_SCHEMA)
        with pytest.raises(PlanningError, match="ordered attribute"):
            sh.add_query(
                "SELECT srcIP, sum(len) FROM TCP GROUP BY time/5 as tb, srcIP",
                name="agg",
            )

    def test_conflicting_partition_constraints_rejected(self):
        sh = ShardedGigascope(shards=2)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(
            "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/5 as tb, srcIP",
            name="by_src",
        )
        sh.add_query(
            "SELECT tb, destIP, count(*) FROM TCP GROUP BY time/5 as tb, destIP",
            name="by_dst",
        )
        with pytest.raises(PlanningError, match="no partition column"):
            sh.run(trace(seconds=1))

    def test_shards_must_be_positive(self):
        with pytest.raises(PlanningError):
            ShardedGigascope(shards=0)

    def test_partition_column_resolution(self):
        sh = ShardedGigascope(shards=2)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(AGG_TEXT, name="agg")
        assert sh.partition_column("TCP") == "srcIP"

    def test_explain_mentions_split_and_merge(self):
        sh = ShardedGigascope(shards=2)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(AGG_TEXT, name="agg")
        rendered = sh.explain()
        assert "split TCP by hash(srcIP) % 2" in rendered
        assert "merge agg" in rendered


class TestSerialEquivalence:
    """Fixed points of the oracle generator (``tests/test_oracle.py``):
    sharded rows equal the oracle's up to within-window order, and the
    series and charges the tuple engine's one run."""

    def sharded(self, text, shards):
        seen = agree(Case(Family((text,)), stream(TRACES["sparse"]), target=ExecTarget(shards=shards)))
        assert seen.rows["q"]  # the trace must actually exercise the query

    @pytest.mark.parametrize("shards", [2, 3])
    def test_aggregation(self, shards):
        self.sharded(AGG_TEXT, shards)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_heavy_hitters(self, shards):
        self.sharded(HH_TEXT, shards)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_subset_sum_fixed_seed(self, shards):
        self.sharded(SS_TEXT, shards)

    def test_single_shard_passthrough(self):
        self.sharded(AGG_TEXT, 1)

    def test_selection_only(self):
        self.sharded("SELECT time, srcIP, len FROM TCP WHERE len > 500", 3)


class TestProcessMode:
    def test_forked_workers_match_serial(self):
        library = subset_sum_library(relax_factor=10.0)
        expected = serial_rows(SS_TEXT, library)
        got = sharded_rows(
            SS_TEXT, 2, subset_sum_library(relax_factor=10.0), supervise=True
        )
        assert got == expected

    def test_worker_failure_surfaces(self):
        sh = ShardedGigascope(shards=2, supervise=True)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(AGG_TEXT, name="agg")
        bad = Record(PKT_SCHEMA, (0, 1, 2, 100, 1024, 80, 6))
        with pytest.raises(ExecutionError):
            sh.run(iter([bad]))


class TestSecondRun:
    """A second run() accumulates, like the serial runtime's."""

    @pytest.mark.parametrize("supervise", [False, True], ids=["inline", "supervised"])
    def test_second_run_appends_the_later_windows(self, supervise):
        first = list(trace(seconds=10))
        later = [
            Record(TCP_SCHEMA, (r.values[0] + 100,) + r.values[1:]) for r in first
        ]
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        serial = gs.add_query(AGG_TEXT, name="q")
        sh = ShardedGigascope(shards=2, supervise=supervise)
        sh.register_stream(TCP_SCHEMA)
        handle = sh.add_query(AGG_TEXT, name="q")
        for part in (first, later):
            gs.run(iter(part))
            sh.run(iter(part))
        assert canonical_rows(handle.results) == canonical_rows(serial.results)


class TestSplitEdgeValidation:
    """validate_admission=True: malformed records are dead-lettered in
    the parent, and still counted as read and as offered."""

    BAD = (5, 90, 91, 700)

    def damaged(self):
        from repro.testing.faults import FaultySource, SourceFault

        return FaultySource(
            list(trace(seconds=10)), [SourceFault("corrupt", i) for i in self.BAD]
        ).damaged

    @pytest.mark.parametrize("supervise", [False, True], ids=["inline", "supervised"])
    def test_quarantined_records_are_read_offered_and_reported(self, supervise):
        damaged = self.damaged()
        gs = Gigascope(validate_admission=True)
        gs.register_stream(TCP_SCHEMA)
        serial = gs.add_query(AGG_TEXT, name="q")
        assert gs.run(iter(damaged), batch_size=256) == len(damaged)

        sh = ShardedGigascope(shards=2, supervise=supervise, validate_admission=True)
        sh.register_stream(TCP_SCHEMA)
        handle = sh.add_query(AGG_TEXT, name="q")
        assert sh.run(iter(damaged), batch_size=256) == len(damaged)
        assert canonical_rows(handle.results) == canonical_rows(serial.results)

        m = sh.metrics
        assert sh.quarantine.total == len(self.BAD)
        assert m.total("stream_quarantined_total") == len(self.BAD)
        assert m.total("stream_records_total") == len(damaged)
        assert m.total("stream_records_total") == (
            m.total("stream_ingested_total")
            + m.total("stream_shed_total")
            + m.total("stream_quarantined_total")
        )
        assert sh.run_report()["streams"]["TCP"]["quarantined"] == len(self.BAD)
        assert (
            sh.run_report()["streams"]["TCP"]
            == gs.run_report()["streams"]["TCP"]
        )


class TestCostAggregation:
    def test_accounts_aggregate_under_query_name(self):
        def cycles(shards, supervise=False):
            cm = CostModel()
            sh = ShardedGigascope(shards=shards, supervise=supervise, cost_model=cm)
            sh.register_stream(TCP_SCHEMA)
            sh.add_query(AGG_TEXT, name="agg")
            sh.run(trace(seconds=10))
            return cm.cycles("agg")

        serial_cm = CostModel()
        gs = Gigascope(cost_model=serial_cm)
        gs.register_stream(TCP_SCHEMA)
        gs.add_query(AGG_TEXT, name="agg")
        gs.run(trace(seconds=10))
        reference = serial_cm.cycles("agg")
        assert reference > 0

        for shards, supervise in ((2, False), (2, True)):
            total = cycles(shards, supervise)
            # Same work, one account: only per-shard window-flush overhead
            # may differ from serial.
            assert total == pytest.approx(reference, rel=0.05)

    def test_cpu_percent_exposed(self):
        cm = CostModel()
        sh = ShardedGigascope(shards=2, cost_model=cm)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(AGG_TEXT, name="agg")
        sh.run(trace(seconds=10))
        assert sh.cpu_percent("agg", 10.0) > 0


class TestMultiStreamDag:
    def pkt(self, time, src, length):
        return Record(PKT_SCHEMA, (time, src, 2, length, 1024, 80, 6))

    def mixed_feed(self):
        tcp = list(trace(seconds=20))
        pkt = [self.pkt(t // 50, (t * 7) % 31, 100 + t % 400) for t in range(1000)]
        # Interleave the two streams the way a dual-tap deployment would.
        feed = []
        for i in range(max(len(tcp), len(pkt))):
            if i < len(tcp):
                feed.append(tcp[i])
            if i < len(pkt):
                feed.append(pkt[i])
        return feed

    def build(self, factory):
        dsms = factory()
        dsms.register_stream(TCP_SCHEMA)
        dsms.register_stream(PKT_SCHEMA)
        tcp_q = dsms.add_query(AGG_TEXT, name="tcp_agg")
        pkt_q = dsms.add_query(
            "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/2 as tb, srcIP",
            name="pkt_agg",
        )
        dsms.run(iter(self.mixed_feed()))
        return canonical_rows(tcp_q.results), canonical_rows(pkt_q.results)

    def test_two_streams_two_chains(self):
        serial = self.build(Gigascope)
        sharded = self.build(lambda: ShardedGigascope(shards=3))
        assert sharded == serial
        # Both chains actually produced output.
        assert all(serial)

    def test_merge_of_query_outputs(self):
        def build(factory):
            dsms = factory()
            dsms.register_stream(TCP_SCHEMA)
            dsms.add_query(
                "SELECT time, srcIP, len FROM TCP WHERE len > 800", name="big"
            )
            dsms.add_query(
                "SELECT time, srcIP, len FROM TCP WHERE len < 80", name="small"
            )
            merged = dsms.add_merge("tails", ["big", "small"])
            dsms.run(trace(seconds=10))
            return canonical_rows(merged.results)

        serial = build(Gigascope)
        sharded = build(lambda: ShardedGigascope(shards=2))
        assert serial  # non-trivial
        assert sharded == serial
