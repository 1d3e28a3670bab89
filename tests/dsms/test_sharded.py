"""Sharded parallel runtime: SPLIT / MERGE execution.

The load-bearing property: for a query whose state is partitionable,
running it hash-partitioned across N shards yields the oracle's window
output (up to within-window row order, hence :func:`canonical_rows`) —
drawn with everything else in ``tests/test_oracle.py``, with fixed
points in ``TestSerialEquivalence``.
"""

import math
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from repro.analysis.legality import ExecTarget
from repro.errors import ExecutionError, PlanningError
from repro.dsms.cost import CostModel
from repro.dsms.parser.planner import compile_query, partition_info
from repro.dsms import sharded
from repro.dsms.runtime import Gigascope, StreamRun, run_stream
from repro.dsms.sharded import ShardedGigascope, canonical_rows, stable_hash
from repro.streams.records import Record
from repro.streams.schema import PKT_SCHEMA, TCP_SCHEMA, Attribute, Ordering, StreamSchema
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed
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

    # Recorded when routing hashed every key's repr: int, str and
    # non-integral float keys still route where they did.
    @pytest.mark.parametrize(
        "key, recorded",
        [
            (0, 4108050209),
            (1, 2212294583),
            (-1, 808273962),
            (12345, 3421846044),
            (2**40, 1057089833),
            ("10.0.0.1", 3056206504),
            ("abc", 2530215470),
            ("", 1041634801),
            (0.5, 2258563469),
        ],
    )
    def test_int_and_str_keys_route_where_they_did(self, key, recorded):
        assert stable_hash(key) == recorded

    def test_keys_that_compare_equal_hash_equal(self):
        assert stable_hash(-0.0) == stable_hash(0.0) == stable_hash(0)
        assert stable_hash(True) == stable_hash(1) == stable_hash(1.0)
        assert stable_hash(False) == stable_hash(0)
        assert stable_hash(-3.0) == stable_hash(-3)
        assert stable_hash(2.5) != stable_hash(2)


def keyed(type_tag):
    """A stream whose partition column ``k`` has the given type."""
    return StreamSchema(
        "F",
        [
            Attribute("time", "int", Ordering.INCREASING),
            Attribute("k", type_tag),
            Attribute("v", "int"),
        ],
    )


KEYED_TEXT = "SELECT tb, k, sum(v) FROM F GROUP BY time/2 as tb, k"


def keyed_rows(schema, values, shards=0, supervise=False):
    """``KEYED_TEXT``'s rows over unvalidated records, serial when
    ``shards`` is 0, as their ``repr`` so that ``-0.0`` is not ``0.0``."""
    gs = ShardedGigascope(shards=shards, supervise=supervise) if shards else Gigascope()
    gs.register_stream(schema)
    handle = gs.add_query(KEYED_TEXT, name="q")
    gs.run(iter([Record(schema, v) for v in values]))
    return repr(canonical_rows(handle.results))


class TestEqualKeysShareAShard:
    """GROUP BY groups by ``==``; the SPLIT must route by it too, or two
    shards each hold half of one group and emit it twice."""

    def agree(self, schema, values):
        serial = keyed_rows(schema, values)
        assert keyed_rows(schema, values, shards=2) == serial
        assert keyed_rows(schema, values, shards=2, supervise=True) == serial
        return serial

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_zero_and_negative_zero(self, first, second):
        values = [(0, first, 1), (0, second, 1), (1, first, 1), (1, second, 1), (2, 1.5, 7)]
        assert self.agree(keyed("float"), values) == repr([(0, first, 4), (1, 1.5, 7)])

    def test_bools_and_integral_floats_in_an_int_column(self):
        values = [
            (0, 1, 1), (0, True, 2), (0, 0, 32), (1, False, 64),
            (1, 1.0, 4), (1, 2, 8), (1, 0.0, 128), (2, True, 16),
        ]
        assert self.agree(keyed("int"), values) == repr(
            [(0, 0, 224), (0, 1, 7), (0, 2, 8), (1, True, 16)]
        )


def steady(records, seed=20050614):
    """The first ``records`` of the steady feed, as the perf ledger
    reads it (``benchmarks/ledger/workloads.make_trace``)."""
    config = TraceConfig(duration_seconds=100_000, rate_scale=0.1, seed=seed)
    return list(islice(data_center_feed(config), records))


@pytest.fixture
def hashes(monkeypatch):
    """Counts the SPLIT's calls to ``stable_hash``."""
    calls = []
    real = sharded.stable_hash

    def counting(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(sharded, "stable_hash", counting)
    return calls


class TestRouteMemo:
    """The SPLIT hashes a key the first time a run sees it, not at
    every record, and the memo that remembers it is bounded."""

    def test_each_distinct_key_is_hashed_once(self, hashes):
        records = steady(30_000)
        sh = ShardedGigascope(shards=2)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(AGG_TEXT, name="q")
        sh.run(iter(records), batch_size=1024)
        distinct = {r.values[TCP_SCHEMA.index_of("srcIP")] for r in records}
        assert len(distinct) < 1000
        assert sorted(hashes) == sorted(distinct)

    def test_the_memo_never_outgrows_its_bound(self, hashes):
        bound = sharded._ROUTE_MEMO_KEYS
        schema = keyed("int")
        # Each key twice in a row: half of a batch misses, not most of it.
        values = [(i // 1000, i // 2 % (2 * bound + 500), 1) for i in range(6 * bound)]
        sh = ShardedGigascope(shards=2)
        sh.register_stream(schema)
        handle = sh.add_query(KEYED_TEXT, name="q")
        sh.start()
        sizes = []
        for lo in range(0, len(values), 500):
            sh.feed([Record(schema, v) for v in values[lo:lo + 500]])
            sizes.append(len(sh._shard_of))
        sh.finish()
        assert sh._memo_pause == 0
        assert max(sizes) == bound and min(sizes[16:]) < bound
        assert len(hashes) > 2 * bound + 500  # keys forgotten are hashed again
        assert repr(canonical_rows(handle.results)) == keyed_rows(schema, values)

    def test_an_unhashable_key_is_routed_unmemoised(self, hashes):
        # An unvalidated record may carry one; a selection passes it on.
        schema = keyed("int")
        values = [(0, [1], 1), (1, [2], 2), (2, [1], 3)]
        sh = ShardedGigascope(shards=2)
        sh.register_stream(schema)
        handle = sh.add_query("SELECT time, k, v FROM F", name="q")
        sh.run(iter([Record(schema, v) for v in values]))
        assert sorted(r.values for r in handle.results) == values
        assert hashes == [[1], [2], [1]] and sh._shard_of == {}

    def test_a_batch_of_fresh_keys_pauses_the_memo(self, hashes):
        # A miss costs more than a hash: after a batch that mostly
        # misses, the SPLIT hashes as if it had no memo for a while.
        pause = sharded._ROUTE_MEMO_PAUSE
        schema = keyed("int")
        values = [(0, k, 1) for k in range(100)] + [(1, 1000, 1)] * 10 * (pause + 2)
        sh = ShardedGigascope(shards=2)
        sh.register_stream(schema)
        handle = sh.add_query(KEYED_TEXT, name="q")
        sh.start()
        sh.feed([Record(schema, v) for v in values[:100]])
        assert sh._memo_pause == pause and len(sh._shard_of) == 100
        for lo in range(100, 100 + 10 * pause, 10):
            sh.feed([Record(schema, v) for v in values[lo:lo + 10]])
        assert len(hashes) == 100 + 10 * pause  # every record hashed
        assert len(sh._shard_of) == 100 and sh._memo_pause == 0
        sh.feed([Record(schema, v) for v in values[-20:]])
        assert len(hashes) == 100 + 10 * pause + 1 and 1000 in sh._shard_of
        sh.finish()
        assert repr(canonical_rows(handle.results)) == keyed_rows(schema, values)

    def test_a_second_run_starts_with_an_empty_memo(self, hashes):
        first = list(trace(seconds=10))
        later = [Record(TCP_SCHEMA, (r.values[0] + 100,) + r.values[1:]) for r in first]
        sh = ShardedGigascope(shards=2)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(AGG_TEXT, name="q")
        distinct = len({r.values[TCP_SCHEMA.index_of("srcIP")] for r in first})
        sh.run(iter(first))
        assert len(hashes) == distinct
        sh.start()
        assert sh._shard_of == {}
        for batch in (later[:500], later[500:]):
            sh.feed(batch)
        sh.finish()
        assert len(hashes) == 2 * distinct


class _Tagged(Record):
    """A ``Record`` subclass: it routes, but no batch holding one is a
    run (``run_stream`` takes exact ``Record`` instances only)."""

    __slots__ = ()


#: two registered streams of one layout, partitioned on ``k``, and one
#: that is not registered
_F, _G, _H = (
    StreamSchema(name, [Attribute("time", "int", Ordering.INCREASING), Attribute("k"), Attribute("v")])
    for name in "FGH"
)

_keys = st.one_of(
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan, math.inf]),
    st.floats(allow_nan=True),
    st.lists(st.integers(0, 2), max_size=2),  # unhashable: never memoised
)
_payloads = st.tuples(
    st.sampled_from(["record"] * 6 + ["tagged", "unregistered", "not_a_record"]),
    st.sampled_from([_F, _G]),
    _keys,
)


@st.composite
def _batches(draw):
    """One stream or two interleaved, mostly ``Record`` payloads, now and
    then more fresh keys than the route memo holds."""
    payloads = draw(st.lists(_payloads, min_size=1, max_size=30))
    if draw(st.booleans()):  # one stream
        payloads = [(kind, _F, key) for kind, _, key in payloads]
    if draw(st.integers(0, 5)) == 0:
        payloads += [("record", _F, 10_000 + i) for i in range(sharded._ROUTE_MEMO_KEYS + 1)]
    made = {
        "record": lambda schema, key: Record(schema, (0, key, 1)),
        "tagged": lambda schema, key: _Tagged(schema, (0, key, 1)),
        "unregistered": lambda schema, key: Record(_H, (0, key, 1)),
        "not_a_record": lambda schema, key: (0, key, 1),
    }
    return [made[kind](schema, key) for kind, schema, key in payloads]


class TestTheSplitVouchesForARun:
    """One pass routes every record by its key's hash and decides whether
    the batch is one run; the buckets of a run ship as ``StreamRun``s, so
    no shard checks them again."""

    @staticmethod
    def deployment(shards):
        sh = ShardedGigascope(shards=shards)
        for schema in (_F, _G):
            sh.register_stream(schema)
            sh.add_query(f"SELECT tb, k, sum(v) FROM {schema.name} GROUP BY time/2 as tb, k")
        return sh

    @given(batches=st.lists(_batches(), min_size=1, max_size=3), shards=st.sampled_from([2, 3]))
    def test_each_record_lands_on_its_hash_in_batch_order(self, batches, shards):
        sh = self.deployment(shards)
        sh.start()
        shipped = []
        sh._pool.ship = shipped.append
        for batch in batches:
            if any(type(p) is not Record and type(p) is not _Tagged or p.schema is _H for p in batch):
                self.refused_as_today(sh, batch, shipped)
                continue
            expected = [[] for _ in range(shards)]
            for record in batch:
                expected[stable_hash(record.values[1]) % shards].append(record)
            buckets = sh._split(batch)
            assert [[id(r) for r in b] for b in buckets] == [[id(r) for r in b] for b in expected]
            if run_stream(batch) is None:
                assert all(type(b) is list for b in buckets)
            else:
                assert all(type(b) is StreamRun and b.stream == batch[0].schema.name for b in buckets)
            assert all(shard == stable_hash(key) % shards for key, shard in sh._shard_of.items())
        sh.abandon()

    @staticmethod
    def refused_as_today(sh, batch, shipped):
        """The first payload the SPLIT cannot route raises what the serial
        runtime's admission raises for it, and no bucket ships."""
        gs = Gigascope()
        for schema in (_F, _G):
            gs.register_stream(schema)
        gs.start()
        with pytest.raises(ExecutionError) as serial:
            gs.feed(batch)
        with pytest.raises(ExecutionError) as split:
            sh.feed(batch)
        assert str(split.value) == str(serial.value)
        assert shipped == []


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


class TestShedBeforeTheSplit:
    """``shed=N`` counts records per second of stream time, once, in the
    parent before the SPLIT: a sharded run sheds what the serial run
    sheds and keeps its rows, at any batch size, on either pool.  (Each
    shard used to cut its own share of every batch.)"""

    SHED = 40  # trace() carries about 160 records a second

    def run(self, text, shards=None, supervise=False, batch_size=4096):
        if shards is None:
            dsms = Gigascope(shed_threshold=self.SHED)
        else:
            dsms = ShardedGigascope(shards=shards, supervise=supervise, shed_threshold=self.SHED)
        dsms.register_stream(TCP_SCHEMA)
        dsms.use_stateful_library(subset_sum_library(relax_factor=10.0))
        handle = dsms.add_query(text, name="q")
        read = dsms.run(trace(seconds=10), batch_size=batch_size)
        return canonical_rows(handle.results), read, dsms.metrics.total("stream_shed_total")

    @pytest.mark.parametrize("text", [AGG_TEXT, SS_TEXT], ids=["aggregation", "subset_sum"])
    @pytest.mark.parametrize(
        "shards, supervise", [(1, False), (2, False), (1, True), (2, True)],
        ids=["1-inline", "2-inline", "1-supervised", "2-supervised"],
    )
    def test_sharded_rows_are_the_serial_rows(self, text, shards, supervise):
        expected = self.run(text)
        assert expected[0] and 0 < expected[2] < expected[1]
        assert self.run(text, shards, supervise, batch_size=128) == expected


class TestProcessMode:
    def test_forked_workers_match_serial(self):
        library = subset_sum_library(relax_factor=10.0)
        expected = serial_rows(SS_TEXT, library)
        got = sharded_rows(
            SS_TEXT, 2, subset_sum_library(relax_factor=10.0), supervise=True
        )
        assert got == expected

    def test_one_run_batches_reach_workers_as_inline_shards(self, monkeypatch):
        """Every bucket ships as a pickled ``StreamRun``; the workers take
        it as the inline shards do: the same rows, the same counters."""
        vouched = []
        split = ShardedGigascope._split

        def spy(self, batch):
            buckets = split(self, batch)
            vouched.extend(type(b) is StreamRun for b in buckets)
            return buckets

        monkeypatch.setattr(ShardedGigascope, "_split", spy)
        seen = {}
        for supervise in (False, True):
            sh = ShardedGigascope(shards=2, supervise=supervise)
            sh.register_stream(TCP_SCHEMA)
            handle = sh.add_query(AGG_TEXT, name="q")
            sh.run(trace(seconds=10), batch_size=256)
            seen[supervise] = (canonical_rows(handle.results), sh.metrics.counter_values(), sh.run_report())
        assert len(vouched) > 8 and all(vouched)
        assert seen[True] == seen[False]
        assert seen[True][0]

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

    def test_two_streams_shed_alike(self):
        """Each stream's seconds are counted on their own, in the parent."""
        serial = self.build(lambda: Gigascope(shed_threshold=15))
        sharded = self.build(lambda: ShardedGigascope(shards=3, shed_threshold=15))
        assert sharded == serial
        assert all(serial) and serial != self.build(Gigascope)

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
