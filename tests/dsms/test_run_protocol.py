"""Operators take runs: how a stream is cut into runs changes nothing.

The run entry (``Operator.process_many``) is the only per-tuple body an
operator has, and ``process(record)`` is a run of one — so "the tuple
path" is batch size 1 of the same code, and the oracle for any cut of a
stream into runs is any other cut.  What must be identical: rows in
order, every counter series, the cost accounts of a real ``CostModel``,
window stats, overload counters, and a pickled checkpoint taken at a
cut.  What a run that *fails* leaves behind is pinned separately.
"""

import pickle
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bindings import (
    HEAVY_HITTERS_QUERY,
    PREFILTER_QUERY,
    SUBSET_SUM_QUERY,
    basic_subset_sum_library,
    heavy_hitters_library,
    subset_sum_library,
    subset_sum_query,
)
from repro.dsms.cost import CostBook, CostModel
from repro.dsms.runtime import Gigascope
from repro.errors import ExecutionError
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed

# -- deployments ----------------------------------------------------------------


def _subset_sum(gs):
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.add_query(SUBSET_SUM_QUERY.format(window=1, target=20), name="q")


def _heavy_hitters(gs):
    gs.use_stateful_library(heavy_hitters_library())
    gs.add_query(HEAVY_HITTERS_QUERY.format(window=1, bucket=10), name="q")


def _aggregate(gs):
    gs.add_query(
        "SELECT tb, srcIP, sum(len), count(*) FROM TCP WHERE H(srcIP) % 3 <> 0"
        " GROUP BY time/1 as tb, srcIP HAVING count(*) > 1",
        name="q",
    )


def _selection(gs):
    gs.add_query("SELECT time, srcIP, UMAX(len, 100) FROM TCP WHERE len > 200", name="q")


def _prefilter_chain(gs):
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.use_stateful_library(basic_subset_sum_library())
    gs.add_query(PREFILTER_QUERY.format(z=50), name="pre")
    gs.add_query(subset_sum_query(window=1, target=10, stream="pre"), name="q")


def _raw_window_ids(gs):
    """Window id = ``time`` itself, so a ``None`` timestamp reaches the
    operators as an unorderable window id instead of failing a division."""
    gs.add_query(
        "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time as tb, srcIP SUPERGROUP tb",
        name="q",
    )
    gs.add_query("SELECT tb, count(*) FROM TCP GROUP BY time as tb", name="agg")


#: name -> (build, whether a ``None`` timestamp is survivable)
DEPLOYMENTS = {
    "subset_sum": (_subset_sum, False),
    "heavy_hitters": (_heavy_hitters, False),
    "aggregate": (_aggregate, False),
    "selection": (_selection, False),
    "prefilter_chain": (_prefilter_chain, False),
    "raw_window_ids": (_raw_window_ids, True),
}

#: ~50 and ~20-60 records per second of stream time: several one-second
#: windows in 160 records, enough tuples in each for cleaning phases
TRACES = {
    "steady": list(
        islice(data_center_feed(TraceConfig(rate_scale=0.0005, seed=15)), 160)
    ),
    "bursty": list(
        islice(research_center_feed(TraceConfig(rate_scale=0.004, seed=15)), 160)
    ),
}
_TIME = TCP_SCHEMA.index_of("time")


def _with_time(record, time):
    values = list(record.values)
    values[_TIME] = time
    return Record(TCP_SCHEMA, values)


def _observe(deployment, records, cuts, checkpoint_at):
    """Everything observable after feeding ``records`` cut at ``cuts``."""
    gs = Gigascope(cost_model=CostModel())
    gs.register_stream(TCP_SCHEMA)
    DEPLOYMENTS[deployment][0](gs)
    gs.start()
    checkpoint = None
    edges = sorted({0, checkpoint_at, len(records), *cuts})
    for lo, hi in zip(edges, edges[1:]):
        gs.feed(records[lo:hi])
        if hi == checkpoint_at:
            checkpoint = pickle.dumps(gs.checkpoint())
    gs.finish()
    seen = {
        "checkpoint": checkpoint,
        "series": [
            (s.name, s.labels, s.value)
            for s in gs.metrics.series()
            if s.kind != "histogram"
        ],
        "cost": gs.cost.accounts(),
    }
    for handle in gs.query_handles():
        seen["rows", handle.name] = [r.values for r in handle.results]
        if hasattr(handle.operator, "window_stats"):
            seen["windows", handle.name] = handle.operator.window_stats
            seen["overload", handle.name] = handle.operator.overload_counters()
    return seen


@st.composite
def _cases(draw):
    deployment = draw(st.sampled_from(sorted(DEPLOYMENTS)))
    records = list(TRACES[draw(st.sampled_from(sorted(TRACES)))])
    n = len(records)
    # Late tuples: a timestamp from a window that already closed.
    for index in draw(st.lists(st.integers(1, n - 1), max_size=4)):
        records[index] = _with_time(records[index], records[0].values[_TIME])
    if DEPLOYMENTS[deployment][1]:
        for index in draw(st.lists(st.integers(1, n - 1), max_size=4)):
            records[index] = _with_time(records[index], None)
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=12))
    checkpoint_at = draw(st.integers(1, n - 1))
    return deployment, records, cuts, checkpoint_at


class TestRunCutInvariance:
    @given(_cases())
    @settings(max_examples=40, deadline=None)
    def test_every_cut_of_a_stream_is_the_same_run(self, case):
        deployment, records, cuts, checkpoint_at = case
        one_run = _observe(deployment, records, [], checkpoint_at)
        assert one_run["checkpoint"] is not None
        all_ones = _observe(deployment, records, range(len(records)), checkpoint_at)
        random_cut = _observe(deployment, records, cuts, checkpoint_at)
        assert all_ones == one_run
        assert random_cut == one_run

    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_the_traces_exercise_the_operators(self, deployment):
        """Guard on the generator above: windows close mid-trace, tuples
        are dropped late, cleaning phases run — or the property is vacuous."""
        records = list(TRACES["bursty"])
        records[100] = _with_time(records[100], records[0].values[_TIME])
        seen = _observe(deployment, records, [], 80)
        series = {(name, dict(labels).get("query")): v for name, labels, v in seen["series"]}
        assert len(seen["rows", "q"]) > 3
        if ("windows", "q") in seen:
            assert len(seen["windows", "q"]) > 1
            assert seen["overload", "q"]["late_tuples"] == 1
        if deployment in ("subset_sum", "heavy_hitters", "prefilter_chain"):
            assert series["operator_cleaning_phases_total", "q"] > 0


# -- what a failing run leaves behind ----------------------------------------------


def _packet(**values):
    return Record.from_mapping(TCP_SCHEMA, values)


#: fails on ``len = 7``: the WHERE divides by ``len - 7``
AGGREGATE = "SELECT tb, count(*) FROM TCP WHERE 10/(len-7) >= 0 GROUP BY time/2 as tb"
SAMPLING = (
    "SELECT tb, srcIP, count(*) FROM TCP WHERE 10/(len-7) >= 0"
    " GROUP BY time/2 as tb, srcIP"
    " CLEANING WHEN count_distinct$(*) > 50 CLEANING BY count(*) > 0"
)


#: the third record closes window 0, then fails its own WHERE
AT_BOUNDARY = [
    _packet(time=0, len=10),
    _packet(time=1, len=10),
    _packet(time=2, len=7),
    _packet(time=3, len=10),
]
#: the boundary record is fine; the failure sits later in the same run
AFTER_BOUNDARY = [
    _packet(time=0, len=10),
    _packet(time=1, len=10),
    _packet(time=2, len=10),
    _packet(time=3, len=7),
    _packet(time=3, len=10),
]


def _fed(query, batch):
    gs = Gigascope(cost_model=CostModel())
    gs.register_stream(TCP_SCHEMA)
    gs.add_query(query, name="q")
    gs.start()
    with pytest.raises(ExecutionError, match="division by zero"):
        gs.feed(batch)
    return gs


def _count(gs, name, query="q"):
    return gs.metrics.total(name, query=query)


class TestRowsAlreadyEmittedSurviveALaterError:
    """A standing query that raises mid-batch is fed the next batch, so
    what the failed feed left behind is observable: rows the operator
    counted in ``operator_rows_out_total`` must have reached ``results``."""

    def test_aggregation_delivers_the_window_its_failing_record_closed(self):
        gs = _fed(AGGREGATE, AT_BOUNDARY)
        assert _count(gs, "operator_rows_out_total") == 1
        assert [r.values for r in gs.results("q")] == [(0, 2)]

    def test_sampling_delivers_the_window_its_failing_record_closed(self):
        gs = _fed(SAMPLING, AT_BOUNDARY)
        assert _count(gs, "operator_rows_out_total") == 1
        assert [r.values for r in gs.results("q")] == [(0, 0, 2)]

    @pytest.mark.parametrize("query, row", [(AGGREGATE, (0, 2)), (SAMPLING, (0, 0, 2))])
    def test_failure_later_in_the_run_than_the_boundary(self, query, row):
        gs = _fed(query, AFTER_BOUNDARY)
        assert [r.values for r in gs.results("q")] == [row]
        # The query is not abandoned: the next batch lands in window 1.
        gs.feed([_packet(time=4, len=10)])
        gs.finish()
        assert [r.values[0] for r in gs.results("q")] == [0, 1, 2]

    def test_rows_reach_the_children_too(self):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.add_query(AGGREGATE, name="q")
        gs.add_query("SELECT tb FROM q", name="child")
        gs.start()
        with pytest.raises(ExecutionError):
            gs.feed(AT_BOUNDARY)
        assert [r.values for r in gs.results("child")] == [(0,)]


class TestTheNodeThatRaisedCountedWhatItConsumed:
    """Counters and charges of the failing node equal the per-record
    protocol's: the records it consumed, the failing one included.
    Nodes upstream of it have consumed the whole run."""

    BOOK = CostBook()

    def test_aggregation(self):
        gs = _fed(AGGREGATE, AT_BOUNDARY)
        assert _count(gs, "operator_tuples_in_total") == 3
        assert _count(gs, "operator_tuples_admitted_total") == 2
        assert _count(gs, "operator_tuples_filtered_total") == 0
        assert _count(gs, "operator_groups_created_total") == 1
        book = self.BOOK
        assert gs.cost.cycles("q") == (
            3 * (book.tuple_read + book.hash_probe + book.predicate_eval)
            + book.hash_insert
            + 2 * book.aggregate_update
            + book.window_flush
            + book.output_tuple
        ) == 8000

    def test_sampling(self):
        gs = _fed(SAMPLING, AT_BOUNDARY)
        assert _count(gs, "operator_tuples_in_total") == 3
        assert _count(gs, "operator_tuples_admitted_total") == 2
        assert _count(gs, "operator_groups_created_total") == 1
        assert gs.cost.cycles("q") == 10500
        stats = gs.query("q").operator.window_stats
        assert [(s.tuples_seen, s.tuples_admitted, s.output_tuples) for s in stats] == [(2, 2, 1)]

    def test_upstream_consumed_the_whole_run(self):
        gs = _fed(AGGREGATE, AT_BOUNDARY)
        assert _count(gs, "operator_tuples_in_total", query="q__lowsel") == 4
        assert _count(gs, "query_forwarded_total", query="q__lowsel") == 4
        book = self.BOOK
        assert gs.cost.cycles("q__lowsel") == 4 * (book.tuple_read + book.tuple_copy)
