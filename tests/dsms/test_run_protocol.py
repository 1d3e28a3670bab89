"""Operators take runs: how a stream is cut into runs changes nothing.

The run entry (``Operator.process_many``) is the only per-tuple body an
operator has, and ``process(record)`` is a run of one — so "the tuple
path" is batch size 1 of the same code.  ``tests/test_oracle.py`` draws
the cut with everything else and holds rows to the oracle and series,
cost accounts and a pickled checkpoint to the one-run tuple reference;
``TestRunCutInvariance`` is that generator's fixed corpus for the
extreme cut, every record its own run, and its guard against vacuity.
What a run that *fails* leaves behind is pinned separately, and so is
the ingest edge.
"""

import copy
import math
import pickle
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.algorithms.bindings import (
    PREFILTER_QUERY,
    SUBSET_SUM_QUERY,
    basic_subset_sum_library,
    subset_sum_library,
    subset_sum_query,
)
from repro.analysis.legality import ExecTarget
from repro.deploy import deploy
from repro.dsms.cost import CostBook, CostModel
from repro.dsms.runtime import Gigascope, StreamRun, run_stream
from repro.dsms.sharded import ShardedGigascope
from repro.dsms.stateful import StatefulLibrary, StatefulState
from repro.errors import ExecutionError
from repro.streams.records import Record
from repro.streams.schema import PKT_SCHEMA, TCP_SCHEMA, Attribute, Ordering, StreamSchema
from repro.streams.traces import TraceConfig, data_center_feed

from tests.test_oracle import FAMILIES, TRACES, Case, agree, late, registered, series, stream

# -- deployments ----------------------------------------------------------------


def _subset_sum(gs):
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.add_query(SUBSET_SUM_QUERY.format(window=1, target=20), name="q")


def _aggregate(gs):
    gs.add_query(
        "SELECT tb, srcIP, sum(len), count(*) FROM TCP WHERE H(srcIP) % 3 <> 0"
        " GROUP BY time/1 as tb, srcIP HAVING count(*) > 1",
        name="q",
    )


def _selection(gs):
    gs.add_query("SELECT time, srcIP, UMAX(len, 100) FROM TCP WHERE len > 200", name="q")


def _aggregate_of_a_sample(gs):
    """Under ``vectorize=True`` a columnar aggregate whose parent, a
    stateful selection, runs per tuple."""
    gs.use_stateful_library(basic_subset_sum_library())
    gs.add_query(PREFILTER_QUERY.format(z=50), name="pre")
    gs.add_query(
        "SELECT tb, sum(len), count(*) FROM pre GROUP BY time/1 as tb", name="q"
    )


#: deployment -> the generator's query set, and its queries' names
DEPLOYMENTS = {
    "subset_sum": ("subset_sum", ("q",)),
    "subset_sum_per_source": ("subset_sum_per_source", ("q",)),
    "heavy_hitters": ("heavy_hitters_1s", ("q",)),
    "aggregate": ("aggregate", ("q",)),
    "selection": ("selection", ("q",)),
    "prefilter_chain": ("prefilter_chain", ("pre", "q")),
    "raw_window_ids": ("raw_window_ids", ("q", "agg")),
    "aggregate_of_a_sample": ("aggregate_of_a_sample", ("pre", "q")),
}
#: the deployments whose every query two shards can run
SHARDABLE = ("aggregate", "selection", "subset_sum_per_source")


def _case(deployment, records, **options):
    family, names = DEPLOYMENTS[deployment]
    return Case(FAMILIES[family], stream(records), names=names + ("r",), **options)


class TestRunCutInvariance:
    def test_every_cut_of_a_stream_is_the_same_run(self):
        """Every record its own run — rows, series, charges and a pickled
        checkpoint at record 80 — on every deployment, with a late record."""
        records = late(TRACES["bursty"], [50, 120])
        for deployment in DEPLOYMENTS:
            agree(_case(deployment, records, cuts=tuple(range(1, len(records))), checkpoint_at=80))

    @pytest.mark.parametrize("pool", ["inline", "supervised"])
    @pytest.mark.parametrize("deployment", SHARDABLE)
    def test_the_engine_reaches_the_shards(self, deployment, pool):
        """The grid the generator samples from, once each: a pool asked
        for the columnar engine runs it in every shard (it used to be
        refused), held to the oracle and to the tuple engine's run."""
        target = ExecTarget(shards=2, supervise=pool == "supervised")
        case = _case(deployment, TRACES["steady"], target=target, vectorize=True, cuts=(40, 41, 120))
        agree(case)
        engines = {h.operator.execution_mode for h in registered(case).query("q").shard_handles}
        assert engines == ({"tuple"} if "subset_sum" in deployment else {"vectorized"})

    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_the_traces_exercise_the_operators(self, deployment):
        """Guard on the corpus: windows close mid-trace, tuples are dropped
        late, cleaning phases run — or the agreement is vacuous."""
        seen = agree(_case(deployment, late(TRACES["bursty"], [100]), checkpoint_at=80))
        total = seen.deployment.metrics.total
        assert len(seen.rows["q"]) > 3
        if deployment != "selection":
            assert total("operator_windows_total", query="q") > 1
            assert total("operator_late_tuples_total", query="q") == 1
        if deployment in ("subset_sum", "heavy_hitters", "prefilter_chain"):
            assert total("operator_cleaning_phases_total", query="q") > 0


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


#: a failure a columnar batch cannot raise before any window closes (a
#: WHERE is evaluated over the whole batch first, DESIGN.md §11): it sits
#: in an aggregate *argument*, ``time - 3`` is 0 in window 1's segment
IN_AN_ARGUMENT = "SELECT tb, sum(len % (time - 3)) FROM TCP GROUP BY time/2 as tb"
ONE_BATCH = [_packet(time=time, len=10) for time in range(4)]


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

    @pytest.mark.parametrize("low_level", [False, True], ids=["feeder", "low_level"])
    @pytest.mark.parametrize("vectorize", [False, True], ids=["tuple", "vectorized"])
    def test_on_either_engine(self, vectorize, low_level):
        gs = Gigascope(cost_model=CostModel(), vectorize=vectorize, profile=True)
        gs.register_stream(TCP_SCHEMA)
        gs.add_query(IN_AN_ARGUMENT, name="q", low_level_aggregation=low_level)
        gs.add_query("SELECT tb FROM q", name="child")
        engine = "vectorized" if vectorize else "tuple"
        assert {h.operator.execution_mode for h in gs.query_handles()} == {engine}
        gs.start()
        with pytest.raises(ExecutionError, match="modulo by zero"):
            gs.feed(ONE_BATCH)
        assert [r.values for r in gs.results("q")] == [(0, -2)]
        assert _count(gs, "operator_rows_out_total") == 1
        assert [r.values for r in gs.results("child")] == [(0,)]
        # Time is observed for the call that raised, too.
        assert {
            h.name: gs.metrics.value("operator_seconds", query=h.name, phase="process")
            for h in gs.query_handles()
        } == {h.name: 1 for h in gs.query_handles()}
        # The query is not abandoned: the next batch lands in window 1.
        gs.feed([_packet(time=2, len=10)])
        gs.finish()
        assert [r.values[0] for r in gs.results("q")] == [0, 1]


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

    # -- a sampling node whose SFUN raises, or cannot be called ------------------

    @staticmethod
    def fuse_library():
        """``burn(at)`` counts its calls across windows and raises at call
        ``at``; before that it answers TRUE on every second call."""
        library = StatefulLibrary()

        @library.state("fuse")
        class Fuse(StatefulState):
            def __init__(self, calls=0):
                self.calls = calls

            @classmethod
            def initial(cls, old):
                return cls(old.calls if old is not None else 0)

        @library.sfun("burn", state="fuse")
        def burn(state, at):
            state.calls += 1
            if state.calls == at:
                raise ExecutionError(f"fuse burnt at call {at}")
            return state.calls % 2 == 0

        return library

    def fed_fuse(self, query, batch, match, allocate=True):
        gs = Gigascope(cost_model=CostModel())
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(self.fuse_library())
        op = gs.add_query(query, name="q").operator
        if not allocate:
            new = op._new_supergroup

            def without_state(key):
                entry = new(key)
                entry.states.clear()
                return entry

            op._new_supergroup = without_state
        gs.start()
        with pytest.raises(ExecutionError, match=match):
            gs.feed(batch)
        return gs, op

    @staticmethod
    def stats(op):
        return [
            (s.tuples_seen, s.tuples_admitted, s.groups_created, s.cleaning_phases,
             s.groups_evicted, s.output_tuples)
            for s in op.window_stats + [op._active_stats]
        ]

    def test_sampling_where_sfun_raises_on_the_kth_record(self):
        query = (
            "SELECT tb, srcIP, count(*) FROM TCP WHERE burn(4) = FALSE OR TRUE"
            " GROUP BY time/2 as tb, srcIP"
        )
        batch = [_packet(time=t, len=10) for t in (0, 1, 2, 3, 3)]
        gs, op = self.fed_fuse(query, batch, "burnt at call 4")
        assert _count(gs, "operator_tuples_in_total") == 4
        assert _count(gs, "operator_tuples_admitted_total") == 3
        assert _count(gs, "operator_tuples_filtered_total") == 0
        assert _count(gs, "operator_groups_created_total") == 2
        assert [r.values for r in gs.results("q")] == [(0, 0, 2)]
        # window 0 closed; the failing record was seen, not admitted
        assert self.stats(op) == [(2, 2, 1, 0, 0, 1), (2, 1, 1, 0, 0, 0)]
        book = self.BOOK
        assert gs.cost.cycles("q") == (
            4 * (book.tuple_read + book.predicate_eval + book.sfun_call)
            + (4 + 3) * book.hash_probe
            + (2 + 2) * book.hash_insert
            + 3 * book.aggregate_update
            + book.window_flush
            + book.output_tuple
        )

    def test_sampling_cleaning_when_sfun_raises(self):
        query = (
            "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/2 as tb, srcIP"
            " CLEANING WHEN burn(3) = TRUE CLEANING BY count(*) > 0"
        )
        batch = [_packet(time=0, len=10, srcIP=ip) for ip in (1, 2, 1, 2)]
        gs, op = self.fed_fuse(query, batch, "burnt at call 3")
        assert _count(gs, "operator_tuples_in_total") == 3
        assert _count(gs, "operator_tuples_admitted_total") == 3
        assert _count(gs, "operator_groups_created_total") == 2
        assert _count(gs, "operator_cleaning_phases_total") == 1
        assert self.stats(op) == [(3, 3, 2, 1, 0, 0)]
        book = self.BOOK
        assert gs.cost.cycles("q") == (
            3 * (book.tuple_read + book.predicate_eval + book.sfun_call + book.aggregate_update)
            + (3 + 3) * book.hash_probe
            + (1 + 2) * book.hash_insert
            + book.cleaning_phase
            + 2 * book.cleaning_per_group
        )

    def test_sampling_state_missing_at_the_first_call(self):
        query = (
            "SELECT tb, srcIP, count(*) FROM TCP WHERE len > 100 AND burn(99) = TRUE"
            " GROUP BY time/2 as tb, srcIP"
        )
        batch = [_packet(time=t, len=n) for t, n in ((0, 10), (0, 20), (1, 200), (1, 300))]
        gs, op = self.fed_fuse(query, batch, "state 'fuse' for SFUN 'burn' was not allocated",
                               allocate=False)
        assert _count(gs, "operator_tuples_in_total") == 3
        assert _count(gs, "operator_tuples_filtered_total") == 2
        assert _count(gs, "operator_tuples_admitted_total") == 0
        assert self.stats(op) == [(3, 0, 0, 0, 0, 0)]
        book = self.BOOK
        assert gs.cost.cycles("q") == (
            3 * (book.tuple_read + book.hash_probe + book.predicate_eval)
            + book.hash_insert
            + book.sfun_call
        )

    def test_upstream_consumed_the_whole_run(self):
        gs = _fed(AGGREGATE, AT_BOUNDARY)
        assert _count(gs, "operator_tuples_in_total", query="q__lowsel") == 4
        assert _count(gs, "query_forwarded_total", query="q__lowsel") == 4
        book = self.BOOK
        assert gs.cost.cycles("q__lowsel") == 4 * (book.tuple_read + book.tuple_copy)


class TestAFeedThatRaisesReachesNoLaterNode:
    """Each low-level node is handed the admitted run in registration
    order; when one raises, the feed ends there, and the nodes after it
    never see that batch, not on the next feed either."""

    def test_the_next_node_gets_only_the_batches_fed_after(self):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.add_query("SELECT time, len FROM TCP WHERE 10/(len-7) >= 0", name="first")
        gs.add_query("SELECT time, len FROM TCP", name="second")
        gs.start()
        with pytest.raises(ExecutionError, match="division by zero"):
            gs.feed([_packet(time=0, len=10), _packet(time=0, len=7)])
        gs.feed([_packet(time=1, len=10), _packet(time=1, len=11)])
        gs.finish()
        assert [r.values for r in gs.results("first")] == [(0, 10), (1, 10), (1, 11)]
        assert [r.values for r in gs.results("second")] == [(1, 10), (1, 11)]
        assert gs.metrics.total("stream_ingested_total", stream="TCP") == 4


# -- the ingest edge takes runs too --------------------------------------------------
#
# Admission and the feeder handle a fed batch as one run when
# it is one.  The oracle for a batch the fast path takes is the same
# batch made of instances of a ``Record`` subclass, which it declines:
# that goes payload by payload through ``_admit_payload`` and record by
# record into the operators, whatever the batch is cut into.


class _Packet(Record):
    """Not exactly a ``Record``: declined by run admission."""

    __slots__ = ()


def _declined(records):
    return [_Packet(r.schema, r.values) for r in records]


def _spy_on_admission(gs, monkeypatch):
    """The payloads that went through the per-payload path."""
    seen, admit_payload = [], gs._admit_payload
    monkeypatch.setattr(
        gs, "_admit_payload", lambda p: seen.append(p) or admit_payload(p)
    )
    return seen


def _instance(build=_subset_sum, **options):
    gs = Gigascope(cost_model=CostModel(), **options)
    gs.register_stream(TCP_SCHEMA)
    gs.register_stream(PKT_SCHEMA)
    build(gs)
    gs.start()
    return gs


def _seen(gs):
    """Rows, every non-histogram series, cost accounts and the run report."""
    gs.finish()
    return {
        "rows": {h.name: [r.values for r in h.results] for h in gs.query_handles()},
        "series": series(gs.metrics),
        "cost": gs.cost.accounts(),
        "report": gs.run_report(),
    }


def _fed_in(batches, build=_subset_sum, **options):
    gs = _instance(build, **options)
    for batch in batches:
        gs.feed(batch)
    return _seen(gs)


STEADY = TRACES["steady"]
CUT = [STEADY[:64], STEADY[64:67], STEADY[67:]]
_DEPLOYMENTS = pytest.mark.parametrize("build", [_subset_sum, _selection, _aggregate])


class TestRunAdmission:
    @_DEPLOYMENTS
    def test_a_run_is_admitted_whole_and_changes_nothing(self, build, monkeypatch):
        gs = _instance(build)
        per_payload = _spy_on_admission(gs, monkeypatch)
        for batch in CUT:
            gs.feed(batch)
        assert per_payload == []
        assert _seen(gs) == _fed_in(map(_declined, CUT), build)

    def test_a_record_subclass_is_declined(self, monkeypatch):
        gs = _instance()
        per_payload = _spy_on_admission(gs, monkeypatch)
        gs.feed(_declined(STEADY))
        assert len(per_payload) == len(STEADY)

    @_DEPLOYMENTS
    def test_unpickled_records_are_a_run(self, build, monkeypatch):
        """A supervised worker's records share a schema object equal to,
        not identical with, the registered one."""
        shipped = pickle.loads(pickle.dumps(CUT))
        assert shipped[0][0].schema is not TCP_SCHEMA
        gs = _instance(build)
        per_payload = _spy_on_admission(gs, monkeypatch)
        for batch in shipped:
            gs.feed(batch)
        assert per_payload == []
        assert _seen(gs) == _fed_in(CUT, build)

    def test_a_batch_across_a_pickle_seam_is_admitted_all_the_same(self):
        seam = [STEADY[:40] + pickle.loads(pickle.dumps(STEADY[40:]))]
        assert _fed_in(seam) == _fed_in([STEADY])

    def test_interleaved_streams_keep_their_order(self):
        def build(gs):
            _subset_sum(gs)
            gs.add_query("SELECT time, len FROM PKT WHERE len > 200", name="pkt")

        packets = [
            Record(PKT_SCHEMA, r.values[: len(PKT_SCHEMA)]) for r in STEADY
        ]
        interleaved = [r for pair in zip(STEADY, packets) for r in pair]
        mixed = _fed_in([interleaved[:100], interleaved[100:]], build)
        assert len(mixed["rows"]["pkt"]) > 10
        assert mixed == _fed_in(
            [STEADY[:50], packets[:50], STEADY[50:], packets[50:]], build
        )

    @pytest.mark.parametrize("poison", [object(), ("not", "a", "record")])
    def test_a_batch_that_raises_admits_and_counts_nothing(self, poison):
        gs = _instance()
        gs.feed(STEADY[:10])
        batch = STEADY[10:20] + [poison] + STEADY[20:30]
        with pytest.raises(ExecutionError, match="not a Record"):
            gs.feed(batch)
        assert gs.metrics.total("stream_records_total", stream="TCP") == 10
        assert gs.metrics.total("stream_ingested_total", stream="TCP") == 10
        gs.feed(STEADY[10:])
        assert _seen(gs) == _fed_in([STEADY[:10], STEADY[10:]])

    def test_with_validation_the_non_record_is_quarantined(self):
        gs = Gigascope(cost_model=CostModel(), validate_admission=True)
        gs.register_stream(TCP_SCHEMA)
        _subset_sum(gs)
        gs.start()
        gs.feed(STEADY[:80] + [object()] + STEADY[80:])
        seen = _seen(gs)
        total = gs.metrics.total
        assert total("stream_quarantined_total", stream="TCP") == 1
        assert total("stream_records_total", stream="TCP") == len(STEADY) + 1
        assert total("stream_ingested_total", stream="TCP") == len(STEADY)
        assert seen["rows"] == _fed_in([STEADY])["rows"]

    def test_shedding_sees_the_run(self):
        shed = _fed_in(CUT, shed_threshold=20)
        per_second = Counter(r.values[0] for r in STEADY)
        assert shed["report"]["streams"]["TCP"]["shed"] == sum(
            max(0, n - 20) for n in per_second.values()
        ) > 0
        assert shed == _fed_in(map(_declined, CUT), shed_threshold=20)
        assert shed == _fed_in([STEADY], shed_threshold=20)

    @pytest.mark.parametrize("shape", [tuple, iter, lambda b: (r for r in b)])
    def test_feed_takes_any_iterable(self, shape):
        assert _fed_in([shape(batch) for batch in CUT]) == _fed_in(CUT)

    def test_feed_neither_keeps_nor_changes_the_callers_list(self):
        gs = _instance()
        for batch in CUT:
            mine = list(batch)
            assert gs.feed(mine) == len(batch)
            assert mine == batch
            mine.clear()
        assert _seen(gs) == _fed_in(CUT)


class TestTheBatchIsTheBuffer:
    """Admission hands each low-level node its stream's whole run:
    nothing waits between batches and nothing is lost after admission,
    so one batch of 80 000 records answers what batches of 512 do —
    shedding too, which counts records per second of stream time."""

    SELECTIONS = {
        "a1": "SELECT time, srcIP, len FROM TCP",
        "a2": "SELECT time, srcIP, len FROM TCP",
        "b": "SELECT time, srcIP, len FROM TCP WHERE len > 200",
    }

    @pytest.fixture(scope="class")
    def records(self):
        return list(islice(data_center_feed(TraceConfig(rate_scale=0.01, seed=5)), 80_000))

    #: about 1 000 records per second: the threshold sheds most of every second
    SHED = 256

    def serial(self, records, batch_size, shed):
        gs = Gigascope(cost_model=CostModel(), shed_threshold=shed)
        gs.register_stream(TCP_SCHEMA)
        _subset_sum(gs)
        gs.add_query(self.SELECTIONS["a1"], name="all")
        gs.run(records, batch_size=batch_size)
        admitted = len(gs.results("all"))
        assert admitted == len(records) if shed is None else admitted == shed * 80
        return {
            "rows": {h.name: [r.values for r in h.results] for h in gs.query_handles()},
            "series": series(gs.metrics),
            "cost": gs.cost.accounts(),
            "report": gs.run_report(),
        }

    def served(self, records, batch_size, shed):
        """Two signature groups on one stream: ``a1`` and ``b`` lead and
        take their runs from the scan, ``a2`` follows ``a1`` by replay.
        A shedding instance shares nothing: each sheds for itself."""
        engine = deploy(ExecTarget(serve=True, shed_threshold=shed))
        served = [engine.register(text, name="q", qid=qid) for qid, text in self.SELECTIONS.items()]
        for start in range(0, len(records), batch_size):
            engine.feed(records[start : start + batch_size])
        engine.finish()
        if shed is None:
            batches = -(-len(records) // batch_size)
            assert engine.metrics.value("serving_scans_total", stream="TCP", outcome="taken") == batches
            assert engine.metrics.value("serving_shared_replays_total") == batches
        assert len(served[1].results) == (len(records) if shed is None else shed * 80)
        return {
            sq.qid: {
                "rows": [r.values for r in sq.results],
                "ingested": sq.instance.metrics.total("stream_ingested_total", stream="TCP"),
                "cost": sq.instance.cost.accounts(),
                "report": sq.instance.run_report(),
            }
            for sq in served
        }

    @pytest.mark.parametrize(
        "deployment, shed",
        [("serial", None), ("served", None), ("serial", SHED), ("served", SHED)],
        ids=["serial", "served", "serial,shed", "served,shed"],
    )
    def test_one_batch_answers_what_many_do(self, records, deployment, shed):
        run = getattr(self, deployment)
        assert run(records, len(records), shed) == run(records, 512, shed)


class TestACheckedRunNeverWidensAdmission:
    """A ``StreamRun`` carries ``run_stream``'s verdict, which names a
    stream and nothing more: an instance that validates still coerces it
    payload by payload, one that does not register its stream refuses
    it, each exactly as it treats the same records unwrapped."""

    def test_a_validating_instance_coerces_each_payload(self, monkeypatch):
        batch = list(STEADY)
        batch[80] = Record(TCP_SCHEMA, (math.nan,) + batch[80].values[1:])
        checked = StreamRun(batch, run_stream(batch))
        assert checked.stream == "TCP"
        gs = _instance(validate_admission=True)
        per_payload = _spy_on_admission(gs, monkeypatch)
        gs.feed(checked)
        assert len(per_payload) == len(batch)
        total = gs.metrics.total
        assert total("stream_quarantined_total", stream="TCP") == 1
        assert total("stream_records_total") == total("stream_ingested_total") + 1
        seen = _seen(gs)
        assert seen["rows"]["q"]
        assert seen == _fed_in([batch], validate_admission=True)

    @pytest.mark.parametrize("validate", [False, True])
    def test_a_run_of_a_stream_not_registered_is_refused(self, validate):
        packets = [Record(PKT_SCHEMA, r.values[: len(PKT_SCHEMA)]) for r in STEADY]

        def fed(batch):
            gs = Gigascope(cost_model=CostModel(), validate_admission=validate)
            gs.register_stream(TCP_SCHEMA)
            _subset_sum(gs)
            gs.start()
            gs.feed(STEADY[:80])
            raised = None
            try:
                gs.feed(batch)
            except ExecutionError as exc:
                raised = str(exc)
            gs.feed(STEADY[80:])
            total = gs.metrics.total
            refused = total("stream_quarantined_total")
            assert total("stream_records_total") == total("stream_ingested_total") + refused
            letters = [(e.reason, e.source) for e in gs.quarantine.entries]
            return raised, refused, letters, _seen(gs)

        checked = fed(StreamRun(packets, "PKT"))
        assert checked == fed(packets)
        raised, refused, _, seen = checked
        assert seen["rows"]["q"]
        if validate:
            assert (raised, refused) == (None, len(packets))
        else:
            assert (raised, refused) == ("record for unregistered stream 'PKT'", 0)


#: a value of each schema type (NaN would not equal itself)
_VALUES = {
    "int": st.integers(), "uint": st.integers(0, 2**32), "bool": st.booleans(),
    "float": st.floats(allow_nan=False), "str": st.text(max_size=6),
}


@st.composite
def _runs(draw):
    """A run of one schema's records: any attribute types, any length."""
    tags = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=1, max_size=6))
    orders = draw(st.lists(st.sampled_from(Ordering), min_size=len(tags), max_size=len(tags)))
    schema = StreamSchema(
        draw(st.sampled_from(["S", "TCP"])),
        [Attribute(f"a{i}", tag, order) for i, (tag, order) in enumerate(zip(tags, orders))],
    )
    rows = draw(st.lists(st.tuples(*(_VALUES[tag] for tag in tags)), max_size=30))
    return StreamRun([Record(schema, row) for row in rows], schema.name)


class TestAStreamRunTravels:
    """A ``StreamRun`` crosses a process boundary (the supervised shard
    pool pickles each bucket) and is copied like any tuple, its verdict
    with it; ``tuple``'s own reduction used to drop ``stream``."""

    @pytest.mark.parametrize(
        "travel",
        [
            *(lambda run, p=p: pickle.loads(pickle.dumps(run, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=[*(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)), "copy", "deepcopy"],
    )
    def test_a_round_trip_keeps_the_records_and_the_stream(self, travel):
        batch = list(STEADY[:50])
        back = travel(StreamRun(batch, "TCP"))
        assert type(back) is StreamRun and back.stream == "TCP"
        assert [r.values for r in back] == [r.values for r in batch]
        assert run_stream(back) == "TCP"

    @example(run=StreamRun([], "S"))
    @given(run=_runs())
    def test_a_pickled_run_is_its_records(self, run):
        """A run pickles as its schema once and its rows' values, and is
        rebuilt as exact ``Record``s of an equal schema."""
        back = pickle.loads(pickle.dumps(run))
        assert type(back) is StreamRun and back.stream == run.stream
        assert all(type(r) is Record for r in back)
        assert [r.values for r in back] == [r.values for r in run]
        assert all(r.schema == run[0].schema for r in back)

    @pytest.mark.parametrize("build", [_aggregate, _selection])
    def test_a_supervised_run_has_the_inline_rows(self, build):
        """Shard workers ship their rows to the parent as value tuples,
        rebuilt under the query's output schema: the rows are the inline
        pool's, in its order.  One round, so both pools hand the MERGE each
        shard's rows alike (across rounds, rows that tie on the merge
        attribute come in pool-dependent order: DESIGN.md §2)."""
        def results(supervise):
            sh = ShardedGigascope(shards=2, supervise=supervise)
            sh.register_stream(TCP_SCHEMA)
            build(sh)
            sh.run(iter(STEADY), batch_size=len(STEADY))
            return sh, sh.results("q")

        (_, inline), (sh, supervised) = results(False), results(True)
        assert len(inline) > 3 and supervised == inline
        assert all(r.schema is sh.query("q").output_schema for r in supervised)


class TestTheFeederForwards:
    """The runtime's own pass-through feeder hands its input on as it
    is; a user's identity projection re-wraps, and is the oracle."""

    EVERY_COLUMN = f"SELECT {', '.join(TCP_SCHEMA.names)} FROM TCP"

    QUERIES = {
        "sampling": subset_sum_query(window=1, target=20, stream="{stream}"),
        "aggregate": "SELECT tb, srcIP, sum(len), count(*) FROM {stream}"
        " GROUP BY time/1 as tb, srcIP HAVING count(*) > 1",
    }

    @pytest.mark.parametrize("vectorize", [False, True])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_same_rows_series_and_charges_as_a_user_written_feeder(
        self, query, vectorize
    ):
        def automatic(gs):
            gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
            gs.add_query(self.QUERIES[query].format(stream="TCP"), name="q")

        def by_hand(gs):
            gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
            gs.add_query(self.EVERY_COLUMN, name="q__lowsel", keep_results=False)
            gs.add_query(self.QUERIES[query].format(stream="q__lowsel"), name="q")

        forwarded = _fed_in(CUT, automatic, vectorize=vectorize)
        assert forwarded["cost"]["q__lowsel"] > 0 and len(forwarded["rows"]["q"]) > 3
        assert forwarded == _fed_in(CUT, by_hand, vectorize=vectorize)

    def test_only_the_runtimes_own_feeder_forwards(self):
        gs = _instance()
        feeder = gs.query("q__lowsel").operator
        assert all(a is b for a, b in zip(feeder.process_many(STEADY[:5]), STEADY))
        gs = _instance(lambda gs: gs.add_query(self.EVERY_COLUMN, name="mine"))
        gs.feed(STEADY[:5])
        assert [r.values for r in gs.results("mine")] == [r.values for r in STEADY[:5]]
        assert {r.schema.name for r in gs.results("mine")} == {"mine"}


class TestAColumnarOperatorIsColumnarWhoeverFeedsIt:
    """``execution_mode`` names the engine that runs: the columnar
    kernel is entered once per run whether the run comes from admission,
    from a per-tuple parent, through ``emit`` or from a leader's replay."""

    AGGREGATE = "SELECT tb, srcIP, sum(len), count(*) FROM TCP GROUP BY time/1 as tb, srcIP"

    @pytest.fixture
    def entered(self, monkeypatch):
        """Kernel entries, by operator."""
        from collections import Counter

        from repro.dsms.vectorized import VectorizedAggregationOperator as Columnar

        entered, kernel = Counter(), Columnar.process_batch

        def counting(operator, batch, out=None):
            entered[operator] += 1
            return kernel(operator, batch, out)

        monkeypatch.setattr(Columnar, "process_batch", counting)
        return entered

    def test_under_a_per_tuple_parent(self, entered):
        gs = _instance(_aggregate_of_a_sample, vectorize=True)
        parent, child = gs.query("pre").operator, gs.query("q").operator
        assert (parent.execution_mode, child.execution_mode) == ("tuple", "vectorized")
        runs = 0
        for batch in CUT:
            sampled = len(gs.results("pre"))
            gs.feed(batch)
            runs += len(gs.results("pre")) > sampled
        assert runs > 1 and entered == {child: runs}
        assert set(gs.run_report()["vectorize"]["fallbacks"]) == {"pre"}
        assert _seen(gs)["rows"] == _fed_in(CUT, _aggregate_of_a_sample)["rows"]

    def test_through_emit(self, entered):
        def build(gs):
            gs.add_query(self.AGGREGATE, name="q")

        gs = _instance(build, vectorize=True)
        for batch in CUT:
            gs.emit("q__lowsel", batch)
        assert entered == {gs.query("q").operator: len(CUT)}
        assert _seen(gs)["rows"]["q"] == _fed_in(CUT, build)["rows"]["q"]

    def test_served_in_a_sharing_group(self, entered):
        from repro.serving.server import StandingQueryEngine, drive

        def factory():
            gs = Gigascope(cost_model=CostModel(), vectorize=True)
            gs.register_stream(TCP_SCHEMA)
            return gs

        def state(gs):
            return (
                [r.values for r in gs.results("q")],
                sorted(gs.metrics.comparable_items()),
                gs.cost.accounts(),
            )

        engine = StandingQueryEngine(factory)
        served = [engine.register(self.AGGREGATE, name="q") for _ in range(2)]
        assert served[0].signature is not None
        assert served[0].signature == served[1].signature
        drive(engine, STEADY, batch_size=64)
        batches = -(-len(STEADY) // 64)
        assert engine.metrics.value("serving_shared_replays_total") == batches
        assert entered == {sq.instance.query("q").operator: batches for sq in served}
        solo = factory()
        solo.add_query(self.AGGREGATE, name="q")
        solo.run(STEADY, batch_size=64)
        assert len(solo.results("q")) > 3
        for sq in served:
            assert state(sq.instance) == state(solo)


class TestOneBatchPerPolledSpan:
    SELECTION = "SELECT time, len FROM TCP WHERE len > 200"
    AGGREGATE = "SELECT tb, sum(len), count(*) FROM TCP GROUP BY time/1 as tb"

    def _builds(self):
        return {
            "sel": lambda gs: gs.add_query(self.SELECTION, name="sel"),
            "agg": lambda gs: gs.add_query(self.AGGREGATE, name="agg"),
            "q": _subset_sum,
        }

    def test_three_queries_on_one_stream_share_it(self, monkeypatch):
        from collections import Counter

        from repro.dsms.vectorized import RecordBatch

        converted, convert = Counter(), RecordBatch._convert

        def counting(batch, name):
            converted[len(batch), name] += 1
            return convert(batch, name)

        monkeypatch.setattr(RecordBatch, "_convert", counting)
        builds = self._builds()

        def together(gs):
            for build in builds.values():
                build(gs)

        gs = _instance(together, vectorize=True)
        assert gs.query("agg").operator.execution_mode == "vectorized"
        assert gs.query("q").operator.execution_mode == "tuple"
        gs.feed(STEADY)
        # The whole span: ``len`` for the selection's WHERE, ``time`` for
        # the aggregate's window id -- once each, whoever asked first.
        assert {
            name: n for (length, name), n in converted.items() if length == len(STEADY)
        } == {"len": 1, "time": 1}
        shared = _seen(gs)["rows"]
        for name, build in builds.items():
            assert shared[name] == _fed_in([STEADY], build, vectorize=True)["rows"][name]
            assert len(shared[name]) > 2

    def test_a_converted_column_cannot_be_written(self):
        from repro.dsms.vectorized import RecordBatch

        column = RecordBatch.from_records(TCP_SCHEMA, STEADY).column("len")
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
