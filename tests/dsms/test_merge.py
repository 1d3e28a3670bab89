"""The order-preserving MERGE operator and its runtime integration."""

import heapq
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExecutionError, PlanningError, SchemaError
from repro.dsms.operators.merge import MergeOperator
from repro.dsms.runtime import Gigascope
from repro.streams.records import Record
from repro.streams.schema import Attribute, Ordering, StreamSchema, TCP_SCHEMA

SCHEMA = StreamSchema(
    "M", [Attribute("t", "int", Ordering.INCREASING), Attribute("v", "int")]
)


def rec(t, v=0):
    return Record(SCHEMA, (t, v))


class TestOperator:
    def test_merges_in_order(self):
        merge = MergeOperator(SCHEMA, ["a", "b"])
        out = []
        out += merge.process_from("a", rec(1))
        out += merge.process_from("b", rec(2))
        out += merge.process_from("a", rec(3))
        out += merge.process_from("b", rec(4))
        out += merge.flush()
        assert [r["t"] for r in out] == [1, 2, 3, 4]

    def test_holds_until_all_sources_speak(self):
        merge = MergeOperator(SCHEMA, ["a", "b"])
        assert merge.process_from("a", rec(1)) == []
        assert merge.buffered == 1
        released = merge.process_from("b", rec(5))
        # t=1 is safe (both frontiers >= 1); t=5 must wait — source a may
        # still produce records between 1 and 5.
        assert [r["t"] for r in released] == [1]
        assert merge.buffered == 1

    def test_watermark_holds_back_ahead_source(self):
        merge = MergeOperator(SCHEMA, ["a", "b"])
        merge.process_from("b", rec(0))
        out = merge.process_from("a", rec(10))
        # b's frontier is 0: the record at t=10 must wait.
        assert [r["t"] for r in out] == [0]
        out = merge.process_from("b", rec(12))
        # a's frontier is now the minimum (10): t=10 flows, t=12 waits.
        assert [r["t"] for r in out] == [10]
        assert [r["t"] for r in merge.flush()] == [12]

    def test_interleaves_equal_timestamps_stably(self):
        merge = MergeOperator(SCHEMA, ["a", "b"])
        merge.process_from("a", rec(1, v=1))
        out = merge.process_from("b", rec(1, v=2))
        out += merge.flush()
        assert [r["v"] for r in out] == [1, 2]

    def test_ended_source_releases_watermark(self):
        merge = MergeOperator(SCHEMA, ["a", "b"])
        merge.process_from("a", rec(7))
        released = merge.end_source("b")
        assert [r["t"] for r in released] == [7]

    def test_out_of_order_source_rejected(self):
        merge = MergeOperator(SCHEMA, ["a", "b"])
        merge.process_from("a", rec(5))
        with pytest.raises(ExecutionError, match="violated ordering"):
            merge.process_from("a", rec(3))

    def test_unknown_source_rejected(self):
        merge = MergeOperator(SCHEMA, ["a", "b"])
        with pytest.raises(ExecutionError, match="unknown merge source"):
            merge.process_from("zzz", rec(1))

    def test_plain_process_rejected(self):
        merge = MergeOperator(SCHEMA, ["a", "b"])
        with pytest.raises(ExecutionError, match="process_from"):
            merge.process(rec(1))

    def test_needs_ordered_attribute(self):
        unordered = StreamSchema("U", [Attribute("x")])
        with pytest.raises(SchemaError):
            MergeOperator(unordered, ["a", "b"])

    def test_needs_two_sources(self):
        with pytest.raises(ExecutionError):
            MergeOperator(SCHEMA, ["solo"])


SOURCES = ["a", "b", "c"]


@st.composite
def arrivals(draw):
    """Runs ``(source, records)`` in arrival order, each source's keys
    non-decreasing across its runs; ``v`` numbers every record."""
    last = dict.fromkeys(SOURCES, 0)
    runs, number = [], 0
    for source, steps in draw(
        st.lists(st.tuples(st.sampled_from(SOURCES), st.lists(st.integers(0, 2), max_size=6)), max_size=14)
    ):
        run = []
        for step in steps:
            last[source] += step
            run.append(rec(last[source], number))
            number += 1
        runs.append((source, run))
    return runs


def merged(merge, runs):
    """What ``merge`` releases over ``runs``, per call."""
    return [merge.process_many_from(source, run) for source, run in runs]


def heap_not_sorted(entries):
    """A heap of ``entries`` built as pushes in reverse order build it:
    heap-ordered, as older checkpoints held it, but seldom sorted."""
    heap = []
    for entry in reversed(entries):
        heapq.heappush(heap, entry)
    return heap


class TestReleaseProperties:
    """The MERGE buffers by appending and releases a sorted slice cut at
    the watermark; what it releases is the heap's order."""

    @given(runs=arrivals())
    def test_release_order_is_a_stable_sort_of_arrival_order(self, runs):
        merge = MergeOperator(SCHEMA, SOURCES)
        released = [r for out in merged(merge, runs) for r in out] + merge.flush()
        arrived = [r for _, run in runs for r in run]
        assert released == sorted(arrived, key=lambda r: r["t"])
        assert merge.buffered == 0

    @given(runs=arrivals())
    def test_a_silent_source_holds_everything_back(self, runs):
        spoke = {source for source, run in runs if run}
        merge = MergeOperator(SCHEMA, SOURCES)
        released = [r for out in merged(merge, runs) for r in out]
        if spoke != set(SOURCES):
            assert released == []
            assert merge.buffered == sum(len(run) for _, run in runs)

    @given(runs=arrivals(), cut=st.integers(0, 14))
    def test_a_restored_checkpoint_releases_what_the_run_would(self, runs, cut):
        """A checkpoint mid-buffer, and one whose ``heap`` is heap-ordered
        but not sorted, restore to release the same rows in the same order."""
        merge = MergeOperator(SCHEMA, SOURCES)
        merged(merge, runs[:cut])
        snapshot = pickle.dumps(merge.checkpoint())
        heap = pickle.loads(snapshot)["heap"]
        assert heap == sorted(heap)
        expected = merged(merge, runs[cut:]) + [merge.flush()]
        for older in (False, True):
            state = pickle.loads(snapshot)
            if older:
                state["heap"] = heap_not_sorted(state["heap"])
            restored = MergeOperator(SCHEMA, SOURCES)
            restored.restore(state)
            assert restored.buffered == len(heap)
            assert merged(restored, runs[cut:]) + [restored.flush()] == expected

    def test_an_older_unsorted_heap_restores(self):
        merge = MergeOperator(SCHEMA, SOURCES)
        merged(merge, [("a", [rec(t, t) for t in range(5)]), ("b", [rec(9)])])
        heap = heap_not_sorted(merge.checkpoint()["heap"])
        assert heap != sorted(heap)
        restored = MergeOperator(SCHEMA, SOURCES)
        restored.restore(dict(merge.checkpoint(), heap=heap))
        assert [r.values for r in restored.end_source("c")] == [(t, t) for t in range(5)]
        assert [r.values for r in restored.flush()] == [(9, 0)]

    def test_a_violation_releases_the_records_before_it(self):
        merge = MergeOperator(SCHEMA, ["a", "b"])
        merge.process_from("b", rec(10))
        out = []
        with pytest.raises(ExecutionError, match="violated ordering: 2 after 4"):
            merge.process_many_from("a", [rec(1), rec(4), rec(2), rec(5)], out)
        assert [r["t"] for r in out] == [1, 4]
        assert merge.buffered == 1


class TestRuntimeIntegration:
    def packets(self, src, times):
        return [
            Record(TCP_SCHEMA, (t, i + 1, src, 2, 100, 1024, 80, 6))
            for i, t in enumerate(times)
        ]

    def build(self):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.add_query("SELECT time, len FROM TCP WHERE srcIP = 1", name="a")
        gs.add_query("SELECT time, len FROM TCP WHERE srcIP = 2", name="b")
        merged = gs.add_merge("both", ["a", "b"])
        return gs, merged

    def test_merge_combines_query_outputs(self):
        gs, merged = self.build()
        records = self.packets(1, [0, 2, 4]) + self.packets(2, [1, 3, 5])
        records.sort(key=lambda r: r["uts"])  # interleave by uts arrival
        gs.run(iter(records))
        times = [r["time"] for r in merged.results]
        assert times == sorted(times)
        assert len(times) == 6

    def test_downstream_windowing_over_merge(self):
        gs, _merged = self.build()
        top = gs.add_query(
            "SELECT tb, count(*) FROM both GROUP BY time/2 as tb", name="top"
        )
        records = self.packets(1, [0, 1, 2, 3]) + self.packets(2, [0, 1, 2, 3])
        gs.run(iter(records))
        counts = {row["tb"]: row[1] for row in top.results}
        assert counts == {0: 4, 1: 4}

    def test_validation(self):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.add_query("SELECT time FROM TCP", name="only")
        with pytest.raises(PlanningError, match="at least two"):
            gs.add_merge("m", ["only"])
        with pytest.raises(PlanningError, match="not a registered query"):
            gs.add_merge("m", ["only", "ghost"])
        gs.add_query("SELECT time, len FROM TCP", name="wider")
        with pytest.raises(PlanningError, match="share one schema"):
            gs.add_merge("m", ["only", "wider"])
