"""The two-level Gigascope runtime."""

import gc
import weakref

import pytest

from repro.errors import AnalysisError, PlanningError, ExecutionError
from repro.dsms.cost import CostModel
from repro.dsms.runtime import Gigascope
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA
from repro.algorithms.bindings import subset_sum_library, SUBSET_SUM_QUERY


def packets(n=10, start_time=0, length=100):
    return [
        Record(TCP_SCHEMA, (start_time + i // 5, i + 1, 1, 2, length, 1024, 80, 6))
        for i in range(n)
    ]


class TestRegistration:
    def test_duplicate_stream_rejected(self, gigascope):
        with pytest.raises(PlanningError, match="already registered"):
            gigascope.register_stream(TCP_SCHEMA)

    def test_duplicate_query_name_rejected(self, gigascope):
        gigascope.add_query("SELECT len FROM TCP", name="q")
        with pytest.raises(PlanningError, match="already in use"):
            gigascope.add_query("SELECT len FROM TCP", name="q")

    def test_unknown_source_rejected(self, gigascope):
        with pytest.raises(Exception):
            gigascope.add_query("SELECT x FROM NOWHERE")

    def test_auto_names(self, gigascope):
        h1 = gigascope.add_query("SELECT len FROM TCP")
        h2 = gigascope.add_query("SELECT len FROM TCP")
        assert h1.name != h2.name


class TestLevels:
    def test_selection_on_source_is_low_level(self, gigascope):
        handle = gigascope.add_query("SELECT len FROM TCP")
        assert handle.level == "low"

    def test_aggregation_gets_auto_feeder(self, gigascope):
        handle = gigascope.add_query(
            "SELECT tb, sum(len) FROM TCP GROUP BY time/2 as tb", name="agg"
        )
        assert handle.level == "high"
        feeder = gigascope.query("agg__lowsel")
        assert feeder.level == "low"

    def test_query_reading_from_query_is_high_level(self, gigascope):
        gigascope.add_query("SELECT time, len FROM TCP WHERE len > 10", name="sel")
        handle = gigascope.add_query("SELECT len FROM sel", name="top")
        assert handle.level == "high"


@pytest.mark.parametrize("threshold", [0, -3])
def test_a_shed_threshold_below_one_is_refused(threshold):
    with pytest.raises(ValueError, match="shed threshold must be >= 1"):
        Gigascope(shed_threshold=threshold)


class TestShedByStreamTime:
    """``shed=N``: at most N records per value of the stream's first
    increasing attribute; a record whose value does not compare greater
    counts against the current value's allowance."""

    def admitted(self, times, threshold=2, cuts=()):
        gs = Gigascope(shed_threshold=threshold)
        gs.register_stream(TCP_SCHEMA)
        handle = gs.add_query("SELECT time, len FROM TCP", name="sel")
        fed = [
            Record(TCP_SCHEMA, (t, *Record.from_mapping(TCP_SCHEMA, {"len": i}).values[1:]))
            for i, t in enumerate(times)
        ]
        gs.start()
        for lo, hi in zip((0, *cuts), (*cuts, len(fed))):
            gs.feed(fed[lo:hi])
        gs.finish()
        assert gs.metrics.total("stream_shed_total") == len(fed) - len(handle.results)
        return [r.values[1] for r in handle.results]

    @pytest.mark.parametrize("cuts", [(), (1,), (2, 3), (1, 2, 3, 4, 5, 6, 7)])
    def test_late_equal_and_unorderable_times_count_against_the_current_second(self, cuts):
        # positions:     0  1  2     3  4  5     6  7  8
        times = [None, 5, 5, 5, float("nan"), 4, 6, None, 6]
        # None opens no second, so 0 is admitted before any; 5 admits 1 and
        # 2, then 3 (equal), 4 (NaN) and 5 (late) are over its allowance;
        # 6 admits 6 and 7 (None counts against it), and 8 is shed
        assert self.admitted(times, cuts=cuts) == [0, 1, 2, 6, 7]

    def test_a_stream_with_no_increasing_attribute_is_refused_by_name(self):
        from repro.streams.schema import Attribute, StreamSchema

        flat = StreamSchema("FLAT", [Attribute("k", "int"), Attribute("v", "int")])
        gs = Gigascope(shed_threshold=8)
        with pytest.raises(PlanningError, match="stream 'FLAT' has no increasing attribute"):
            gs.register_stream(flat)
        Gigascope().register_stream(flat)  # without shedding it needs none


class TestExecution:
    def test_selection_results(self, gigascope):
        handle = gigascope.add_query("SELECT len FROM TCP WHERE len > 50")
        gigascope.run(iter(packets(10, length=100)))
        assert len(handle.results) == 10

    def test_chained_queries(self, gigascope):
        gigascope.add_query("SELECT time, len FROM TCP WHERE len > 50", name="sel")
        top = gigascope.add_query(
            "SELECT tb, count(*) FROM sel GROUP BY time/2 as tb", name="top"
        )
        gigascope.run(iter(packets(10)))
        # 10 packets across times 0..1 -> one window, count 10
        assert top.results[0][1] == 10

    def test_aggregation_through_auto_feeder(self, gigascope):
        handle = gigascope.add_query(
            "SELECT tb, sum(len) FROM TCP GROUP BY time/1 as tb", name="agg"
        )
        gigascope.run(iter(packets(10, length=7)))
        total = sum(row[1] for row in handle.results)
        assert total == 70

    def test_sampling_query_end_to_end(self, gigascope):
        gigascope.use_stateful_library(subset_sum_library())
        handle = gigascope.add_query(
            SUBSET_SUM_QUERY.format(window=1, target=3), name="ss"
        )
        gigascope.run(iter(packets(50)))
        assert handle.results, "sampling query produced no output"

    def test_keep_results_false_discards(self, gigascope):
        handle = gigascope.add_query(
            "SELECT len FROM TCP", keep_results=False, name="sel"
        )
        gigascope.run(iter(packets(5)))
        assert handle.results == []

    def test_run_returns_record_count(self, gigascope):
        gigascope.add_query("SELECT len FROM TCP")
        assert gigascope.run(iter(packets(17))) == 17

    def test_record_for_unknown_stream_rejected(self, gigascope):
        from repro.streams.schema import PKT_SCHEMA

        gigascope.add_query("SELECT len FROM TCP")
        bad = Record(PKT_SCHEMA, (0, 1, 2, 100, 1024, 80, 6))
        with pytest.raises(ExecutionError, match="unregistered stream"):
            gigascope.run(iter([bad]))

    def test_unknown_query_lookup(self, gigascope):
        with pytest.raises(ExecutionError):
            gigascope.query("ghost")


class TestCostAccounting:
    def test_feeder_charges_copies(self):
        cost = CostModel()
        gs = Gigascope(cost_model=cost)
        gs.register_stream(TCP_SCHEMA)
        gs.add_query(
            "SELECT tb, sum(len) FROM TCP GROUP BY time/2 as tb", name="agg"
        )
        gs.run(iter(packets(20)))
        feeder_cycles = cost.cycles("agg__lowsel")
        assert feeder_cycles >= 20 * cost.book.tuple_copy

    def test_forwarded_counter(self, gigascope):
        gigascope.add_query("SELECT time, len FROM TCP WHERE len > 50", name="sel")
        gigascope.add_query("SELECT len FROM sel", name="top")
        gigascope.run(iter(packets(10, length=100)))
        assert gigascope.query("sel").forwarded == 10

    def test_cpu_percent_uses_account(self):
        cost = CostModel()
        gs = Gigascope(cost_model=cost)
        gs.register_stream(TCP_SCHEMA)
        gs.add_query("SELECT len FROM TCP", name="sel")
        gs.run(iter(packets(100)))
        assert gs.cpu_percent("sel", 1.0) > 0


class TestFromRewrite:
    def test_query_with_commented_from_runs_through_feeder(self, gigascope):
        handle = gigascope.add_query(
            "-- counts FROM TCP per bucket\n"
            "SELECT tb, count(*) FROM TCP GROUP BY time/2 as tb",
            name="agg",
        )
        gigascope.run(iter(packets(10)))
        assert gigascope.query("agg__lowsel").level == "low"
        assert sum(row[1] for row in handle.results) == 10


class TestStrictRecompile:
    """A heavy query is compiled as the user wrote it and then planned
    to read its auto-inserted feeder; a failure there must not leak the
    feeder."""

    def test_the_user_text_compiles_once(self, monkeypatch):
        import repro.dsms.runtime as runtime_mod

        calls = []
        real = runtime_mod.compile_query

        def spy(text, registries, query_name="Q"):
            calls.append(query_name)
            return real(text, registries, query_name=query_name)

        monkeypatch.setattr(runtime_mod, "compile_query", spy)
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library())
        handle = gs.add_query(SUBSET_SUM_QUERY.format(window=2, target=5), name="ss")
        assert calls.count("ss") == 1
        assert handle.source == handle.feeder == "ss__lowsel"
        # a heavy query that does not compile inserts no feeder
        with pytest.raises(AnalysisError):
            gs.add_query("SELECT tb, nope(len) FROM TCP GROUP BY time/2 as tb", name="bad")
        assert [name for name in gs.registries.schemas if name.endswith("__lowsel")] == ["ss__lowsel"]

    def test_failed_recompile_removes_feeder(self, monkeypatch):
        import repro.dsms.runtime as runtime_mod

        real = runtime_mod.analyze
        arm = [True]

        def failing(ast, registries, *args, **kwargs):
            if arm[0] and ast.from_stream.endswith("lowsel"):
                raise PlanningError("recompile boom")
            return real(ast, registries, *args, **kwargs)

        monkeypatch.setattr(runtime_mod, "analyze", failing)
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        query = "SELECT tb, sum(len) FROM TCP GROUP BY time/2 as tb"
        with pytest.raises(PlanningError, match="recompile boom"):
            gs.add_query(query, name="agg")
        with pytest.raises(ExecutionError):
            gs.query("agg__lowsel")
        assert "agg__lowsel" not in gs.registries.schemas
        # The names are reusable once the failure is fixed.
        arm[0] = False
        handle = gs.add_query(query, name="agg")
        gs.run(iter(packets(10)))
        assert handle.results

    def test_an_error_points_into_the_text_the_user_registered(self):
        """The plan reads the ``<name>__lowsel`` feeder, but its spans are
        the user's: on the FROM line the column is not moved by the
        feeder name's length."""
        from repro.dsms.expr import BinaryOp, find_nodes
        from repro.dsms.parser import parse_query

        text = "SELECT tb, count(*) FROM TCP WHERE 10/(len - 40) >= 0 GROUP BY time/1 as tb"
        (divide,) = [
            node for node in find_nodes(parse_query(text).where, BinaryOp) if node.op == "/"
        ]
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.add_query(text, name="query")
        gs.start()
        with pytest.raises(ExecutionError) as caught:
            gs.feed([Record.from_mapping(TCP_SCHEMA, {"time": 0, "len": 40})])
        assert caught.value.span == divide.span
        assert str(caught.value).endswith(f"(at line 1, col {divide.span.col})")
        assert text[divide.span.col - 1] == "/"


class TestIncrementalRun:
    def test_start_feed_finish_matches_run(self):
        def run_oneshot():
            gs = Gigascope()
            gs.register_stream(TCP_SCHEMA)
            handle = gs.add_query(
                "SELECT tb, sum(len) FROM TCP GROUP BY time/2 as tb", name="agg"
            )
            gs.run(iter(packets(20)))
            return [tuple(r.values) for r in handle.results]

        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        handle = gs.add_query(
            "SELECT tb, sum(len) FROM TCP GROUP BY time/2 as tb", name="agg"
        )
        gs.start()
        batch = packets(20)
        gs.feed(batch[:7])
        gs.feed(batch[7:])
        gs.finish()
        assert [tuple(r.values) for r in handle.results] == run_oneshot()

    def test_double_start_rejected(self, gigascope):
        gigascope.start()
        with pytest.raises(ExecutionError, match="already running"):
            gigascope.start()

    def test_feed_requires_start(self, gigascope):
        with pytest.raises(ExecutionError, match="start"):
            gigascope.feed(packets(1))

    def test_finish_requires_start(self, gigascope):
        with pytest.raises(ExecutionError):
            gigascope.finish()


class TestLowLevelAggregation:
    """Paper Figure 1: low-level nodes may do early partial aggregation."""

    def test_runs_at_low_level_without_feeder(self, gigascope):
        handle = gigascope.add_query(
            "SELECT tb, sum(len) FROM TCP GROUP BY time/2 as tb",
            name="agg",
            low_level_aggregation=True,
        )
        assert handle.level == "low"
        with pytest.raises(ExecutionError):
            gigascope.query("agg__lowsel")

    def test_same_results_as_high_level(self):
        from repro.dsms.runtime import Gigascope

        def run(low):
            gs = Gigascope()
            gs.register_stream(TCP_SCHEMA)
            handle = gs.add_query(
                "SELECT tb, sum(len) FROM TCP GROUP BY time/2 as tb",
                name="agg",
                low_level_aggregation=low,
            )
            gs.run(iter(packets(20)))
            return [tuple(r.values) for r in handle.results]

        assert run(True) == run(False)

    def test_early_reduction_cuts_copy_cost(self):
        from repro.dsms.cost import CostModel
        from repro.dsms.runtime import Gigascope

        def total_cycles(low):
            cost = CostModel()
            gs = Gigascope(cost_model=cost)
            gs.register_stream(TCP_SCHEMA)
            gs.add_query(
                "SELECT tb, sum(len) FROM TCP GROUP BY time/2 as tb",
                name="agg",
                low_level_aggregation=low,
            )
            gs.run(iter(packets(200)))
            return cost.total_cycles()

        assert total_cycles(True) < total_cycles(False) / 3

    def test_rejected_for_sampling_queries(self, gigascope):
        gigascope.use_stateful_library(subset_sum_library())
        with pytest.raises(PlanningError, match="only to plain aggregation"):
            gigascope.add_query(
                SUBSET_SUM_QUERY.format(window=2, target=5),
                name="ss",
                low_level_aggregation=True,
            )

    def test_rejected_for_selection(self, gigascope):
        with pytest.raises(PlanningError):
            gigascope.add_query(
                "SELECT len FROM TCP",
                name="sel",
                low_level_aggregation=True,
            )


class _Watched(Record):
    """A fed record the tests hold a weak reference to."""

    __slots__ = ("__weakref__",)


class TestRunRelease:
    """An instance keeps none of the records it was fed once its queries
    have read them, in a first run or a second."""

    def test_each_run_releases_what_it_was_fed(self):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        handle = gs.add_query("SELECT len FROM TCP", name="sel")
        for run in (1, 2):
            refs = []

            def streamed():
                for record in packets(64):
                    watched = _Watched(record.schema, record.values)
                    refs.append(weakref.ref(watched))
                    yield watched

            assert gs.run(streamed(), batch_size=16) == 64
            gc.collect()
            assert sum(ref() is not None for ref in refs) == 0
            stream = gs.run_report()["streams"]["TCP"]
            assert (stream["drops"], stream["backlog"]) == (0, 0)
            assert len(handle.results) == run * 64
