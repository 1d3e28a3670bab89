"""The sampling operator: §5 semantics, §6.4 evaluation order."""

import pickle
from collections import Counter
from dataclasses import replace

import pytest

from repro.dsms.aggregates import Aggregate
from repro.dsms.cost import CostModel
from repro.dsms.operators import build_operator
from repro.dsms.parser.planner import compile_query
from repro.dsms.stateful import StatefulLibrary, StatefulState
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA


def packet(time=0, uts=0, src=1, dst=2, length=100, sport=1024, dport=80, proto=6):
    return Record(TCP_SCHEMA, (time, uts, src, dst, length, sport, dport, proto))


def trace(*specs):
    """specs: (time, src, length) triples with auto-increment uts."""
    return [
        packet(time=t, uts=i + 1, src=s, length=l)
        for i, (t, s, l) in enumerate(specs)
    ]


def build(text, registries, library=None):
    if library is not None:
        registries.stateful = registries.stateful.merge(library)
    plan = compile_query(text, registries)
    assert plan.kind == "sampling", plan.kind
    return build_operator(plan)


def threshold_library(threshold=3):
    """Cleaning keeps only groups with count(*) above a live threshold the
    trigger sets; exposes deterministic hooks for semantics tests."""
    library = StatefulLibrary()

    @library.state("t_state")
    class TState(StatefulState):
        def __init__(self, carried=0):
            self.tuples = 0
            self.cleanings = 0
            self.carried = carried
            self.finalized = False

        @classmethod
        def initial(cls, old):
            return cls(carried=old.tuples if old is not None else 0)

        def on_window_final(self):
            self.finalized = True

    @library.sfun("tick", state="t_state")
    def tick(state, every):
        state.tuples += 1
        return state.tuples % every == 0

    @library.sfun("cleanings", state="t_state")
    def cleanings(state):
        state.cleanings += 1
        return state.cleanings

    @library.sfun("carried", state="t_state")
    def carried(state):
        return state.carried

    return library


class TestWindows:
    QUERY = "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/10 as tb, srcIP SUPERGROUP tb, srcIP"

    def test_output_only_at_window_boundary(self, registries):
        op = build(self.QUERY, registries)
        assert op.process(packet(time=0)) == []
        assert op.process(packet(time=5)) == []
        outs = op.process(packet(time=10))
        assert len(outs) == 1 and outs[0][2] == 2

    def test_finish_flushes_trailing_window(self, registries):
        op = build(self.QUERY, registries)
        op.process(packet(time=0))
        outs = op.finish()
        assert len(outs) == 1
        assert op.finish() == []  # idempotent

    def test_window_stats_recorded(self, registries):
        op = build(self.QUERY, registries)
        for t in (0, 1, 2, 10):
            op.process(packet(time=t))
        op.finish()
        stats = op.window_stats
        assert [s.window for s in stats] == [(0,), (1,)]
        assert stats[0].tuples_seen == 3
        assert stats[0].output_tuples == 1

    def test_run_generator(self, registries):
        op = build(self.QUERY, registries)
        outs = list(op.run(trace((0, 1, 10), (10, 1, 10), (20, 1, 10))))
        assert len(outs) == 3


class TestWhere:
    def test_where_discards(self, registries):
        op = build(
            "SELECT tb, count(*) FROM TCP WHERE len > 100"
            " GROUP BY time/10 as tb SUPERGROUP tb",
            registries,
        )
        op.process(packet(length=50))
        op.process(packet(length=200))
        outs = op.finish()
        assert outs[0][1] == 1
        assert op.window_stats[0].tuples_admitted == 1
        assert op.window_stats[0].tuples_seen == 2

    def test_where_sfun_controls_admission(self, registries):
        op = build(
            "SELECT tb, count(*) FROM TCP WHERE tick(2) = TRUE"
            " GROUP BY time/10 as tb",
            registries,
            threshold_library(),
        )
        for i in range(10):
            op.process(packet(uts=i))
        outs = op.finish()
        assert outs[0][1] == 5  # every second tuple admitted


class TestCleaning:
    def test_cleaning_by_false_evicts(self, registries):
        # §5: during a cleaning phase a group is removed when CLEANING BY
        # is FALSE.  This test pins the resolution of the paper's §6.6 typo.
        op = build(
            "SELECT tb, srcIP, count(*) FROM TCP"
            " GROUP BY time/10 as tb, srcIP"
            " CLEANING WHEN tick(6) = TRUE"
            " CLEANING BY count(*) >= 2",
            registries,
            threshold_library(),
        )
        # Five tuples for src 1, one for src 2; the 6th tuple triggers
        # cleaning; src 2's count(*)=1 fails the predicate and is evicted.
        for stream_tuple in trace(
            (0, 1, 10), (0, 1, 10), (0, 1, 10), (0, 1, 10), (0, 1, 10), (0, 2, 10)
        ):
            op.process(stream_tuple)
        outs = op.finish()
        assert [(o["srcIP"], o[2]) for o in outs] == [(1, 5)]
        assert op.window_stats[0].groups_evicted == 1
        assert op.window_stats[0].cleaning_phases == 1

    def test_no_cleaning_without_trigger(self, registries):
        op = build(
            "SELECT tb, srcIP, count(*) FROM TCP"
            " GROUP BY time/10 as tb, srcIP"
            " CLEANING WHEN tick(100) = TRUE"
            " CLEANING BY count(*) >= 2",
            registries,
            threshold_library(),
        )
        for stream_tuple in trace((0, 1, 10), (0, 2, 10)):
            op.process(stream_tuple)
        outs = op.finish()
        assert len(outs) == 2
        assert op.window_stats[0].cleaning_phases == 0

    def test_evicted_group_can_reenter(self, registries):
        op = build(
            "SELECT tb, srcIP, count(*) FROM TCP"
            " GROUP BY time/10 as tb, srcIP"
            " CLEANING WHEN tick(3) = TRUE"
            " CLEANING BY count(*) >= 2",
            registries,
            threshold_library(),
        )
        # src 2 evicted at tuple 3, then reappears: fresh aggregates.
        for stream_tuple in trace((0, 1, 1), (0, 1, 1), (0, 2, 1), (0, 2, 1)):
            op.process(stream_tuple)
        outs = op.finish()
        counts = {o["srcIP"]: o[2] for o in outs}
        assert counts[2] == 1  # restarted after eviction


class TestHaving:
    def test_having_filters_groups_at_close(self, registries):
        op = build(
            "SELECT tb, srcIP, count(*) FROM TCP"
            " GROUP BY time/10 as tb, srcIP SUPERGROUP tb"
            " HAVING count(*) > 1",
            registries,
        )
        for stream_tuple in trace((0, 1, 1), (0, 1, 1), (0, 2, 1)):
            op.process(stream_tuple)
        outs = op.finish()
        assert [(o["srcIP"]) for o in outs] == [1]

    def test_having_eviction_updates_superaggregates(self, registries):
        # count_distinct$ must shrink as HAVING evicts groups, so stateful
        # final-cleaning predicates see live counts (paper §6.5).
        seen = []
        library = StatefulLibrary()

        @library.state("probe_state")
        class ProbeState(StatefulState):
            pass

        @library.sfun("probe", state="probe_state")
        def probe(state, live):
            seen.append(live)
            # Evict while three or more groups are live: the first group
            # visited is dropped, after which the live count must read 2.
            return live < 3

        op = build(
            "SELECT tb, srcIP FROM TCP"
            " GROUP BY time/10 as tb, srcIP SUPERGROUP tb"
            " HAVING probe(count_distinct$(*)) = TRUE",
            registries,
            library,
        )
        for stream_tuple in trace((0, 1, 1), (0, 2, 1), (0, 3, 1)):
            op.process(stream_tuple)
        outs = op.finish()
        assert seen == [3, 2, 2]
        assert [o["srcIP"] for o in outs] == [2, 3]


class TestSuperGroups:
    def test_states_isolated_per_supergroup(self, registries):
        op = build(
            "SELECT tb, srcIP, count(*) FROM TCP WHERE tick(2) = TRUE"
            " GROUP BY time/10 as tb, srcIP SUPERGROUP tb, srcIP",
            registries,
            threshold_library(),
        )
        # Each srcIP has its own t_state: each admits every 2nd tuple.
        for stream_tuple in trace(
            (0, 1, 1), (0, 1, 1), (0, 2, 1), (0, 2, 1)
        ):
            op.process(stream_tuple)
        outs = op.finish()
        assert {(o["srcIP"], o[2]) for o in outs} == {(1, 1), (2, 1)}

    def test_state_carryover_between_windows(self, registries):
        op = build(
            "SELECT tb, srcIP, carried() FROM TCP WHERE tick(1) = TRUE"
            " GROUP BY time/10 as tb, srcIP SUPERGROUP tb, srcIP",
            registries,
            threshold_library(),
        )
        # Window 0: three tuples for src 1 -> state.tuples == 3.
        for stream_tuple in trace((0, 1, 1), (1, 1, 1), (2, 1, 1)):
            op.process(stream_tuple)
        # Window 1: the new supergroup state carries old.tuples.
        outs = op.process(packet(time=10, uts=99, src=1))
        assert outs  # window 0 flushed
        final = op.finish()
        assert final[0][2] == 3  # carried() == old window's tuple count

    def test_no_carryover_for_new_supergroup_key(self, registries):
        op = build(
            "SELECT tb, srcIP, carried() FROM TCP WHERE tick(1) = TRUE"
            " GROUP BY time/10 as tb, srcIP SUPERGROUP tb, srcIP",
            registries,
            threshold_library(),
        )
        op.process(packet(time=0, uts=1, src=1))
        op.process(packet(time=10, uts=2, src=2))  # different supergroup key
        final = op.finish()
        assert final[0][2] == 0


class _Tally(CostModel):
    """A cost model that also counts each operation charged."""

    def __init__(self):
        super().__init__()
        self.counts = Counter()

    def charge(self, account, operation, count=1):
        self.counts[operation] += count
        super().charge(account, operation, count)


class TestHeldSupergroup:
    """A window's one supergroup (no SUPERGROUP BY beyond the window) is
    looked up once per run and window, any other per record; either way
    the supergroup in hand must never outlive its window.  Every two-run
    cut of the stream is held to the stream fed a record at a time."""

    QUERY = (
        "SELECT tb, srcIP, count(*), carried() FROM TCP WHERE tick(1) = TRUE"
        " GROUP BY time/4 as tb, srcIP SUPERGROUP BY {}"
    )
    #: srcIP alternates every record for three windows, then comes in
    #: threes, so a window boundary falls both between two keys and
    #: between two records of one key
    RECORDS = trace(*[(i, 1 + (i % 2 if i < 12 else i // 3 % 2), 10) for i in range(24)])

    def observe(self, registries, query, runs, held):
        tally = _Tally()
        op = build_operator(compile_query(query, registries), tally)
        assert op._holds_supergroup == held
        rows = [tuple(row) for run in runs for row in op.process_many(run)]
        rows.extend(tuple(row) for row in op.flush())
        probes, inserts = tally.counts["hash_probe"], tally.counts["hash_insert"]
        return rows, probes, inserts, op.m_carryover.value

    @pytest.mark.parametrize(
        "supergroup, held, carryovers", [("tb, srcIP", False, 10), ("tb", True, 5)]
    )
    def test_every_cut_is_a_record_at_a_time(self, registries, supergroup, held, carryovers):
        registries.stateful = registries.stateful.merge(threshold_library())
        query, records = self.QUERY.format(supergroup), self.RECORDS
        want = self.observe(registries, query, [[record] for record in records], held)
        rows, _, _, carried_over = want
        assert len({row[0] for row in rows}) == 6 and carried_over == carryovers
        for cut in range(len(records) + 1):
            runs = [records[:cut], records[cut:]]
            assert self.observe(registries, query, runs, held) == want


class TestKmvAdmission:
    QUERY = (
        "SELECT tb, srcIP, HX FROM TCP"
        " WHERE HX <= Kth_smallest_value$(HX, 3)"
        " GROUP BY time/10 as tb, srcIP, H(destIP) as HX"
        " SUPERGROUP tb, srcIP"
        " HAVING HX <= Kth_smallest_value$(HX, 3)"
        " CLEANING WHEN count_distinct$(*) >= 3"
        " CLEANING BY HX <= Kth_smallest_value$(HX, 3)"
    )

    def test_keeps_k_smallest_hashes(self, registries):
        from repro.dsms.functions import hash32

        op = build(self.QUERY, registries)
        destinations = list(range(40))
        for i, dst in enumerate(destinations):
            op.process(packet(time=0, uts=i, src=1, dst=dst))
        outs = op.finish()
        got = sorted(o["HX"] for o in outs)
        expected = sorted(hash32(d) for d in destinations)[:3]
        assert got == expected

    def test_per_supergroup_sketches(self, registries):
        op = build(self.QUERY, registries)
        for i in range(30):
            op.process(packet(time=0, uts=i, src=i % 2, dst=i))
        outs = op.finish()
        by_src = {}
        for o in outs:
            by_src.setdefault(o["srcIP"], []).append(o["HX"])
        assert set(by_src) == {0, 1}
        assert all(len(v) == 3 for v in by_src.values())


class TestOutputEvaluation:
    def test_select_sfun_evaluated_at_output_time(self, registries):
        # cleanings() increments per call; SELECT-clause stateful functions
        # run last, once per surviving group (paper §6.4).
        op = build(
            "SELECT tb, srcIP, cleanings() FROM TCP"
            " GROUP BY time/10 as tb, srcIP SUPERGROUP tb",
            registries,
            threshold_library(),
        )
        for stream_tuple in trace((0, 1, 1), (0, 2, 1)):
            op.process(stream_tuple)
        outs = op.finish()
        assert sorted(o[2] for o in outs) == [1, 2]

    def test_output_schema_and_ordering(self, registries):
        op = build(
            "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/10 as tb, srcIP"
            " SUPERGROUP tb",
            registries,
        )
        from repro.streams.schema import Ordering

        assert op.output_schema.attribute("tb").ordering is Ordering.INCREASING


class TestLateTuples:
    QUERY = (
        "SELECT tb, srcIP, count(*) FROM TCP"
        " GROUP BY time/10 as tb, srcIP SUPERGROUP tb"
    )

    def test_late_tuple_dropped_and_counted(self, registries):
        op = build(self.QUERY, registries)
        op.process(packet(time=0))
        op.process(packet(time=10))   # closes window 0
        op.process(packet(time=3))    # late: window 0 already emitted
        op.process(packet(time=11))
        outs = op.finish()
        # The late tuple contributed to no group.
        assert sum(o[2] for o in outs) == 2
        stats = {s.window[0]: s for s in op.window_stats}
        assert stats[1].late_tuples == 1
        assert stats[1].tuples_seen == 2

    def test_late_tuples_do_not_reopen_windows(self, registries):
        op = build(self.QUERY, registries)
        op.process(packet(time=25))
        for late_time in (3, 7, 14):
            op.process(packet(time=late_time))
        op.finish()
        assert [s.window for s in op.window_stats] == [(2,)]
        assert op.window_stats[0].late_tuples == 3

    def test_in_order_streams_have_no_late_tuples(self, registries):
        op = build(self.QUERY, registries)
        for t in (0, 5, 10, 15, 20):
            op.process(packet(time=t))
        op.finish()
        assert all(s.late_tuples == 0 for s in op.window_stats)


class TestIncomparableWindows:
    """A tuple whose window id cannot be ordered against the current
    window (e.g. a None timestamp from a corrupt capture) must be counted
    and dropped — not treated as a window boundary, which would evict
    every live group and SFUN state mid-window."""

    QUERY = (
        "SELECT tb, srcIP, count(*) FROM TCP"
        " GROUP BY time as tb, srcIP SUPERGROUP tb"
    )

    def test_incomparable_tuple_dropped_and_counted(self, registries):
        op = build(self.QUERY, registries)
        op.process(packet(time=7))
        op.process(packet(time=7))
        assert op.process(packet(time=None)) == []
        outs = op.finish()
        # The in-flight window survived with both tuples.
        assert len(outs) == 1 and outs[0][2] == 2
        assert op.window_stats[0].incomparable_tuples == 1
        assert op.window_stats[0].tuples_seen == 2

    def test_incomparable_tuples_do_not_open_windows(self, registries):
        op = build(self.QUERY, registries)
        op.process(packet(time=7))
        for _ in range(3):
            op.process(packet(time=None))
        op.process(packet(time=8))
        op.finish()
        assert [s.window for s in op.window_stats] == [(7,), (8,)]
        assert op.window_stats[0].incomparable_tuples == 3


class TestGroupByShadowing:
    """One rule in every operator: GROUP BY expressions see input
    columns; everywhere after, a group-by name wins."""

    PLAIN = (
        "SELECT time, count(*), sum(time) FROM TCP WHERE time > 4"
        " GROUP BY time/2 as time"
    )
    #: a cleaning that never evicts: it only makes this a sampling plan
    NOOP_CLEANING = " CLEANING WHEN tick(1000) = TRUE CLEANING BY count(*) >= 0"

    def test_noop_cleaning_leaves_the_alias_meaning_alone(self, registries):
        registries.stateful = registries.stateful.merge(threshold_library())
        records = [packet(time=t, uts=t) for t in range(12)]
        plain = build_operator(compile_query(self.PLAIN, registries))
        sampled = build(self.PLAIN + self.NOOP_CLEANING, registries)
        want = [tuple(r) for r in plain.run(records)]
        # the alias wins in WHERE and in sum(): only bucket 5 passes > 4
        assert want == [(5, 2, 10)]
        assert [tuple(r) for r in sampled.run(records)] == want

    def test_group_by_expression_itself_sees_the_input_column(self, registries):
        op = build(
            "SELECT time, count(*) FROM TCP GROUP BY time/10 as time, srcIP"
            " SUPERGROUP time",
            registries,
        )
        rows = [tuple(r) for r in op.run([packet(time=25), packet(time=29)])]
        assert rows == [(2, 2)]


class TestRestoreOnFreshOperator:
    """Compiled closures hold no operator state: a checkpoint taken
    mid-window restores onto a freshly built operator, which continues
    exactly where the original would have."""

    QUERY = (
        "SELECT tb, srcIP, count(*), sum(len), cleanings(), count_distinct$(*)"
        " FROM TCP WHERE len > 10 GROUP BY time/10 as tb, srcIP"
        " HAVING count(*) > 0"
        " CLEANING WHEN tick(4) = TRUE CLEANING BY count(*) > 1"
    )

    def test_checkpoint_restore_continue(self, registries):
        library = threshold_library()
        records = trace(
            *[(t, 1 + (t * 7) % 5, 5 + (t * 13) % 40) for t in range(0, 45)]
        )
        whole = build(self.QUERY, registries, library)
        want = [tuple(r) for r in whole.run(records)]
        assert len(want) > 3

        cut = 23  # mid-window, after cleanings and a carried-over supergroup
        first = build(self.QUERY, registries)
        got = [tuple(r) for record in records[:cut] for r in first.process(record)]
        snapshot = pickle.loads(pickle.dumps(first.checkpoint()))
        second = build(self.QUERY, registries)
        second.restore(snapshot)
        for record in records[cut:]:
            got.extend(tuple(r) for r in second.process(record))
        got.extend(tuple(r) for r in second.finish())
        assert got == want
        assert second.window_stats == whole.window_stats


class Spread(Aggregate):
    """A slotted UDAF: the largest value less the smallest."""

    __slots__ = ("lo", "hi")

    def __init__(self):
        self.lo = self.hi = None

    def update(self, value):
        self.lo = value if self.lo is None else min(self.lo, value)
        self.hi = value if self.hi is None else max(self.hi, value)

    def value(self):
        return self.hi - self.lo


class TestAGroupIsCells:
    """A group is one list: its supergroup key, a UDAF's object in one
    cell and each built-in's cells (avg and first two each)."""

    TEXT = (
        "SELECT tb, srcIP, spread(len), avg(len), first(len), min(len), count(*) FROM TCP"
        " GROUP BY time/10 as tb, srcIP"
        " CLEANING WHEN seen(4) = TRUE CLEANING BY count(*) >= 2"
    )
    # (time, srcIP, len): the 4th and 8th records trigger a cleaning pass
    # that evicts the groups seen once; the 9th closes window 0
    RECORDS = trace(
        (0, 1, 10), (0, 2, 20), (0, 1, 30), (0, 3, 40),
        (0, 2, 50), (0, 2, 60), (0, 1, 5), (0, 4, 70),
        (10, 1, 80), (10, 5, 90),
    )
    ROWS = [
        (0, 1, 25, 15.0, 10, 5, 3), (0, 2, 10, 55.0, 50, 50, 2),
        (1, 1, 0, 80.0, 80, 80, 1), (1, 5, 0, 90.0, 90, 90, 1),
    ]

    def build(self, registries, sizes):
        """The operator; ``sizes`` gets the group table's size at each
        CLEANING WHEN, after the record's group is in it."""
        library = StatefulLibrary()
        holder = []

        @library.state("seen_state")
        class Seen(StatefulState):
            __slots__ = ("tuples",)

            def __init__(self):
                self.tuples = 0

        @library.sfun("seen", state="seen_state")
        def seen(state, every):
            state.tuples += 1
            sizes.append((holder[0]._current_window, len(holder[0].tables.groups)))
            return state.tuples % every == 0

        registries = replace(registries, aggregates=registries.aggregates.copy())
        registries.aggregates.register("spread", Spread)
        holder.append(build(self.TEXT, registries, library))
        return holder[0]

    def test_rows_and_the_peak_group_count(self, registries):
        sizes = []
        op = self.build(registries, sizes)
        rows = op.process_many(self.RECORDS) + op.finish()
        assert [row.values for row in rows] == self.ROWS
        assert not op.tables.groups  # the table empties at a window close
        peaks = [stats.peak_groups for stats in op.window_stats]
        assert peaks == [max(n for w, n in sizes if w == (0,)), max(n for w, n in sizes if w == (1,))]
        assert peaks == [3, 2]
        assert [stats.groups_evicted for stats in op.window_stats] == [3, 0]
        assert op.g_peak_groups.value == 3

    @pytest.mark.parametrize("cut", [3, 6, 8])
    def test_a_checkpoint_restores_the_same_rows(self, registries, cut):
        op = self.build(registries, [])
        head = op.process_many(self.RECORDS[:cut])
        groups = op.tables.groups
        assert all(type(group) is list for group in groups.values())
        # the supergroup key, then plain values and the UDAF's object
        assert {type(cell) for group in groups.values() for cell in group} == {
            tuple, Spread, int, bool,
        }
        snapshot = pickle.loads(pickle.dumps(op.checkpoint()))
        fresh = self.build(registries, [])
        fresh.restore(snapshot)
        def cells(op):
            return [[(c.lo, c.hi) if type(c) is Spread else c for c in group]
                    for group in op.tables.groups.values()]

        assert list(fresh.tables.groups) == list(groups) and cells(fresh) == cells(op)
        rows = head + fresh.process_many(self.RECORDS[cut:]) + fresh.finish()
        assert [row.values for row in rows] == self.ROWS
        assert [s.peak_groups for s in fresh.window_stats] == [3, 2]
