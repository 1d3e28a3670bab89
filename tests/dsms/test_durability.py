"""Durable resume: the write-ahead result journal and DurableRunner.

The contract (docs/RESILIENCE.md, "durable resume"): a run that dies
after N committed windows can be resumed *in a fresh process* from the
journal alone and produce byte-identical results and comparable metrics
to an uninterrupted run.  These tests simulate the crash in-process by
raising from the ``on_commit`` hook (the journal entry is already
fsync'd when the hook fires, exactly the state a killed process leaves
behind); the chaos suite does it for real with ``os._exit``.
"""

import os
import pickle
import shutil
from itertools import islice

import pytest

from repro.analysis.legality import ExecTarget
from repro.deploy import deploy
from repro.dsms.cost import CostModel
from repro.dsms.durability import (
    CHECKPOINT_VERSION,
    JOURNAL_VERSION,
    Appended,
    DurableRunner,
    ResultJournal,
    batches,
    entry,
    read_journal,
    resume,
)
from repro.dsms.resilience import SupervisionPolicy
from repro.errors import ExecutionError, StreamError, TraceCorruptError
from repro.obs.tracing import TraceSink
from repro.serving.server import StandingQueryEngine, drive, resume_serving
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed
from repro.algorithms.bindings import (
    BASIC_SUBSET_SUM_QUERY,
    DISTINCT_SAMPLING_QUERY,
    HEAVY_HITTERS_QUERY,
    MIN_HASH_QUERY,
    RESERVOIR_QUERY,
    SUBSET_SUM_QUERY,
    subset_sum_library,
)
from repro.core.sampling_operator import SamplingOperator
from repro.dsms.aggregates import Aggregate
from repro.dsms.operators.aggregation import AggregationOperator
from repro.dsms.operators.selection import StatefulSelectionOperator
from repro.dsms.sharded import ShardedGigascope, canonical_rows
from repro.dsms.stateful import StatefulLibrary, StatefulState
from repro.streams.records import Record
from repro.streams.schema import Attribute, Ordering, StreamSchema

from tests.serving.conftest import instance_state, make_instance

SS_TEXT = SUBSET_SUM_QUERY.format(window=5, target=200)
SS_SHARDED = SS_TEXT.replace(
    "GROUP BY time/5 as tb, srcIP, destIP, uts",
    "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
)


def feed(seconds=15, seed=3):
    config = TraceConfig(duration_seconds=seconds, rate_scale=0.01, seed=seed)
    return list(research_center_feed(config))


def build(shards=0, supervise=False, shed_threshold=None, observe=False, **options):
    if observe:
        # Cycles and trace events are run state too: a resume owes them.
        options.update(cost_model=CostModel(), trace=TraceSink())
    gs = deploy(
        ExecTarget(shards=shards or None, supervise=supervise, shed_threshold=shed_threshold),
        supervision=SupervisionPolicy(max_restarts=2),
        **options,
    )
    gs.add_query(SS_SHARDED if shards else SS_TEXT, name="q")
    return gs


def rows_of(gs):
    return [r.values for r in gs.query("q").results]


def comparable(gs):
    return gs.metrics.comparable_items(exclude_prefixes=("supervisor_",))


def observed(gs, ordered=True):
    """All a resumed run must reproduce: rows, metric series, cost
    accounts and trace events — bar the recovery machinery's own
    (``supervisor_*`` series, ``shard_*`` events), which tell how the
    run got here, not what it computed."""
    rows = rows_of(gs)
    events = [
        (e.kind, e.fields) for e in gs.trace.events if not e.kind.startswith("shard_")
    ]
    return (rows if ordered else sorted(rows)), comparable(gs), gs.cost.accounts(), events


class _Boom(Exception):
    """Stands in for the process dying right after a commit fsync."""


def crash_on_commit(n):
    state = {"commits": 0}

    def hook(consumed, kind):
        state["commits"] += 1
        if state["commits"] == n:
            raise _Boom(f"crash after commit {n}")

    return hook


class TestResultJournal:
    def test_append_read_round_trip(self, tmp_path):
        path = str(tmp_path / "j.bin")
        with ResultJournal(path, fresh=True) as journal:
            journal.append({"kind": "commit", "n": 1})
            journal.append({"kind": "final", "n": 2})
        entries = ResultJournal.read(path)
        assert [e["n"] for e in entries] == [1, 2]
        assert entries[-1]["kind"] == "final"

    def test_torn_tail_is_dropped_then_truncated(self, tmp_path):
        path = str(tmp_path / "j.bin")
        with ResultJournal(path, fresh=True) as journal:
            journal.append({"n": 1})
            journal.append({"n": 2})
        import os

        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 7)
        assert [e["n"] for e in ResultJournal.read(path)] == [1]
        # Reopening for append truncates the torn frame and writes cleanly.
        with ResultJournal(path) as journal:
            journal.append({"n": 3})
        assert [e["n"] for e in ResultJournal.read(path)] == [1, 3]

    def test_bad_magic_is_a_typed_corruption_error(self, tmp_path):
        path = tmp_path / "j.bin"
        path.write_bytes(b"NOTAJRNL" + b"\x00" * 16)
        with pytest.raises(TraceCorruptError):
            ResultJournal.read(str(path))

    def test_empty_file_is_a_fresh_journal(self, tmp_path):
        path = tmp_path / "j.bin"
        path.write_bytes(b"")
        with ResultJournal(str(path)) as journal:
            journal.append({"n": 1})
        assert len(ResultJournal.read(str(path))) == 1


class TestSerialDurability:
    def test_fresh_durable_run_matches_plain_run(self, tmp_path):
        ref = build()
        ref.run(iter(feed()))
        gs = build()
        runner = DurableRunner(gs, str(tmp_path / "j.bin"), batch_size=64)
        consumed = runner.run(iter(feed()))
        assert consumed == len(feed())
        assert rows_of(gs) == rows_of(ref)
        assert comparable(gs) == comparable(ref)

    def test_resume_after_final_restores_without_input(self, tmp_path):
        path = str(tmp_path / "j.bin")
        gs = build()
        DurableRunner(gs, path, batch_size=64).run(iter(feed()))

        def untouchable():
            raise AssertionError("resume after final must not read input")
            yield  # pragma: no cover

        fresh = build()
        consumed = DurableRunner(fresh, path).resume(untouchable())
        assert consumed == len(feed())
        assert rows_of(fresh) == rows_of(gs)

    def test_crash_before_any_commit_degenerates_to_fresh_run(self, tmp_path):
        ref = build()
        ref.run(iter(feed()))
        path = str(tmp_path / "j.bin")
        # Journal exists but holds no commits (the process died early).
        ResultJournal(path, fresh=True).close()
        fresh = build()
        DurableRunner(fresh, path, batch_size=64).resume(iter(feed()))
        assert rows_of(fresh) == rows_of(ref)

    def test_torn_journal_tail_resumes_from_last_whole_commit(self, tmp_path):
        ref = build()
        ref.run(iter(feed()))
        path = str(tmp_path / "j.bin")
        gs = build()
        runner = DurableRunner(
            gs, path, batch_size=64, commit_interval=2, on_commit=crash_on_commit(2)
        )
        with pytest.raises(_Boom):
            runner.run(iter(feed()))
        import os

        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 7)
        fresh = build()
        DurableRunner(fresh, path, batch_size=64).resume(iter(feed()))
        assert rows_of(fresh) == rows_of(ref)

    def test_input_shorter_than_committed_prefix_is_refused(self, tmp_path):
        path = str(tmp_path / "j.bin")
        gs = build()
        runner = DurableRunner(
            gs, path, batch_size=64, commit_interval=2, on_commit=crash_on_commit(2)
        )
        with pytest.raises(_Boom):
            runner.run(iter(feed()))
        fresh = build()
        with pytest.raises(ExecutionError):
            DurableRunner(fresh, path).resume(iter(feed()[:10]))


class TestSupervisedDurability:
    def test_fresh_durable_run_matches_plain_supervised_run(self, tmp_path):
        ref = build(shards=2, supervise=True)
        ref.run(iter(feed()), batch_size=128)
        sh = build(shards=2, supervise=True)
        runner = DurableRunner(
            sh, str(tmp_path / "j.bin"), batch_size=128, commit_interval=2
        )
        consumed = runner.run(iter(feed()))
        assert consumed == len(feed())
        assert sorted(rows_of(sh)) == sorted(rows_of(ref))
        assert comparable(sh) == comparable(ref)


def damaged_feed(bad=(5, 90, 91, 200, 201)):
    from repro.testing.faults import FaultySource, SourceFault

    return FaultySource(feed(), [SourceFault("corrupt", i) for i in bad]).damaged


def uninterrupted(tmp_path, records, **options):
    """Reference durable run; returns ``(instance, commit entries written)``."""
    ref = build(shards=2, **options)
    kinds = []
    DurableRunner(
        ref,
        str(tmp_path / "ref.bin"),
        batch_size=128,
        commit_interval=2,
        on_commit=lambda consumed, kind: kinds.append(kind),
    ).run(iter(records))
    return ref, kinds.count("commit")


def crash_and_resume(tmp_path, records, crash_at, resume_options=None, **options):
    """Die right after commit ``crash_at``; resume on a fresh instance."""
    path = str(tmp_path / "j.bin")
    runner = DurableRunner(
        build(shards=2, **options),
        path,
        batch_size=128,
        commit_interval=2,
        on_commit=crash_on_commit(crash_at),
    )
    with pytest.raises(_Boom):
        runner.run(iter(records))
    assert len(ResultJournal.read(path)) == crash_at
    fresh = build(shards=2, **(options if resume_options is None else resume_options))
    consumed = DurableRunner(fresh, path, batch_size=128, commit_interval=2).resume(
        iter(records)
    )
    assert consumed == len(records)
    return fresh


class TestInlineShardDurability:
    """Inline shards checkpoint at round boundaries like any other pool."""

    def test_fresh_durable_run_matches_plain_inline_run(self, tmp_path):
        ref = build(shards=2)
        ref.run(iter(feed()), batch_size=128)
        sh, commits = uninterrupted(tmp_path, feed())
        assert commits >= 3
        assert rows_of(sh) == rows_of(ref)
        assert comparable(sh) == comparable(ref)

    def test_final_entry_restores_without_input(self, tmp_path):
        ref, _ = uninterrupted(tmp_path, feed())
        fresh = build(shards=2)
        consumed = DurableRunner(fresh, str(tmp_path / "ref.bin")).resume(iter(()))
        assert consumed == len(feed())
        assert rows_of(fresh) == rows_of(ref)

    def test_serial_journal_is_still_refused(self, tmp_path):
        path = str(tmp_path / "j.bin")
        runner = DurableRunner(
            build(), path, batch_size=64, commit_interval=2, on_commit=crash_on_commit(2)
        )
        with pytest.raises(_Boom):
            runner.run(iter(feed()))
        with pytest.raises(ExecutionError, match="serial"):
            DurableRunner(build(shards=2), path).resume(iter(feed()))


class TestResumeAcrossPools:
    """Both pools journal each shard's ``Gigascope.checkpoint(since)``, and the
    parent checkpoints what it owns itself — its cost model, what it
    refused and traced at the SPLIT edge — exactly once, so a journal
    written over one pool resumes over the other, and over either, to
    the uninterrupted run's rows, series, cycles and trace."""

    @pytest.mark.parametrize(
        "written_by, resumed_on",
        [(False, True), (True, False)],
        ids=["inline-to-supervised", "supervised-to-inline"],
    )
    def test_resume_on_the_other_pool(self, tmp_path, written_by, resumed_on):
        ref, _ = uninterrupted(tmp_path, feed(), observe=True)
        fresh = crash_and_resume(
            tmp_path,
            feed(),
            2,
            supervise=written_by,
            observe=True,
            resume_options={"supervise": resumed_on, "observe": True},
        )
        assert observed(fresh, ordered=False) == observed(ref, ordered=False)


class TestSplitEdgeQuarantineIsDurable:
    """Malformed records before the kill point: the journalled offset
    counts them, so the resume neither re-reads nor double-counts."""

    @pytest.mark.parametrize("supervise", [False, True], ids=["inline", "supervised"])
    def test_resume_is_identical_to_the_uninterrupted_run(self, tmp_path, supervise):
        damaged = damaged_feed()
        ref, _ = uninterrupted(
            tmp_path, damaged, supervise=supervise, validate_admission=True
        )
        assert ref.metrics.total("stream_quarantined_total") == 5
        fresh = crash_and_resume(
            tmp_path, damaged, 2, supervise=supervise, validate_admission=True
        )
        assert sorted(rows_of(fresh)) == sorted(rows_of(ref))
        assert comparable(fresh) == comparable(ref)
        assert fresh.run_report() == ref.run_report()

    @pytest.mark.parametrize("supervise", [False, True], ids=["inline", "supervised"])
    def test_finished_journal_restores_the_report(self, tmp_path, supervise):
        # The report of a finished run is read off the registry the final
        # entry carries, so a restore with no input reports what it did.
        ref, _ = uninterrupted(
            tmp_path, damaged_feed(), supervise=supervise, validate_admission=True
        )
        fresh = build(shards=2, supervise=supervise, validate_admission=True)
        DurableRunner(fresh, str(tmp_path / "ref.bin")).resume(iter(()))
        assert fresh.run_report()["streams"]["TCP"]["quarantined"] == 5
        assert fresh.run_report() == ref.run_report()


class TestRefusals:
    def test_a_query_registered_after_the_runner_is_held_to_the_table_too(
        self, tmp_path
    ):
        # The guard is not a property of construction order: an instance
        # that had no query yet, then took one whose SFUN state cannot
        # checkpoint, is refused before a run or a resume reads a record
        # or touches the journal.
        from tests.analysis.test_execsafety import FLAKY_QUERY, flaky_library

        gs = deploy(libraries=[flaky_library()])
        path = tmp_path / "j.bin"
        runner = DurableRunner(gs, str(path))
        gs.add_query(FLAKY_QUERY, name="q")
        for drive_it in (runner.run, runner.resume):
            with pytest.raises(ExecutionError, match="declares checkpointable=False"):
                drive_it(untouchable())
        assert not path.exists()

    @pytest.mark.parametrize("written, resumed", [(50, None), (None, 50)], ids=["shed", "unshed"])
    def test_a_journal_resumes_only_under_the_shedding_it_was_written_with(
        self, tmp_path, written, resumed
    ):
        path = str(tmp_path / "j.bin")
        with pytest.raises(_Boom):
            DurableRunner(build(shed_threshold=written), path, batch_size=64,
                          on_commit=crash_on_commit(1)).run(iter(feed()))
        with pytest.raises(ExecutionError, match="checkpoint does not match this deployment: it sheds"):
            DurableRunner(build(shed_threshold=resumed), path, batch_size=64).resume(iter(feed()))

    # What read_journal makes of a journal's checkpoint stamp, by source:
    # a golden written by a crashed run of an earlier version, or one
    # fabricated entry.  journal_v3.bin: SS_TEXT and an aggregation query,
    # two commits, slotted state pickled as field dicts (which the slotted
    # classes still take, so only the stamp refuses it).  journal_v4.bin:
    # SS_SHARDED over feed(seconds=6), batches of 64, two commits, each
    # key routed by its repr (a resume routing by value could find a
    # group's state on the other shard).  A sharded version-5 commit holds
    # each shard as one pickled blob.  journal_v5.bin (serial: SS_TEXT and
    # an aggregation of every built-in) and journal_v6.bin (sharded: as
    # journal_v4.bin) hold built-in aggregate objects, whose classes are
    # gone: groups are cells now.  Serial and served version 6 and sharded
    # version 7 are today's.
    @pytest.mark.parametrize(
        "source, mode, stamp, refusal",
        [
            ("unstamped", "serial", None, "commit at offset 64 .* no checkpoint version"),
            ("fabricated", "serial", 99, "checkpoint version 99 .* not supported"),
            ("journal_v3.bin", "serial", 3, "checkpoint version 3 .* not supported"),
            ("journal_v4.bin", "sharded", 4, "checkpoint version 4 .* not supported"),
            ("fabricated", "sharded", 5, "version 5 of a 'sharded' run .* not supported"),
            ("fabricated", "serial", 5, "version 5 of a 'serial' run .* not supported"),
            ("fabricated", "serving", 5, "version 5 of a 'serving' run .* not supported"),
            ("journal_v5.bin", "serial", 5, "checkpoint version 5 .* not supported"),
            ("journal_v6.bin", "sharded", 6, "checkpoint version 6 .* not supported"),
            ("fabricated", "serial", 6, None),
            ("fabricated", "serving", 6, None),
            ("fabricated", "sharded", 7, None),
        ],
        ids=["unstamped", "unknown", "v3", "v4-sharded", "v5-sharded", "v5-serial", "v5-served",
             "v5-objects", "v6-sharded-objects", "v6-serial", "v6-served", "v7-sharded"],
    )
    def test_a_checkpoint_version_is_read_by_mode(self, tmp_path, source, mode, stamp, refusal):
        path = str(tmp_path / "j.bin")
        if source.endswith(".bin"):
            shutil.copy(os.path.join(os.path.dirname(__file__), "goldens", source), path)
        else:
            stamped = {} if stamp is None else {"checkpoint_version": stamp}
            with ResultJournal(path, fresh=True) as journal:
                journal.append(entry("commit", mode, 64, **stamped))
        entries = ResultJournal.read(path)
        assert {(e["kind"], e["mode"], e.get("checkpoint_version")) for e in entries} == {
            ("commit", mode, stamp)
        }
        if refusal is None:
            assert read_journal(path, mode)[0] == entries
        else:
            with pytest.raises(ExecutionError, match=refusal):
                read_journal(path, mode)

    @pytest.mark.parametrize("golden, shards", [("journal_v5.bin", 0), ("journal_v6.bin", 2)])
    def test_a_journal_of_aggregate_objects_is_refused_by_its_version(self, tmp_path, golden, shards):
        # a resume from a journal written when groups held aggregate
        # objects says which version it is, not which class is missing
        path = str(tmp_path / "j.bin")
        shutil.copy(os.path.join(os.path.dirname(__file__), "goldens", golden), path)
        with pytest.raises(ExecutionError, match=r"checkpoint version \d of a '\w+' run .* not supported"):
            DurableRunner(build(shards=shards), path, batch_size=64).resume(iter(feed()))

    def test_a_commit_cadence_below_one_is_refused(self, tmp_path):
        runner = DurableRunner(build(), str(tmp_path / "j.bin"), commit_interval=0)
        with pytest.raises(StreamError, match="commit_interval"):
            runner.run(iter(feed()))


def untouchable():
    raise AssertionError("a refused or finished run must not read its input")
    yield  # pragma: no cover


class TestBatchCutter:
    """One place cuts a stream into batches, and it checks the size."""

    def test_cuts_full_batches_then_the_remainder(self):
        assert list(batches(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
        assert list(batches((), 3)) == []

    @pytest.mark.parametrize("size", [0, -5])
    def test_a_size_below_one_is_refused(self, size):
        with pytest.raises(StreamError, match="batch size"):
            batches(range(7), size)

    @pytest.mark.parametrize("size", [0, -5])
    @pytest.mark.parametrize("shards", [0, 2], ids=["serial", "sharded"])
    def test_runs_refuse_it_unread(self, shards, size):
        # ShardedGigascope.run(batch_size=0) used to read nothing and
        # return 0; a negative size was a ValueError out of islice.
        with pytest.raises(StreamError, match="batch size"):
            build(shards=shards).run(untouchable(), batch_size=size)


class _Runner:
    """One deployment under DurableRunner, for TestCrashAtEveryCommit."""

    def __init__(self, mode, batch_size, ordered=True, **options):
        self.mode, self.batch_size, self.ordered = mode, batch_size, ordered
        self.options = options

    def _runner(self, path, on_commit=None):
        return DurableRunner(
            build(observe=True, **self.options),
            path,
            batch_size=self.batch_size,
            commit_interval=2,
            on_commit=on_commit,
        )

    def run(self, path, records, on_commit=None):
        runner = self._runner(path, on_commit)
        runner.run(iter(records))
        return runner.instance

    def resume(self, path, records):
        runner = self._runner(path)
        return runner.instance, runner.resume(records)

    def observed(self, gs):
        return observed(gs, self.ordered)


class _Served:
    """A standing-query engine under the same loop, journal attached:
    two queries sharing a prefilter, a third under a tenant quota."""

    mode = "serving"
    texts = {
        "ss": (SS_TEXT, "default"),
        "agg": ("SELECT tb, srcIP, sum(len) FROM TCP GROUP BY time/5 as tb, srcIP", "default"),
        "capped": ("SELECT tb, max(len) FROM TCP GROUP BY time/5 as tb", "t1"),
    }
    quotas = {"t1": 2500}

    def run(self, path, records, on_commit=None):
        engine = StandingQueryEngine(
            make_instance,
            quotas=self.quotas,
            journal=ResultJournal(path, fresh=True),
            on_commit=on_commit,
        )
        for qid, (text, tenant) in self.texts.items():
            engine.register(text, name="q", tenant=tenant, qid=qid)
        drive(engine, records, batch_size=128, commit_interval=2)
        return engine

    def resume(self, path, records):
        engine = resume_serving(
            StandingQueryEngine(make_instance, quotas=self.quotas), path, records,
            batch_size=128, commit_interval=2,
        )
        return engine, engine.consumed

    def observed(self, engine):
        # Rows, metrics and cost accounts of every served query, and the
        # engine's own series (what /metrics adds to theirs).
        served = {
            sq.qid: instance_state(sq.instance, sq.name) for sq in engine.queries()
        }
        return served, engine.metrics.comparable_items()


#: ``feed()`` carries 55 to 71 records per second: every second sheds
SHED = 50

DEPLOYMENTS = {
    "serial": _Runner("serial", 64),
    "inline": _Runner("sharded", 128, shards=2),
    "supervised": _Runner(
        "sharded", 128, ordered=False, shards=2, supervise=True
    ),
    "served": _Served(),
    "serial,shed": _Runner("serial", 64, shed_threshold=SHED),
    "inline,shed": _Runner("sharded", 128, shards=2, shed_threshold=SHED),
    "supervised,shed": _Runner(
        "sharded", 128, ordered=False, shards=2, supervise=True, shed_threshold=SHED
    ),
}


class TestCrashAtEveryCommit:
    """One loop, so one test: die inside ``on_commit`` — the entry is
    fsync'd, exactly what a killed process leaves behind — then resume a
    fresh deployment from the journal alone and land on the uninterrupted
    run's rows, metrics, cost accounts and trace, wherever the crash fell.
    A shedding deployment too: its shed rule's state rides the commit."""

    _reference = {}

    def reference(self, name, tmp_path):
        if name not in self._reference:
            kinds = []
            driven = DEPLOYMENTS[name].run(
                str(tmp_path / "ref.bin"),
                feed(),
                on_commit=lambda consumed, kind: kinds.append(kind),
            )
            assert kinds.count("commit") >= 3 and kinds[-1] == "final"
            shed = driven.metrics.total("stream_shed_total")
            assert shed > 0 if "shed" in name else shed == 0
            self._reference[name] = (
                DEPLOYMENTS[name].observed(driven),
                kinds.count("commit"),
            )
        return self._reference[name]

    @pytest.mark.parametrize("where", ["first", "middle", "last", "final"])
    @pytest.mark.parametrize("name", list(DEPLOYMENTS))
    def test_resume_is_identical(self, tmp_path, name, where):
        deployment = DEPLOYMENTS[name]
        expected, commits = self.reference(name, tmp_path)
        crash_at = {
            "first": 1,
            "middle": (commits + 1) // 2,
            "last": commits,
            "final": commits + 1,
        }[where]
        path = str(tmp_path / "j.bin")
        with pytest.raises(_Boom):
            deployment.run(path, feed(), on_commit=crash_on_commit(crash_at))
        committed = [
            e for e in ResultJournal.read(path) if e["kind"] in ("commit", "final")
        ]
        assert len(committed) == crash_at
        assert committed[-1]["journal_version"] == JOURNAL_VERSION
        assert committed[-1]["mode"] == deployment.mode
        assert committed[-1]["kind"] == ("final" if where == "final" else "commit")

        records = untouchable() if where == "final" else iter(feed())
        driven, consumed = deployment.resume(path, records)
        assert consumed == len(feed())
        assert deployment.observed(driven) == expected


F_SCHEMA = StreamSchema(
    "F",
    [
        Attribute("time", "int", Ordering.INCREASING),
        Attribute("k", "float"),
        Attribute("v", "int"),
    ],
)


def zeros_feed():
    """Float keys where ``0.0`` comes first and ``-0.0`` opens every
    later pair of 4-record rounds, so every resume sees ``-0.0`` first;
    a window spans four commits."""
    spellings = (0.0, 1.5, -0.0, 2.0, 0.0, 3.0, -0.0)
    return [
        Record(F_SCHEMA, (i // 16, -0.0 if i and i % 8 == 0 else spellings[i % 7], i % 5 + 1))
        for i in range(96)
    ]


class TestEqualKeysResumeOnOneShard:
    """A sharded run's route is a function of the key's value, so a
    resume whose first spelling of zero is ``-0.0`` finds the state the
    crashed run kept under ``0.0``, whichever commit it died after.
    Rows compare in canonical order, as their ``repr`` (``-0.0`` is not
    ``0.0`` there): a resume re-merges the restored shard rows shard by
    shard, which can reorder a window's rows (DESIGN.md §2)."""

    def run(self, path, on_commit=None, resume=False):
        sh = ShardedGigascope(shards=2, cost_model=CostModel(), trace=TraceSink())
        sh.register_stream(F_SCHEMA)
        handle = sh.add_query("SELECT tb, k, sum(v) FROM F GROUP BY time/2 as tb, k", name="q")
        runner = DurableRunner(sh, path, batch_size=4, commit_interval=2, on_commit=on_commit)
        consumed = (runner.resume if resume else runner.run)(iter(zeros_feed()))
        assert consumed == 96
        rows = canonical_rows(handle.results)
        return rows, repr(rows), observed(sh, ordered=False)[1:]

    def test_resume_is_identical_at_every_commit(self, tmp_path):
        kinds = []
        expected = self.run(str(tmp_path / "ref.bin"), lambda consumed, kind: kinds.append(kind))
        assert kinds.count("commit") == 12
        assert [tb for tb, k, _ in expected[0] if k == 0] == [0, 1, 2]
        for crash_at in range(1, len(kinds) + 1):
            path = str(tmp_path / f"j{crash_at}.bin")
            with pytest.raises(_Boom):
                self.run(path, crash_on_commit(crash_at))
            assert self.run(path, resume=True) == expected, crash_at


K_SCHEMA = StreamSchema(
    "K", [Attribute("time", "int", Ordering.INCREASING), Attribute("k", "int")]
)


class TestMergeTieOrder:
    """Rows with equal merge-attribute values come in pool-dependent
    order (DESIGN.md §2): keys 3 and -1 sit on shards 1 and 0, and each
    window's two rows tie on ``tb``.  Inline and supervised runs order a
    tie differently, and a resume can take either order, but every run
    is ordered by ``tb`` and equal to the serial one canonically."""

    TEXT = "SELECT tb, k, count(*) FROM K GROUP BY time/2 as tb, k"
    RECORDS = [Record(K_SCHEMA, (t, k)) for t in range(8) for k in (3, -1)]

    def build(self, shards=None, supervise=False):
        gs = deploy(ExecTarget(shards=shards, supervise=supervise), libraries=())
        gs.register_stream(K_SCHEMA)
        gs.add_query(self.TEXT, name="q")
        return gs

    def durable(self, gs, path, on_commit=None):
        return DurableRunner(gs, path, batch_size=1, commit_interval=2, on_commit=on_commit)

    def test_every_pool_and_resume_agree_canonically_in_merge_order(self, tmp_path):
        runs = {}
        pools = {
            "serial": {}, "inline": {"shards": 2}, "supervised": {"shards": 2, "supervise": True},
        }
        for name, options in pools.items():
            gs = self.build(**options)
            gs.run(iter(self.RECORDS), batch_size=1)
            runs[name] = gs.query("q").results
            if name == "serial":
                continue
            kinds = []
            self.durable(self.build(**options), str(tmp_path / "ref.bin"),
                         lambda consumed, kind: kinds.append(kind)).run(iter(self.RECORDS))
            for crash_at in range(1, len(kinds) + 1):
                path = str(tmp_path / f"{name}-{crash_at}.bin")
                with pytest.raises(_Boom):
                    self.durable(self.build(**options), path, crash_on_commit(crash_at)).run(
                        iter(self.RECORDS)
                    )
                fresh = self.build(**options)
                self.durable(fresh, path).resume(iter(self.RECORDS))
                runs[f"{name} resumed after commit {crash_at}"] = fresh.query("q").results
        first_tie = {name: [r.values[:2] for r in rows[:2]] for name, rows in runs.items()}
        assert first_tie["inline"] == [(0, 3), (0, -1)]
        assert first_tie["supervised"] == [(0, -1), (0, 3)]
        assert first_tie["inline resumed after commit 3"] == first_tie["supervised"]
        expected = canonical_rows(runs["serial"])
        for name, rows in runs.items():
            assert canonical_rows(rows) == expected, name
            assert [r.values[0] for r in rows] == sorted(r.values[0] for r in rows), name


class TestCommitsDidNotMove:
    def test_commit_offsets_match_the_recorded_ones(self, tmp_path):
        """Where commits land is behaviour: an interval commit pickles the
        group table at whatever point of the cleaning cycle it falls on
        (benchmarks/ledger/README.md, ss_durable).  The list below was
        recorded from the commit before the loops were merged: the first
        commit is the interval rule (4 batches), the second the window
        rule (the first window closes inside batch 5)."""
        config = TraceConfig(duration_seconds=100_000, rate_scale=0.005, seed=7)
        trace = list(islice(data_center_feed(config), 4000))
        commits = []
        DurableRunner(
            build(),
            str(tmp_path / "j.bin"),
            batch_size=512,
            commit_interval=4,
            on_commit=lambda consumed, kind: commits.append((consumed, kind)),
        ).run(iter(trace))
        assert commits == [(2048, "commit"), (2560, "commit"), (4000, "final")]

    @pytest.mark.parametrize(
        "having, keep_results",
        [("", False), (" HAVING count(*) < 0", True)],
        ids=["not-retained", "having-rejects-every-group"],
    )
    def test_every_window_close_commits(self, tmp_path, having, keep_results):
        """A commit is due when a window closed, not when a row was
        retained: a query that keeps no rows, or whose HAVING rejects
        every group, commits where the retained run does — at the two
        window closes (320, 640) between the interval commits."""

        def offsets(text, keep):
            gs = deploy(libraries=())
            gs.add_query(text, name="q", keep_results=keep)
            commits = []
            DurableRunner(
                gs,
                str(tmp_path / "j.bin"),
                batch_size=64,
                commit_interval=4,
                on_commit=lambda consumed, kind: commits.append(consumed),
            ).run(iter(feed()))
            return commits

        text = "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/5 as tb, srcIP"
        retained = offsets(text, True)
        assert retained == [256, 320, 576, 640, 896, len(feed())]
        assert offsets(text + having, keep_results) == retained


class TestParentCommitJournals:
    """A commit shaped as the last writer of checkpoint version 2 shaped
    sharded ones, with a ``routing`` table beside today's state: the key
    is left unread (a version-2 checkpoint itself is refused:
    ``TestRefusals``)."""

    CUT = 512  # records behind the hand-built commit

    def test_sharded_commit_without_a_routing_table_resumes(self, tmp_path):
        ref = build(shards=2)
        ref.run(iter(feed()), batch_size=128)
        sh = build(shards=2)
        sh.start()
        for batch in batches(feed()[: self.CUT], 128):
            sh.feed(batch)
        state = sh.checkpoint()
        sh.abandon()
        path = str(tmp_path / "old.bin")
        with ResultJournal(path, fresh=True) as journal:
            journal.append({
                **state,
                "routing": None,
                **entry("commit", "sharded", self.CUT,
                        checkpoint_version=CHECKPOINT_VERSION["sharded"]),
            })
        fresh = build(shards=2)
        DurableRunner(fresh, path, batch_size=128).resume(iter(feed()))
        assert rows_of(fresh) == rows_of(ref)
        assert comparable(fresh) == comparable(ref)


def growth_run(tmp_path, records, trace=None, shards=None, supervise=False):
    """The paper's subset-sum sampler, rows retained, under the runner's
    cadence on the steady feed: what a long durable run journals.  On
    shards its threshold is kept per ``tb, srcIP`` supergroup, which the
    SPLIT can partition.  Returns the journal's size per record consumed."""
    gs = deploy(
        ExecTarget(shards=shards, supervise=supervise),
        libraries=(subset_sum_library(relax_factor=10.0),),
        trace=trace,
    )
    text = SUBSET_SUM_QUERY.format(window=2, target=1000)
    if shards:
        text = text.replace("uts\n", "uts SUPERGROUP BY tb, srcIP\n")
    gs.add_query(text, name="ss")
    path = str(tmp_path / f"growth-{records}.bin")
    config = TraceConfig(duration_seconds=600, seed=7)
    DurableRunner(gs, path, batch_size=1024, commit_interval=8).run(
        islice(data_center_feed(config), records)
    )
    return os.path.getsize(path) / records


class TestACommitJournalsWhatItAdds:
    """A commit carries what is live and what was appended since the
    previous commit — rows as value tuples, closed windows' stats — so
    the journal grows linearly in the run, and a resume joins the pieces
    back in journal order."""

    @pytest.mark.parametrize(
        "shards, supervise, ceiling",
        [(None, False, 30), (2, False, 75), (2, True, 75)],
        ids=["serial", "inline", "supervised"],
    )
    def test_bytes_per_record_stay_flat(self, tmp_path, shards, supervise, ceiling):
        # Whole-history commits read 142 B/record at 24k and 454 at 96k;
        # whole shards at each sharded commit 84 and 162 on either pool.
        small, large = (
            growth_run(tmp_path, n, shards=shards, supervise=supervise) for n in (24_000, 96_000)
        )
        assert small < ceiling
        assert large / small <= 1.25

    def test_trace_events_are_journalled_once(self, tmp_path):
        # Whole-history trace events read 123 B/record at 6k and 414 at 24k.
        small = growth_run(tmp_path, 6_000, TraceSink())
        large = growth_run(tmp_path, 24_000, TraceSink())
        assert large / small <= 1.25

    @pytest.mark.parametrize("limit", [5, 400])
    def test_a_trace_whose_limit_dropped_events_still_joins(self, tmp_path, limit):
        def bounded():
            return build(cost_model=CostModel(), trace=TraceSink(limit=limit))

        ref = bounded()
        DurableRunner(ref, str(tmp_path / "ref.bin"), batch_size=64, commit_interval=2).run(
            iter(feed())
        )
        crashed = bounded()
        path = self.crashed_journal(tmp_path, crash_at=7, build=lambda: crashed)
        # 628 events by the 7th commit, about 310 at each window close: a
        # limit of 5 drops events no commit held, and a piece then starts
        # a new list under the seq of the oldest event kept; at 400 every
        # piece continues the one before, and restore trims the joined list.
        origins = {next(iter(e["trace"]["events"])) for e in ResultJournal.read(path)}
        assert (len(origins) > 1) == (limit == 5)
        restored = bounded()
        _, _, journal = resume(restored, path, read_journal(path, "serial"), iter(feed()))
        journal.close()
        assert crashed.trace.dropped_events > 0
        assert restored.trace.checkpoint() == crashed.trace.checkpoint()
        fresh = bounded()
        DurableRunner(fresh, path, batch_size=64, commit_interval=2).resume(iter(feed()))
        assert fresh.trace.checkpoint() == ref.trace.checkpoint()
        assert observed(fresh) == observed(ref)

    def test_each_commit_starts_where_the_last_one_ended(self, tmp_path):
        path = str(tmp_path / "j.bin")
        DurableRunner(build(), path, batch_size=64, commit_interval=2).run(iter(feed()))
        commits = [e for e in ResultJournal.read(path) if e["kind"] in ("commit", "final")]
        held = {"results": 0, "window_stats": 0}
        for commit in commits:
            query = commit["queries"]["q"]
            for key, piece in (
                ("results", query["results"]),
                ("window_stats", query["operator"]["window_stats"]),
            ):
                assert piece.start == held[key]
                held[key] += len(piece.items)
        gs = build()
        gs.run(iter(feed()), batch_size=64)
        assert held["results"] == len(rows_of(gs)) > 0
        assert held["window_stats"] == len(gs.query("q").operator.window_stats) > 1

    @staticmethod
    def crashed_journal(tmp_path, crash_at=4, build=build):
        path = str(tmp_path / "j.bin")
        runner = DurableRunner(
            build(), path, batch_size=64, commit_interval=2, on_commit=crash_on_commit(crash_at)
        )
        with pytest.raises(_Boom):
            runner.run(iter(feed()))
        return path

    @staticmethod
    def rewrite(path, entries):
        with ResultJournal(path, fresh=True) as journal:
            for e in entries:
                journal.append(e)

    def test_a_version_2_journal_is_refused_by_name(self, tmp_path):
        path = self.crashed_journal(tmp_path)
        self.rewrite(
            path, [{**e, "checkpoint_version": 2} for e in ResultJournal.read(path)]
        )
        with pytest.raises(ExecutionError, match="checkpoint version 2 .* not supported"):
            DurableRunner(build(), path).resume(untouchable())

    def test_pieces_that_skip_an_index_are_refused_by_name(self, tmp_path):
        path = self.crashed_journal(tmp_path)
        entries = ResultJournal.read(path)
        # The last commit that appended rows loses its first one: its
        # piece starts one past the end of those before it.
        query = [e for e in entries if e["queries"]["q"]["results"].items][-1]["queries"]["q"]
        start, rows = query["results"]
        query["results"] = Appended(start + 1, rows[1:])
        self.rewrite(path, entries)
        with pytest.raises(
            ExecutionError, match=f"do not join up: queries/q/results continues from"
            f" {start + 1}, after {start} items"
        ):
            DurableRunner(build(), path).resume(untouchable())

    @pytest.mark.parametrize("name", ["serial", "served"])
    def test_a_resume_decodes_each_entry_once(self, tmp_path, name, monkeypatch):
        deployment = DEPLOYMENTS[name]
        path = str(tmp_path / "j.bin")
        with pytest.raises(_Boom):
            deployment.run(path, feed(), on_commit=crash_on_commit(3))
        entries = len(ResultJournal.read(path))
        decoded = []
        loads = pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda data: decoded.append(1) or loads(data))
        deployment.resume(path, iter(feed()))
        assert len(decoded) == entries


class SlotSum(Aggregate):
    """A UDAF whose state is a slot: it is journalled by its field values."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def update(self, value):
        self.total += value

    def value(self):
        return self.total


class ReducedSum(Aggregate):
    """A UDAF that pickles its own way."""

    def __init__(self, total=0):
        self.total = total

    def update(self, value):
        self.total += value

    def value(self):
        return self.total

    def __reduce__(self):
        return (ReducedSum, (self.total,))


class TestAggregatesAsTheirFields:
    """A group's cells are journalled as columns: a built-in's as plain
    values, a UDAF's as its class and each group's field values — or, for
    one with a ``__dict__`` or with pickling of its own, as itself — and
    either way a resume is byte-identical."""

    TEXT = SS_TEXT.replace(
        "UMAX(sum(len), ssthreshold())", "UMAX(sum(len), ssthreshold()), udaf(len)"
    )

    def build(self, udaf):
        gs = build(observe=True)
        gs.registries.aggregates.register("udaf", udaf)
        gs.add_query(self.TEXT, name="u")
        return gs

    @pytest.mark.parametrize("udaf", [SlotSum, ReducedSum], ids=["slots", "reduce"])
    def test_resume_is_identical(self, tmp_path, udaf):
        ref = self.build(udaf)
        DurableRunner(ref, str(tmp_path / "ref.bin"), batch_size=64, commit_interval=2).run(
            iter(feed())
        )
        path = str(tmp_path / "j.bin")
        runner = DurableRunner(
            self.build(udaf), path, batch_size=64, commit_interval=2, on_commit=crash_on_commit(3)
        )
        with pytest.raises(_Boom):
            runner.run(iter(feed()))
        cells = ResultJournal.read(path)[-1]["queries"]["u"]["operator"]["groups"]["cells"]
        *plain, (cls, items) = cells  # the supergroup key, sum(len), then the UDAF's cell
        assert len(plain) == 2 and all(type(column) is list for column in plain)
        assert all(type(total) is int for total in plain[1])
        if udaf is SlotSum:  # a slotted UDAF goes as its class and its field values
            assert cls is SlotSum and items and all(type(total) is int for total in items)
        else:  # one that pickles its own way goes as itself
            assert cls is None and items and all(type(a) is udaf for a in items)
        fresh = self.build(udaf)
        DurableRunner(fresh, path, batch_size=64, commit_interval=2).resume(iter(feed()))
        for name in ("q", "u"):
            assert [r.values for r in fresh.results(name)] == [r.values for r in ref.results(name)]
        assert observed(fresh) == observed(ref)


class PlainSum(Aggregate):
    """A UDAF with a ``__dict__``: it is journalled as itself."""

    def __init__(self):
        self.total = 0

    def update(self, value):
        self.total += value

    def value(self):
        return self.total


def tally_library():
    """A user SFUN pack whose state has a ``__dict__``: it is journalled
    as its field dict (its class is closure-local, so not as itself)."""
    library = StatefulLibrary()

    @library.state("tally_state")
    class TallyState(StatefulState):
        def __init__(self):
            self.seen = 0

    @library.sfun("tally", state="tally_state")
    def tally(state, every):
        state.seen += 1
        return state.seen % every != 0

    return library


def live_objects(gs):
    """What ``gs``'s operators touch per record or per group, by kind."""
    kinds = ("stats", "entries", "groups", "cells", "superaggregates", "states")
    found = {kind: [] for kind in kinds}
    for handle in gs.query_handles():
        op = handle.operator
        if isinstance(op, SamplingOperator):
            tables = op.tables
            supergroups = [*tables.new_supergroups.values(), *tables.old_supergroups.values()]
            found["stats"] += [*op.window_stats, *filter(None, [op._active_stats])]
            found["entries"] += supergroups
            found["groups"] += tables.groups.values()
            # a group's list: its supergroup key, then its aggregates' cells
            found["cells"] += [c for group in tables.groups.values() for c in group[1:]]
            found["superaggregates"] += [s for sg in supergroups for s in sg.superaggregates]
            found["states"] += [s for sg in supergroups for s in sg.states.values()]
        elif isinstance(op, StatefulSelectionOperator):
            found["states"] += op.states.values()
        elif isinstance(op, AggregationOperator):
            found["groups"] += op._groups.values()
            found["cells"] += [c for group in op._groups.values() for c in group]
    return found


class TestLiveStateKeepsItsSlots:
    """A commit reads the operators' per-record state by its fields, and a
    resume writes it back the same way: neither leaves a live object with
    a ``__dict__``, which on CPython 3.11 slows every later access to it.
    A group is a list of plain values, so the built-in aggregates hold
    by construction; a UDAF in a cell is still slotted."""

    ALL_AGGREGATES = (
        "sum(len), count(*), min(len), max(len), avg(len), count_distinct(destIP),"
        " first(len), last(len), slot_sum(len)"
    )
    TEXTS = [
        SS_TEXT,
        RESERVOIR_QUERY.format(window=5, target=20),
        HEAVY_HITTERS_QUERY.format(window=5, bucket=20),
        DISTINCT_SAMPLING_QUERY.format(window=5, capacity=20),
        BASIC_SUBSET_SUM_QUERY.format(z=500),
        MIN_HASH_QUERY.format(window=5, k=3),
        f"SELECT tb, srcIP, {ALL_AGGREGATES}, max$(HX), min$(HX) FROM TCP"
        " WHERE sum$(len) >= 0 AND count$(*) >= 0 AND avg$(len) <> 0 - 1"
        " GROUP BY time/5 as tb, srcIP, H(destIP) as HX SUPERGROUP BY tb"
        " CLEANING WHEN count_distinct$(*) > 40 CLEANING BY count(*) > 1",
        f"SELECT tb, srcIP, {ALL_AGGREGATES} FROM TCP GROUP BY time/5 as tb, srcIP",
    ]

    def build(self):
        gs = deploy()
        gs.registries.aggregates.register("slot_sum", SlotSum)
        for index, text in enumerate(self.TEXTS):
            gs.add_query(text, name=f"q{index}")
        return gs

    @staticmethod
    def assert_slotted(gs):
        found = live_objects(gs)
        kinds = {kind: {type(obj).__name__ for obj in objs} for kind, objs in found.items()}
        assert kinds["groups"] == {"list"}
        assert kinds["cells"] == {"int", "bool", "set", "SlotSum"}
        assert kinds["superaggregates"] == {
            "CountDistinctSuper", "KthSmallestSuper", "SumSuper", "CountSuper", "AvgSuper",
            "MaxSuper", "MinSuper",
        }
        assert kinds["states"] == {
            "SubsetSumState", "ReservoirState", "HeavyHitterState", "DistinctState", "BasicState",
        }
        assert kinds["stats"] == {"WindowStats"}
        assert kinds["entries"] == {"SuperGroupEntry"}
        with_dicts = [type(obj).__name__ for objs in found.values() for obj in objs
                      if hasattr(obj, "__dict__")]
        assert not with_dicts

    def test_no_live_object_has_a_dict_after_a_commit_or_a_resume(self, tmp_path):
        path = str(tmp_path / "j.bin")
        crash = crash_on_commit(3)

        def check_then_crash(consumed, kind):
            self.assert_slotted(gs)
            crash(consumed, kind)

        gs = self.build()
        runner = DurableRunner(gs, path, batch_size=64, commit_interval=2,
                               on_commit=check_then_crash)
        with pytest.raises(_Boom):
            runner.run(iter(feed()))
        fresh = self.build()
        _, _, journal = resume(fresh, path, read_journal(path, "serial"), iter(feed()))
        journal.close()
        self.assert_slotted(fresh)

    def test_unslotted_user_state_resumes_identically(self, tmp_path):
        text = (
            "SELECT tb, srcIP, plain_sum(len) FROM TCP WHERE tally(3) = TRUE"
            " GROUP BY time/5 as tb, srcIP SUPERGROUP BY tb"
            " CLEANING WHEN count_distinct$(*) > 20 CLEANING BY plain_sum(len) > 500"
        )

        def build_user():
            gs = deploy(libraries=[tally_library()], cost_model=CostModel(), trace=TraceSink())
            gs.registries.aggregates.register("plain_sum", PlainSum)
            gs.add_query(text, name="q")
            return gs

        ref = build_user()
        DurableRunner(ref, str(tmp_path / "ref.bin"), batch_size=64, commit_interval=2).run(
            iter(feed())
        )
        path = str(tmp_path / "j.bin")
        runner = DurableRunner(
            build_user(), path, batch_size=64, commit_interval=2, on_commit=crash_on_commit(3)
        )
        with pytest.raises(_Boom):
            runner.run(iter(feed()))
        operator = ResultJournal.read(path)[-1]["queries"]["q"]["operator"]
        _, (cls, items) = operator["groups"]["cells"]
        assert cls is None and items and all(type(a) is PlainSum for a in items)
        (_, states, _), = operator["new_supergroups"]
        assert states == {"tally_state": {"seen": states["tally_state"]["seen"]}}
        fresh = build_user()
        DurableRunner(fresh, path, batch_size=64, commit_interval=2).resume(iter(feed()))
        assert rows_of(fresh) and observed(fresh) == observed(ref)
