"""Chaos tests: kill the WHOLE pipeline process and resume for real.

Unlike tests/dsms/test_durability.py (which simulates the crash by
raising from the commit hook), these tests fork a child Python process
that runs a durable query and hard-exits (``os._exit``) right after its
Nth journal commit — no atexit, no multiprocessing cleanup, no flush
beyond the journal's own fsync.  The parent then resumes from the
journal the corpse left behind and asserts byte-identical results
against an unfaulted in-process run.

Every subprocess child runs in its own process group so any shard
workers orphaned by the kill are reaped afterwards with ``killpg``.

Run with ``pytest -m chaos`` (or ``scripts/check.sh --chaos``); the
tier-1 suite deselects the ``chaos`` marker.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.dsms.durability import DurableRunner, ResultJournal
from repro.dsms.resilience import SupervisionPolicy
from repro.dsms.runtime import Gigascope
from repro.dsms.sharded import ShardedGigascope
from repro.streams.persistence import save_trace
from repro.streams.schema import TCP_SCHEMA
from repro.streams.sources import (
    EAGER_RETRY,
    QuarantineStream,
    ResilientSource,
    RetryPolicy,
    replayable,
    resilient_trace_source,
)
from repro.streams.traces import TraceConfig, research_center_feed
from repro.testing.faults import FaultySource, SourceFault
from repro.algorithms.bindings import SUBSET_SUM_QUERY, subset_sum_library

pytestmark = pytest.mark.chaos

SS_TEXT = SUBSET_SUM_QUERY.format(window=5, target=200)
SS_SHARDED = SS_TEXT.replace(
    "GROUP BY time/5 as tb, srcIP, destIP, uts",
    "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
)

# The child re-synthesises the same deterministic feed, so crash and
# resume agree on the input without shipping records across processes.
FEED_ARGS = "duration_seconds=15, rate_scale=0.01, seed=3"

_CHILD = textwrap.dedent(
    """
    import sys
    from repro.dsms.durability import DurableRunner
    from repro.dsms.resilience import SupervisionPolicy
    from repro.dsms.runtime import Gigascope
    from repro.dsms.sharded import ShardedGigascope
    from repro.streams.schema import TCP_SCHEMA
    from repro.streams.traces import TraceConfig, research_center_feed
    from repro.testing.faults import exit_after_commits
    from repro.algorithms.bindings import SUBSET_SUM_QUERY, subset_sum_library

    mode, journal, kill_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sql = SUBSET_SUM_QUERY.format(window=5, target=200)
    if mode == "supervised":
        sql = sql.replace(
            "GROUP BY time/5 as tb, srcIP, destIP, uts",
            "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
        )
        gs = ShardedGigascope(
            shards=2,
            supervise=True,
            supervision=SupervisionPolicy(max_restarts=2),
        )
        batch = 128
    else:
        gs = Gigascope()
        batch = 64
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.add_query(sql, name="q")
    runner = DurableRunner(
        gs,
        journal,
        batch_size=batch,
        commit_interval=2,
        on_commit=exit_after_commits(kill_at, exit_code=86),
    )
    feed = research_center_feed(TraceConfig({feed_args}))
    runner.run(iter(feed))
    # Reaching the end means the kill point was never hit.
    sys.exit(3)
    """
).replace("{feed_args}", FEED_ARGS)


def feed():
    return list(research_center_feed(TraceConfig(duration_seconds=15, rate_scale=0.01, seed=3)))


def build(mode):
    if mode == "supervised":
        gs = ShardedGigascope(
            shards=2,
            supervise=True,
            supervision=SupervisionPolicy(max_restarts=2),
        )
    else:
        gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.add_query(SS_SHARDED if mode == "supervised" else SS_TEXT, name="q")
    return gs


def rows_of(gs):
    return [r.values for r in gs.query("q").results]


def kill_child_at_commit(mode, journal_path, kill_at):
    """Run the durable query in a child process that dies after commit N.

    Output goes to a file, not a pipe: shard workers orphaned by the
    hard exit inherit the child's stderr, so reading a pipe to EOF
    would block on processes that outlive the child.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    err_path = journal_path + ".stderr"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, mode, journal_path, str(kill_at)],
            env=env,
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        try:
            proc.wait(timeout=90)
        finally:
            # Reap any shard workers orphaned by the hard exit.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    assert proc.returncode == 86, (
        f"child should die at commit {kill_at}, got rc={proc.returncode}:"
        f" {stderr.decode(errors='replace')[-500:]}"
    )


class TestKillParentAtWindowN:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("kill_at", [1, 2, 3])
    def test_serial_kill_and_resume_is_byte_identical(self, tmp_path, kill_at):
        journal = str(tmp_path / "serial.journal")
        kill_child_at_commit("serial", journal, kill_at)
        assert len(ResultJournal.read(journal)) == kill_at

        ref = build("serial")
        ref.run(iter(feed()))
        fresh = build("serial")
        consumed = DurableRunner(
            fresh, journal, batch_size=64, commit_interval=2
        ).resume(iter(feed()))
        assert consumed == len(feed())
        assert rows_of(fresh) == rows_of(ref)
        assert fresh.metrics.comparable_items() == ref.metrics.comparable_items()

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("kill_at", [1, 2])
    def test_supervised_kill_and_resume_is_byte_identical(self, tmp_path, kill_at):
        journal = str(tmp_path / "supervised.journal")
        kill_child_at_commit("supervised", journal, kill_at)
        assert len(ResultJournal.read(journal)) == kill_at

        ref = build("supervised")
        ref.run(iter(feed()), batch_size=128)
        fresh = build("supervised")
        consumed = DurableRunner(
            fresh, journal, batch_size=128, commit_interval=2
        ).resume(iter(feed()))
        assert consumed == len(feed())
        assert sorted(rows_of(fresh)) == sorted(rows_of(ref))
        assert fresh.metrics.comparable_items(
            exclude_prefixes=("supervisor_",)
        ) == ref.metrics.comparable_items(exclude_prefixes=("supervisor_",))


class TestCorruptTraceTail:
    @pytest.mark.timeout(120)
    def test_torn_trace_runs_to_completion_and_matches_clean_prefix(self, tmp_path):
        recs = feed()
        path = str(tmp_path / "trace.bin")
        save_trace(iter(recs), path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 9)  # tear the last record mid-write

        # Reference: a clean run over every record that survived whole.
        ref = build("serial")
        ref.run(iter(recs[:-1]))

        q = QuarantineStream()
        src = resilient_trace_source(
            path, RetryPolicy(max_retries=2), quarantine=q
        )
        gs = build("serial")
        gs.run(iter(list(src)))
        assert rows_of(gs) == rows_of(ref)
        assert q.total == 1
        assert "torn tail" in q.entries[0].reason


class TestStalledSource:
    @pytest.mark.timeout(120)
    def test_stalled_source_recovers_and_matches_unfaulted_run(self):
        recs = feed()
        ref = build("serial")
        ref.run(iter(recs))

        faulty = FaultySource(
            recs,
            [
                SourceFault("stall", 7, seconds=1.0),
                SourceFault("fail", 101),
            ],
        )
        policy = RetryPolicy(
            max_retries=4,
            backoff_base=0.0,
            backoff_cap=0.0,
            jitter=0.0,
            read_timeout=0.25,
        )
        src = ResilientSource(faulty, policy, name="chaos")
        gs = build("serial")
        gs.run(iter(list(src)))
        assert rows_of(gs) == rows_of(ref)
        assert src.stats.stalls >= 1
        assert src.stats.reconnects >= 2  # one stall watchdog + one hard fail

    @pytest.mark.timeout(120)
    def test_damaged_stream_never_aborts_the_query(self):
        recs = feed()
        faulty = FaultySource(
            recs,
            [
                SourceFault("corrupt", 11),
                SourceFault("corrupt", 53),
                SourceFault("drop", 200),
                SourceFault("duplicate", 300),
            ],
        )
        q = QuarantineStream()
        src = ResilientSource(
            faulty, EAGER_RETRY, schema=recs[0].schema, quarantine=q, name="dmg"
        )
        gs = build("serial")
        gs.run(iter(list(src)))  # must not raise
        assert q.total == 2
        assert len(rows_of(gs)) > 0
