"""Chaos tests for elastic rebalancing: crashes during live migration.

Two failure windows matter for the rebalancer (DESIGN.md §12):

* a **shard worker** dying while a migration is in flight — the restore
  message may be queued, half-applied, or lost with the corpse.  The
  supervisor's normal restart path must recover the worker from the
  *post-migration* checkpoint set (``install_checkpoints`` rewrites all
  parent-side slots before sending anything), so the run still matches
  serial execution byte for byte;
* the **whole process** dying between the migration barrier and the
  next durable journal commit — the journal then knows nothing about
  the migration.  ``--resume`` restores the pre-migration routing table
  that rode the last commit and replays; because every rebalancing
  decision is a pure function of the record counts, the replay re-makes
  the same migration at the same round and converges on identical rows.

Both run over an 80%-hot-key workload (the paper's DDoS victim-key
skew), injected with the deterministic ``hot_key`` fault.

Run with ``pytest -m chaos``; the tier-1 suite deselects the marker.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.dsms.durability import DurableRunner, ResultJournal
from repro.dsms.rebalance import RebalancePolicy
from repro.dsms.resilience import SupervisionPolicy
from repro.dsms.runtime import Gigascope
from repro.dsms.sharded import ShardedGigascope, canonical_rows
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed
from repro.testing.faults import Fault, FaultPlan, hot_key_stream
from repro.algorithms.bindings import SUBSET_SUM_QUERY, subset_sum_library

pytestmark = pytest.mark.chaos

SS_SHARDED = SUBSET_SUM_QUERY.format(window=5, target=200).replace(
    "GROUP BY time/5 as tb, srcIP, destIP, uts",
    "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
)
AGG_TEXT = "SELECT tb, srcIP, sum(len), count(*) FROM TCP GROUP BY time/5 as tb, srcIP"

HOT_IP = 0x0A0A0A0A  # the DDoS victim key
FEED_ARGS = "duration_seconds=15, rate_scale=0.01, seed=3"


def feed():
    recs = list(
        research_center_feed(TraceConfig(duration_seconds=15, rate_scale=0.01, seed=3))
    )
    return hot_key_stream(recs, "srcIP", HOT_IP, fraction=0.8)


def policy():
    return RebalancePolicy(check_interval=2, min_records=64, max_shards=4)


def serial_rows(text, library=None):
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    if library is not None:
        gs.use_stateful_library(library)
    handle = gs.add_query(text, name="q")
    gs.run(iter(feed()))
    return canonical_rows(handle.results)


class TestKillShardMidMigration:
    """A worker dies while migrations are in flight: output == serial."""

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("shard", [0, 1])
    @pytest.mark.parametrize("at_batch", [3, 6], ids=["early", "mid"])
    def test_agg_state_survives(self, shard, at_batch):
        expected = serial_rows(AGG_TEXT)
        plan = FaultPlan([Fault(shard=shard, action="kill", at_batch=at_batch)])
        sh = ShardedGigascope(
            shards=2,
            supervise=True,
            supervision=SupervisionPolicy(max_restarts=2),
            rebalance=policy(),
            fault_plan=plan,
        )
        sh.register_stream(TCP_SCHEMA)
        handle = sh.add_query(AGG_TEXT, name="q")
        sh.run(iter(feed()), batch_size=64)
        assert canonical_rows(handle.results) == expected
        assert sh.last_supervision.total_restarts == 1
        report = sh.run_report()["rebalance"]
        assert report["plans"] >= 1  # migrations actually happened

    @pytest.mark.timeout(180)
    def test_sfun_supergroup_state_survives(self):
        expected = serial_rows(SS_SHARDED, subset_sum_library(relax_factor=10.0))
        assert expected
        plan = FaultPlan([Fault(shard=1, action="kill", at_batch=4)])
        sh = ShardedGigascope(
            shards=2,
            supervise=True,
            supervision=SupervisionPolicy(max_restarts=2),
            rebalance=policy(),
            fault_plan=plan,
        )
        sh.register_stream(TCP_SCHEMA)
        sh.use_stateful_library(subset_sum_library(relax_factor=10.0))
        handle = sh.add_query(SS_SHARDED, name="q")
        sh.run(iter(feed()), batch_size=64)
        assert canonical_rows(handle.results) == expected
        assert sh.last_supervision.total_restarts == 1
        assert sh.run_report()["rebalance"]["migrated_groups"] >= 1


# The child hard-exits right after the Nth *migration commit* — i.e.
# between the migration barrier and the durable journal commit that
# would have recorded the new routing table.  No atexit, no cleanup.
_CHILD = textwrap.dedent(
    """
    import os
    import sys
    from repro.dsms.durability import DurableRunner
    from repro.dsms.rebalance import RebalancePolicy
    from repro.dsms.resilience import SupervisionPolicy
    from repro.dsms.sharded import ShardedGigascope
    from repro.streams.schema import TCP_SCHEMA
    from repro.streams.traces import TraceConfig, research_center_feed
    from repro.testing.faults import hot_key_stream
    from repro.algorithms.bindings import SUBSET_SUM_QUERY, subset_sum_library

    journal, kill_after = sys.argv[1], int(sys.argv[2])
    sql = SUBSET_SUM_QUERY.format(window=5, target=200).replace(
        "GROUP BY time/5 as tb, srcIP, destIP, uts",
        "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
    )
    sh = ShardedGigascope(
        shards=2,
        supervise=True,
        supervision=SupervisionPolicy(max_restarts=2),
        rebalance=RebalancePolicy(check_interval=2, min_records=64, max_shards=4),
    )
    sh.register_stream(TCP_SCHEMA)
    sh.use_stateful_library(subset_sum_library(relax_factor=10.0))
    sh.add_query(sql, name="q")

    # Die between the migration barrier and the journal commit: right
    # after the Nth committed migration, before control returns to the
    # durable feed loop's commit.
    original = ShardedGigascope._rebalance
    seen = {"migrations": 0}

    def crashing(self, pool):
        before = self._rebalancer.report.plans
        original(self, pool)
        if self._rebalancer.report.plans > before:
            seen["migrations"] += 1
            if seen["migrations"] >= kill_after:
                os._exit(86)

    ShardedGigascope._rebalance = crashing

    runner = DurableRunner(sh, journal, batch_size=64, commit_interval=2)
    recs = list(research_center_feed(TraceConfig({feed_args})))
    recs = hot_key_stream(recs, "srcIP", {hot_ip}, fraction=0.8)
    runner.run(iter(recs))
    sys.exit(3)  # the kill point was never reached
    """
).replace("{feed_args}", FEED_ARGS).replace("{hot_ip}", str(HOT_IP))


def kill_child_after_migration(journal_path, kill_after):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    err_path = journal_path + ".stderr"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, journal_path, str(kill_after)],
            env=env,
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        try:
            proc.wait(timeout=120)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    assert proc.returncode == 86, (
        f"child should die after migration {kill_after}, got"
        f" rc={proc.returncode}: {stderr.decode(errors='replace')[-500:]}"
    )


class TestKillBetweenMigrationAndCommit:
    @pytest.mark.timeout(240)
    @pytest.mark.parametrize("kill_after", [1, 3])
    def test_resume_replays_the_same_routing_history(self, tmp_path, kill_after):
        journal = str(tmp_path / "rebalance.journal")
        kill_child_after_migration(journal, kill_after)

        # The journal the corpse left behind routes with a *pre-crash*
        # table: every commit carries the routing snapshot.  (For
        # kill_after=1 the crash precedes the very first commit — the
        # migration fires earlier in the same round — so the journal is
        # empty and the resume degenerates to a fresh run; that is the
        # harshest version of "the journal knows nothing about it".)
        entries = ResultJournal.read(journal)
        commits = [e for e in entries if e["kind"] == "commit"]
        if kill_after > 1:
            assert commits, "child died before its first commit"
        assert all(e.get("routing") is not None for e in commits)

        expected = serial_rows(SS_SHARDED, subset_sum_library(relax_factor=10.0))
        fresh = ShardedGigascope(
            shards=2,
            supervise=True,
            supervision=SupervisionPolicy(max_restarts=2),
            rebalance=policy(),
        )
        fresh.register_stream(TCP_SCHEMA)
        fresh.use_stateful_library(subset_sum_library(relax_factor=10.0))
        handle = fresh.add_query(SS_SHARDED, name="q")
        consumed = DurableRunner(
            fresh, journal, batch_size=64, commit_interval=2
        ).resume(iter(feed()))
        assert consumed == len(feed())
        assert canonical_rows(handle.results) == expected
        assert fresh.run_report()["rebalance"]["plans"] >= kill_after
