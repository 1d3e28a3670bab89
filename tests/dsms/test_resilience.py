"""Resilience layer: checkpoints, supervised crash recovery, shedding.

The load-bearing property mirrors the sharded runtime's: a supervised
run that loses (or restarts) any single shard worker mid-stream still
produces the oracle's window output.  Recovery is deterministic because
every algorithm's state is seeded RNG plus counters — restoring a
checkpoint and replaying the journal reconstructs the crashed worker's
state bit for bit.  ``tests/test_oracle.py`` draws the fault with
everything else; the cases here are fixed points of it.
"""

import pickle

import pytest

from repro.analysis.legality import ExecTarget
from repro.errors import ExecutionError
from repro.dsms.cost import CostModel
from repro.dsms.resilience import SupervisionPolicy
from repro.dsms.runtime import Gigascope
from repro.dsms.sharded import ShardedGigascope, canonical_rows
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed
from repro.testing.faults import Fault, FaultPlan, PoisonPill
from repro.algorithms.bindings import (
    HEAVY_HITTERS_QUERY,
    SUBSET_SUM_QUERY,
    subset_sum_library,
)

from tests.test_oracle import TRACES, Case, Family, agree, stream

BATCH = 128  # trace() below yields 1969 records -> 16 batches per run
#: the oracle's stream, cut into 32 rounds: both shards see every one
STREAM = stream(TRACES["steady"])
ROUNDS = tuple(range(5, len(STREAM.records), 5))


def trace(seconds=12, seed=11):
    config = TraceConfig(duration_seconds=seconds, rate_scale=0.02, seed=seed)
    return research_center_feed(config)


def with_supergroup(text, window):
    """Keyed supergroups make the SFUN state shard-local (see test_sharded)."""
    return text.replace(
        f"GROUP BY time/{window} as tb, srcIP, destIP, uts",
        f"GROUP BY time/{window} as tb, srcIP, destIP, uts"
        " SUPERGROUP BY tb, srcIP",
    ).replace(
        f"GROUP BY time/{window} as tb, srcIP\n",
        f"GROUP BY time/{window} as tb, srcIP SUPERGROUP BY tb, srcIP\n",
    )


SS_TEXT = with_supergroup(SUBSET_SUM_QUERY.format(window=5, target=500), 5)
HH_TEXT = with_supergroup(HEAVY_HITTERS_QUERY.format(window=5, bucket=100), 5)
AGG_TEXT = "SELECT tb, srcIP, sum(len), count(*) FROM TCP GROUP BY time/5 as tb, srcIP"


def supervised(text, fault_plan=None, library=None, policy=None, shards=2):
    sh = ShardedGigascope(
        shards=shards, supervise=True, supervision=policy, fault_plan=fault_plan
    )
    sh.register_stream(TCP_SCHEMA)
    if library is not None:
        sh.use_stateful_library(library)
    handle = sh.add_query(text, name="q")
    sh.run(trace(), batch_size=BATCH)
    return canonical_rows(handle.results), sh


class TestCheckpointRestore:
    """Serial Gigascope.checkpoint/restore round trips."""

    def build(self, library=True):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        if library:
            gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        return gs

    @pytest.mark.parametrize("text", [SS_TEXT, AGG_TEXT], ids=["sampling", "aggregation"])
    def test_mid_stream_restore_matches_uninterrupted_run(self, text):
        """The pickled snapshot, restored into a fresh instance halfway,
        finishes on the oracle's rows and the uninterrupted run's series
        and charges (pickling is how it crosses the worker/parent
        boundary in supervised runs)."""
        agree(Case(Family((text,)), STREAM, checkpoint_at=len(STREAM.records) // 2))

    def test_restore_rejects_mismatched_queries(self):
        donor = self.build(library=False)
        donor.add_query(AGG_TEXT, name="other")
        donor.start()
        snapshot = donor.checkpoint()
        target = self.build(library=False)
        target.add_query(AGG_TEXT, name="q")
        target.start()
        with pytest.raises(ExecutionError, match="does not match"):
            target.restore(snapshot)

    def test_stateless_operator_rejects_nontrivial_snapshot(self):
        gs = self.build(library=False)
        gs.add_query("SELECT time, srcIP, len FROM TCP WHERE len > 100", name="q")
        operator = gs.query("q").operator
        assert operator.checkpoint() is None
        operator.restore(None)  # the stateless round trip is fine
        with pytest.raises(ExecutionError):
            operator.restore({"unexpected": 1})


class TestFaultHarness:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            Fault(shard=0, action="explode")

    def test_poison_pill_raises_on_unpickle(self):
        blob = pickle.dumps(PoisonPill())
        with pytest.raises(RuntimeError, match="poisoned pickle"):
            pickle.loads(blob)

    def test_epoch_zero_faults_do_not_refire(self):
        plan = FaultPlan([Fault(shard=0, action="drop_result")])
        assert plan.drops_result(0, epoch=0)
        assert not plan.drops_result(0, epoch=1)
        assert not plan.drops_result(1, epoch=0)


class TestSupervisedRecovery:
    """Kill any single worker at any point: the rows are still the
    oracle's, the series and charges the fault-free run's, and the
    supervisor says what it did (``tests/test_oracle.py::agree``)."""

    def recovered(self, text, fault, policy=None):
        case = Case(
            Family((text,)), STREAM, target=ExecTarget(shards=2, supervise=True),
            cuts=ROUNDS, fault=fault, supervision=policy,
        )
        return agree(case).deployment.last_supervision

    @pytest.mark.parametrize("shard", [0, 1])
    @pytest.mark.parametrize("at_batch", [1, 7, 15], ids=["first", "middle", "last"])
    def test_kill_one_worker_matches_serial(self, shard, at_batch):
        assert self.recovered(AGG_TEXT, ("kill", shard, at_batch)).restarts == {shard: 1}

    def test_kill_recovers_sampling_state_exactly(self):
        assert self.recovered(SS_TEXT, ("kill", 1, 4)).total_restarts == 1

    def test_dropped_result_is_recovered(self):
        assert self.recovered(HH_TEXT, ("drop_result", 0, 1)).restarts == {0: 1}

    def test_corrupt_result_queue_is_survived(self):
        report = self.recovered(AGG_TEXT, ("corrupt", 1, 2))
        assert any("undecodable" in f for f in report.failures)

    def test_stalled_worker_is_killed_and_restarted(self):
        report = self.recovered(
            AGG_TEXT, ("delay", 0, 2, 3.0), SupervisionPolicy(heartbeat_timeout=0.5)
        )
        assert report.restarts == {0: 1}
        assert any("stalled" in f for f in report.failures)

    def test_recovery_uses_checkpoint_when_journal_truncated(self):
        report = self.recovered(
            AGG_TEXT, ("kill", 0, 12), SupervisionPolicy(checkpoint_interval=2, journal_capacity=4)
        )
        assert report.recoveries_from_checkpoint == {0: 1}
        # The bounded journal replayed only the tail past the checkpoint.
        assert report.replayed_batches[0] <= 4 + 1

    def test_no_fault_run_is_untouched(self):
        report = self.recovered(AGG_TEXT, None)
        assert report.total_restarts == 0
        assert report.failures == []


class TestPermanentFailure:
    def test_restarts_exhausted_raises_promptly(self):
        plan = FaultPlan(
            [Fault(shard=1, action="kill", at_batch=1, every_epoch=True)]
        )
        sh = ShardedGigascope(
            shards=2,
            supervise=True,
            supervision=SupervisionPolicy(max_restarts=2),
            fault_plan=plan,
        )
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(AGG_TEXT, name="q")
        with pytest.raises(ExecutionError, match="shard 1 failed permanently"):
            sh.run(trace(), batch_size=BATCH)
        assert sh.last_supervision.restarts == {1: 2}


class TestLoadShedding:
    def test_serial_admission_shedding_is_counted_everywhere(self):
        cost = CostModel()
        gs = Gigascope(cost_model=cost, shed_threshold=200)
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        gs.add_query(SS_TEXT, name="q")
        total = gs.run(trace(), batch_size=1000)
        report = gs.run_report()
        shed = report["streams"]["TCP"]["shed"]
        assert 0 < shed < total
        # The shed count flows through to the sampling operator's window
        # statistics and is charged to the cost model.
        assert report["queries"]["q"]["shed_tuples"] == shed
        assert cost.cycles("TCP") >= shed * cost.book.tuple_shed

    def test_no_threshold_means_no_shedding(self):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.add_query(AGG_TEXT, name="q")
        gs.run(trace(), batch_size=1000)
        assert gs.run_report()["streams"]["TCP"]["shed"] == 0

    def test_sharded_inline_report_aggregates_shards(self):
        sh = ShardedGigascope(shards=2, shed_threshold=100)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(AGG_TEXT, name="q")
        sh.run(trace(), batch_size=1000)
        report = sh.run_report()
        assert report["streams"]["TCP"]["shed"] > 0

    def test_supervised_run_reports_worker_counters(self):
        rows, sh = supervised(AGG_TEXT)
        report = sh.run_report()
        assert set(report["streams"]) == {"TCP"}
        assert report["streams"]["TCP"]["shed"] == 0
        assert "q" not in report["queries"] or all(
            value >= 0 for value in report["queries"]["q"].values()
        )
