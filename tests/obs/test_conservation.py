"""Conservation identities over the metrics registry.

Every tuple a stream offers must be accounted for exactly once at every
layer (docs/OBSERVABILITY.md lists the identities):

* stream:    records == ingested + shed + quarantined + quota_shed
             + poison_skipped   (one term per ``runtime.REFUSALS`` row)
* selection: in == filtered + rows_out
* sampling:  in == filtered + admitted + late + incomparable
* groups:    created == rows_out + evicted + having_rejected

These are checked for every shipped example query, for a shedding run,
for a run with malformed records quarantined at admission, for a
sharded run that sheds (it refuses records in the parent, before the
SPLIT, outside every shard's admission), for serial-vs-sharded agreement on
partition-invariant totals, and for a supervised run with an injected
shard kill (the counters must come out byte-identical to an unfaulted
supervised run).
"""

import glob
import os

import pytest

from repro.deploy import deploy
from repro.dsms.cost import CostModel
from repro.dsms.runtime import Gigascope
from repro.dsms.sharded import ShardedGigascope, canonical_rows
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed
from repro.testing.faults import Fault, FaultPlan
from repro.algorithms.bindings import SUBSET_SUM_QUERY, standard_libraries, subset_sum_library

from tests.dsms.test_refusals import conserved

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "queries"
)
# The unsound_* files are lint counterexamples (docs/LINT_RULES.md), not
# runtime examples; one is a low-level selection the high-level feeder
# identities below don't model.  tests/analysis/ pins their diagnostics.
EXAMPLES = sorted(
    path
    for path in glob.glob(os.path.join(EXAMPLES_DIR, "*.gsql"))
    if not os.path.basename(path).startswith("unsound_")
)

# Keyed supergroups make SFUN state shard-local (see tests/dsms/test_sharded).
SS_TEXT = SUBSET_SUM_QUERY.format(window=5, target=500).replace(
    "GROUP BY time/5 as tb, srcIP, destIP, uts",
    "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
)
BATCH = 128


def feed(seconds=20, seed=7):
    config = TraceConfig(duration_seconds=seconds, rate_scale=0.01, seed=seed)
    return research_center_feed(config)


def run_example(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    gs = deploy(libraries=standard_libraries(1.0))
    handle = gs.add_query(text, name="q")
    gs.run(feed())
    return gs, handle


def val(gs, name, **labels):
    # total() filters on the named labels and sums over the rest (here
    # the ``operator`` kind label), unlike exact-match value().
    return gs.metrics.total(name, **labels)


class TestExampleQueries:
    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES]
    )
    def test_tuple_conservation(self, path):
        gs, handle = run_example(path)
        m = gs.metrics

        # Stream layer: everything offered is either ingested, shed, or
        # quarantined.
        records = m.total("stream_records_total")
        assert records > 0
        assert records == (
            m.total("stream_ingested_total")
            + m.total("stream_shed_total")
            + m.total("stream_quarantined_total")
        )

        if handle.level == "low":
            # Selection examples run at the low level directly: no
            # feeder, every ingested tuple reaches the operator and is
            # filtered or emitted.
            q_in = val(gs, "operator_tuples_in_total", query="q")
            assert q_in == m.total("stream_ingested_total")
            assert q_in == val(
                gs, "operator_tuples_filtered_total", query="q"
            ) + val(gs, "operator_rows_out_total", query="q")
            return

        # Low-level feeder (auto-inserted pass-through selection): every
        # ingested tuple goes in, and comes out or is filtered.
        feeder_in = val(gs, "operator_tuples_in_total", query="q__lowsel")
        assert feeder_in == m.total("stream_ingested_total")
        assert feeder_in == val(
            gs, "operator_tuples_filtered_total", query="q__lowsel"
        ) + val(gs, "operator_rows_out_total", query="q__lowsel")

        # Main operator: in == filtered + admitted + late + incomparable
        # (late/incomparable are zero for plain aggregation queries).
        q_in = val(gs, "operator_tuples_in_total", query="q")
        assert q_in == val(gs, "operator_rows_out_total", query="q__lowsel")
        assert q_in == (
            val(gs, "operator_tuples_filtered_total", query="q")
            + val(gs, "operator_tuples_admitted_total", query="q")
            + val(gs, "operator_late_tuples_total", query="q")
            + val(gs, "operator_incomparable_tuples_total", query="q")
        )

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES]
    )
    def test_group_conservation(self, path):
        gs, handle = run_example(path)

        created = val(gs, "operator_groups_created_total", query="q")
        rows_out = val(gs, "operator_rows_out_total", query="q")
        if handle.level == "low":
            # Selection examples have no groups; rows_out is still the
            # ground-truth result count.
            assert created == 0
            assert rows_out == len(handle.results)
            return
        assert created > 0
        assert created == (
            rows_out
            + val(gs, "operator_groups_evicted_total", query="q")
            + val(gs, "operator_having_rejected_total", query="q")
        )
        # The rows_out counter is the ground-truth result count.
        assert rows_out == len(handle.results)
        assert val(gs, "query_forwarded_total", query="q__lowsel") > 0


class TestShedding:
    def test_offered_equals_ingested_plus_shed(self):
        gs = Gigascope(shed_threshold=8)
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        gs.add_query(SS_TEXT, name="q")
        gs.run(feed(), batch_size=256)
        m = gs.metrics
        shed = m.total("stream_shed_total")
        assert shed > 0
        assert m.total("stream_records_total") == (
            m.total("stream_ingested_total")
            + shed
            + m.total("stream_quarantined_total")
        )


class TestQuotaShedding:
    def test_offered_equals_ingested_plus_quota_shed(self):
        """The serving edge's quota term closes the stream identity."""
        from repro.dsms.cost import CostModel
        from repro.serving.server import StandingQueryEngine, TenantQuota, drive

        def factory():
            gs = Gigascope(cost_model=CostModel())
            gs.register_stream(TCP_SCHEMA)
            gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
            return gs

        engine = StandingQueryEngine(
            factory, quotas={"t": TenantQuota(cycles_per_record=2000.0)}
        )
        sq = engine.register(
            SS_TEXT.replace(" SUPERGROUP BY tb, srcIP", ""),
            name="q",
            tenant="t",
        )
        records = list(feed())
        drive(engine, records, batch_size=BATCH)
        m = sq.instance.metrics
        quota_shed = m.total("stream_quota_shed_total")
        assert quota_shed > 0
        assert m.total("stream_records_total") == len(records)
        assert m.total("stream_records_total") == (
            m.total("stream_ingested_total")
            + m.total("stream_shed_total")
            + m.total("stream_quarantined_total")
            + quota_shed
        )
        # The quota refusals are charged to the stream's cost account.
        assert sq.instance.cost.accounts()["TCP"] >= (
            sq.instance.cost.book.quota_shed * quota_shed
        )
        # run_report() surfaces the same number (shape pinned by
        # tests/obs/test_report_compat.py).
        assert (
            sq.instance.run_report()["streams"]["TCP"]["quota_shed"]
            == quota_shed
        )


class TestQuarantine:
    def test_offered_equals_ingested_plus_quarantined(self):
        from repro.streams.sources import QuarantineStream
        from repro.testing.faults import FaultySource, SourceFault

        records = list(feed())
        damaged = FaultySource(
            records, [SourceFault("corrupt", 5), SourceFault("corrupt", 90)]
        ).damaged
        quarantine = QuarantineStream()
        gs = Gigascope(quarantine=quarantine, validate_admission=True)
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        gs.add_query(SS_TEXT.replace(" SUPERGROUP BY tb, srcIP", ""), name="q")
        gs.run(iter(damaged))
        m = gs.metrics
        quarantined = m.total("stream_quarantined_total")
        assert quarantined == 2
        assert quarantine.total == 2
        assert m.total("stream_records_total") == (
            m.total("stream_ingested_total")
            + m.total("stream_shed_total")
            + quarantined
        )
        # The operator-level mirror: quarantined tuples appear in the
        # query's overload accounting without ever entering the window.
        assert val(gs, "operator_quarantined_tuples_total", query="q") == 2


class TestSplitEdgeShed:
    @pytest.mark.parametrize("supervise", [False, True], ids=["inline", "supervised"])
    def test_the_parent_counts_what_it_sheds(self, supervise):
        """Shedding runs once, in the parent, before the SPLIT: every shed
        record is offered + shed in the parent registry (no ``shard``
        label), and each shard ingests all it is sent."""
        sh = ShardedGigascope(shards=2, supervise=supervise, shed_threshold=40)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(
            "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/5 as tb, srcIP",
            name="q",
        )
        records = list(feed(seconds=10))
        read = sh.run(iter(records), batch_size=32)
        assert read == len(records)
        refused = conserved(sh.metrics, sh.run_report(), read)
        m = sh.metrics
        assert refused["shed"] == m.value("stream_shed_total", stream="TCP") > 0
        for shard in range(2):
            assert m.value("stream_shed_total", stream="TCP", shard=shard) == 0
            assert m.value("stream_ingested_total", stream="TCP", shard=shard) == m.value(
                "stream_records_total", stream="TCP", shard=shard
            )
        assert sum(row[2] for row in canonical_rows(sh.results("q"))) == read - refused["shed"]


class TestProfileUnderShards:
    @pytest.mark.parametrize("supervise", [False, True], ids=["inline", "supervised"])
    def test_operator_seconds_fold_per_shard_and_nothing_else_moves(self, supervise):
        """``profile`` is every shard's: the parent folds each shard's
        ``operator_seconds`` under its ``shard`` label (it used to be
        dropped with a notice) — and, as in a serial run, timing an
        operator moves no other series and no cost account."""

        def run(profile):
            sh = ShardedGigascope(
                shards=2, supervise=supervise, cost_model=CostModel(), profile=profile
            )
            sh.register_stream(TCP_SCHEMA)
            sh.use_stateful_library(subset_sum_library(relax_factor=10.0))
            sh.add_query(SS_TEXT, name="q")
            sh.run(feed(), batch_size=BATCH)
            return sh

        plain, profiled = run(False), run(True)
        timed = [s for s in profiled.metrics.series() if s.name == "operator_seconds"]
        for shard in ("0", "1"):
            folded = {
                (dict(s.labels)["query"], dict(s.labels)["phase"]): s.count
                for s in timed
                if dict(s.labels)["shard"] == shard
            }
            assert folded["q", "process"] > 0 and folded["q__lowsel", "process"] > 0
        assert len(timed) == sum(len(dict(s.labels)) == 3 for s in timed)  # none unlabelled
        assert not [s for s in plain.metrics.series() if s.name == "operator_seconds"]
        # The supervisor's own series depend on reply timing (a checkpoint
        # request is skipped while one is in flight, and a worker
        # checkpoint carries its histograms, so its size moves).
        without = ("supervisor_",)
        assert profiled.metrics.comparable_items(exclude_prefixes=without) == (
            plain.metrics.comparable_items(exclude_prefixes=without)
        )
        assert profiled.cost.accounts() == plain.cost.accounts()
        assert canonical_rows(profiled.results("q")) == canonical_rows(plain.results("q"))


class TestSerialVsSharded:
    # Counters whose totals are invariant under hash partitioning: every
    # tuple lands in exactly one shard, and keyed supergroups keep the
    # SFUN admission decisions identical to the serial run.  (Window and
    # cleaning counters are *not* invariant: each shard closes its own
    # copy of every window.)
    INVARIANT = [
        "stream_ingested_total",
        "operator_tuples_in_total",
        "operator_tuples_filtered_total",
        "operator_tuples_admitted_total",
        "operator_rows_out_total",
        "operator_groups_created_total",
        "operator_groups_evicted_total",
        "operator_having_rejected_total",
    ]

    def test_partition_invariant_totals_agree(self):
        serial = Gigascope()
        serial.register_stream(TCP_SCHEMA)
        serial.use_stateful_library(subset_sum_library(relax_factor=10.0))
        s_handle = serial.add_query(SS_TEXT, name="q")
        serial.run(feed())

        sharded = ShardedGigascope(shards=2)
        sharded.register_stream(TCP_SCHEMA)
        sharded.use_stateful_library(subset_sum_library(relax_factor=10.0))
        h_handle = sharded.add_query(SS_TEXT, name="q")
        sharded.run(feed(), batch_size=BATCH)

        assert canonical_rows(h_handle.results) == canonical_rows(s_handle.results)
        for name in self.INVARIANT:
            assert sharded.metrics.total(name) == serial.metrics.total(name), name
        # Sanity check the non-invariant counter really is per-shard.
        assert sharded.metrics.total("operator_windows_total") >= serial.metrics.total(
            "operator_windows_total"
        )


class TestSupervisedFault:
    def run_supervised(self, fault_plan=None):
        sh = ShardedGigascope(shards=2, supervise=True, fault_plan=fault_plan)
        sh.register_stream(TCP_SCHEMA)
        sh.use_stateful_library(subset_sum_library(relax_factor=10.0))
        handle = sh.add_query(SS_TEXT, name="q")
        sh.run(feed(seconds=12), batch_size=BATCH)
        return canonical_rows(handle.results), sh

    def test_kill_fault_keeps_counters_byte_identical(self):
        clean_rows, clean = self.run_supervised()
        plan = FaultPlan([Fault(shard=1, action="kill", at_batch=4)])
        fault_rows, faulted = self.run_supervised(fault_plan=plan)

        assert faulted.metrics.total("supervisor_restarts_total") >= 1
        assert clean.metrics.total("supervisor_restarts_total") == 0
        assert fault_rows == clean_rows

        # Checkpoint + journal replay must reconstruct every counter
        # exactly: only the supervisor's own accounting may differ.
        exclude = ("supervisor_",)
        assert list(faulted.metrics.comparable_items(exclude_prefixes=exclude)) == (
            list(clean.metrics.comparable_items(exclude_prefixes=exclude))
        )
