"""Elastic skew-aware sharding: routing, migration, curation, refusals.

The load-bearing property mirrors test_sharded.py's: a rebalanced run —
hot keys pinned, slots migrated, shards scaled mid-stream — yields the
oracle's window output (``tests/test_oracle.py`` draws the policy with
everything else; the equivalence classes here are fixed points of it).
On top of that sit the rebalancer's own contracts: the default routing
table is byte-identical to the legacy modulo, every decision is a pure
function of record counts (so checkpoint/restore replays identically),
and hot-key curation drops records only with full shed-style accounting.
"""

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.legality import ExecTarget
from repro.errors import ExecutionError, PlanningError
from repro.dsms.cost import CostModel
from repro.dsms.rebalance import (
    RebalancePolicy,
    Rebalancer,
    RoutingTable,
    _Curation,
)
from repro.dsms.runtime import Gigascope
from repro.dsms.sharded import ShardedGigascope, canonical_rows, stable_hash
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed
from repro.testing.faults import hot_key_stream
from repro.algorithms.bindings import SUBSET_SUM_QUERY, subset_sum_library

from tests.test_oracle import Case, Family, Stream, agree, stream

SS_TEXT = SUBSET_SUM_QUERY.format(window=5, target=500).replace(
    "GROUP BY time/5 as tb, srcIP, destIP, uts",
    "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
)
AGG_TEXT = "SELECT tb, srcIP, sum(len), count(*) FROM TCP GROUP BY time/5 as tb, srcIP"

HOT_IP = 0x0A0A0A0A


def skewed_trace(seconds=15, seed=3, fraction=0.8):
    config = TraceConfig(duration_seconds=seconds, rate_scale=0.02, seed=seed)
    records = list(research_center_feed(config))
    return hot_key_stream(records, "srcIP", HOT_IP, fraction=fraction)


def policy(**overrides):
    defaults = dict(check_interval=2, min_records=64, max_shards=4)
    defaults.update(overrides)
    return RebalancePolicy(**defaults)


def build(rebalance, shards=2, library=None, **kwargs):
    sh = ShardedGigascope(shards=shards, rebalance=rebalance, **kwargs)
    sh.register_stream(TCP_SCHEMA)
    if library is not None:
        sh.use_stateful_library(library)
    sh.add_query(AGG_TEXT if library is None else SS_TEXT, name="q")
    return sh


class TestRoutingTable:
    def test_default_is_byte_identical_to_legacy_modulo(self):
        for shards in (1, 2, 3, 4, 7):
            table = RoutingTable.default(shards)
            for value in list(range(200)) + ["10.0.0.1", "a", (1, 2)]:
                h = stable_hash(value)
                assert table.route(h) == h % shards

    def test_hot_pin_overrides_slots(self):
        table = RoutingTable.default(2)
        h = stable_hash(HOT_IP)
        assert table.route(h) == h % 2
        table.hot[h] = 1 - (h % 2)
        assert table.route(h) == 1 - (h % 2)
        # Other keys still follow the slot map.
        other = stable_hash("cold")
        assert table.route(other) == other % 2

    def test_snapshot_round_trip(self):
        table = RoutingTable.default(3)
        table.hot[stable_hash(HOT_IP)] = 2
        table.slots[5] = 1
        table.version = 7
        clone = RoutingTable.from_snapshot(table.snapshot())
        assert clone.version == 7
        assert clone.shard_count == 3
        for h in range(500):
            assert clone.route(h) == table.route(h)

    def test_needs_at_least_one_slot(self):
        with pytest.raises(ExecutionError, match="at least one slot"):
            RoutingTable(slots=[])


class TestCurationDeterminism:
    def test_evenly_spaced_admission(self):
        cur = _Curation("key", keep=0.125)
        admitted = sum(cur.admit() for _ in range(1000))
        assert admitted == int(1000 * 0.125)
        # Evenly spaced, not front-loaded: any prefix admits its share.
        cur = _Curation("key", keep=0.25)
        for n in range(1, 200):
            cur.admit()
            assert cur.admitted == int(n * 0.25)

    def test_snapshot_resumes_identically(self):
        reference = _Curation("key", keep=0.3)
        decisions = [reference.admit() for _ in range(100)]
        resumed = _Curation("key", keep=0.3)
        for _ in range(40):
            resumed.admit()
        resumed = _Curation.from_snapshot(resumed.snapshot())
        assert [resumed.admit() for _ in range(60)] == decisions[40:]


class TestRebalancerCheckpoint:
    def _feed(self, rebalancer, values):
        for value in values:
            rebalancer.route_record(stable_hash(value), value, "TCP")

    def test_restore_replays_identical_decisions(self):
        values = [HOT_IP if i % 5 else i for i in range(400)]
        reference = Rebalancer(policy(), RoutingTable.default(2))
        self._feed(reference, values)
        plan = reference.maybe_plan()
        if plan is not None:
            reference.commit(plan)

        # Checkpoint mid-history, restore into a fresh instance: the
        # table and every subsequent routing decision must match.
        clone = Rebalancer(policy(), RoutingTable.default(2))
        clone.restore(reference.checkpoint())
        assert clone.table.version == reference.table.version
        for value in values:
            h = stable_hash(value)
            assert clone.table.route(h) == reference.table.route(h)
        assert clone.report.as_dict() == reference.report.as_dict()


#: one plan per way a windowed operator keys its state by the partition
#: column ``srcIP`` (position 1 of every group key below)
WINDOWED = {
    "aggregation": "SELECT tb, srcIP, destIP, sum(len), count(*) FROM TCP"
    " GROUP BY time/5 as tb, srcIP, destIP",
    # srcIP inside the supergroup key: SFUN states move with their groups
    "sampling-keyed": SS_TEXT,
    # srcIP outside it: supergroups are placeholders, copied where needed
    "sampling-placeholder": "SELECT tb, srcIP, destIP, sum(len), count(*) FROM TCP"
    " GROUP BY time/5 as tb, srcIP, destIP SUPERGROUP BY tb, destIP",
}


def windowed_operator(name):
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    return gs.add_query(WINDOWED[name], name="q").operator


def contents(name, snapshot):
    """``(groups, supergroups)`` a snapshot holds, as multisets, read off
    a fresh operator it is restored into — only an operator reads its
    own layout.  A group is its key and aggregate values."""
    operator = windowed_operator(name)
    operator.restore(pickle.loads(pickle.dumps(snapshot)))
    if name == "aggregation":
        rows = [tuple(row.values) for row in operator.flush()]
        return Counter((row[:3], row[3:]) for row in rows), Counter()
    tables = operator.tables
    groups = Counter(
        (g.key, tuple(a.value() for a in g.aggregates)) for g in tables.groups.values()
    )
    supergroups = Counter(
        (which, sg.key, repr(sorted((n, s.checkpoint()) for n, s in sg.states.items())))
        for which, table in (("new", tables.new_supergroups), ("old", tables.old_supergroups))
        for sg in table.values()
    )
    return groups, supergroups


class TestOperatorsCutAndJoinTheirOwnSnapshots:
    """``split_snapshot`` / ``merge_snapshot``, through the operator alone."""

    @pytest.mark.parametrize("name", list(WINDOWED))
    @settings(max_examples=60, deadline=None)
    @given(
        packets=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 3), st.integers(40, 1500)),
            min_size=1,
            max_size=40,
        ),
        cut=st.integers(0, 40),
        table=st.lists(st.integers(0, 3), min_size=8, max_size=8),
        src=st.integers(0, 3),
    )
    def test_split_then_merge_conserves_and_places_state(
        self, name, packets, cut, table, src
    ):
        # Two windows, so a sampling plan also holds old-window supergroups.
        donor = windowed_operator(name)
        donor.process_many(
            Record(TCP_SCHEMA, (1 if i < cut else 6, i + 1, ip, dst, size, 1024, 80, 6))
            for i, (ip, dst, size) in enumerate(packets)
        )
        snapshot = donor.checkpoint()
        window = snapshot["current_window"]
        groups, supergroups = contents(name, snapshot)

        parts = donor.split_snapshot(snapshot, "srcIP", table.__getitem__, src)
        shards = {src: snapshot}
        for dest, part in parts.items():
            shards[dest] = windowed_operator(name).checkpoint()
            moved = donor.merge_snapshot(shards[dest], part, window)
            assert shards[dest]["current_window"] == window
            placed, joined = contents(name, shards[dest])
            # Copies of placeholders are not counted as moved.
            keyed = name == "sampling-keyed"
            assert moved == (sum(placed.values()), sum(joined.values()) if keyed else 0)
        held = {shard: contents(name, state) for shard, state in shards.items()}

        assert src not in parts
        assert sum((g for g, _ in held.values()), Counter()) == groups
        for shard, (placed, _) in held.items():
            assert all(table[key[1]] == shard for key, _ in placed)
        if name == "sampling-placeholder":
            # Copied, never moved: the source keeps every one, and each
            # destination holds those its groups belong to (key: destIP).
            assert held[src][1] == supergroups
            for shard, (placed, copies) in held.items():
                assert copies <= supergroups
                assert {key[2] for key, _ in placed} <= {sg[1][0] for sg in copies}
        else:
            assert sum((sg for _, sg in held.values()), Counter()) == supergroups

    @pytest.mark.parametrize("name", list(WINDOWED))
    def test_nothing_moves_when_every_key_stays(self, name):
        donor = windowed_operator(name)
        donor.process_many(
            Record(TCP_SCHEMA, (1 + i // 4, i + 1, i % 5, i % 3, 100 + i, 1024, 80, 6))
            for i in range(24)
        )
        snapshot = donor.checkpoint()
        before = pickle.dumps(snapshot)
        assert donor.split_snapshot(snapshot, "srcIP", lambda ip: 2, 2) == {}
        assert pickle.dumps(snapshot) == before
        # ... and when the state is not keyed by the column at all.
        assert donor.split_snapshot(snapshot, "protocol", lambda value: 0, 2) == {}
        assert pickle.dumps(snapshot) == before


def rebalanced(text, rebalance_policy, shards=2, supervise=False, feed=None, **options):
    """``text`` on a rebalancing pool, cut in rounds of 128 payloads and
    held to the oracle (``tests/test_oracle.py::agree``)."""
    feed = feed or stream(skewed_trace(seconds=5))
    case = Case(
        Family((text,)), feed,
        target=ExecTarget(shards=shards, supervise=supervise, rebalance=True),
        cuts=tuple(range(128, len(feed.payloads), 128)), policy=rebalance_policy, **options,
    )
    return agree(case).deployment


class TestInlineEquivalence:
    def test_aggregation_on_skewed_stream(self):
        report = rebalanced(AGG_TEXT, policy()).run_report()["rebalance"]
        assert report["plans"] >= 1, "skew never triggered a rebalance"
        assert report["pinned_keys"] >= 1

    def test_subset_sum_supergroup_on_skewed_stream(self):
        assert rebalanced(SS_TEXT, policy()).run_report()["rebalance"]["plans"] >= 1

    def test_scales_shard_pool_up(self):
        # A decision window spans check_interval * 128 ~ 256 records;
        # capacity 100 makes the planner want ceil(256/100) = 3 shards,
        # above the starting pool of 2.
        report = rebalanced(AGG_TEXT, policy(shard_capacity=100)).run_report()["rebalance"]
        assert report["scale_ups"] >= 1
        assert report["routing"]["shard_count"] > 2


class TestSupervisedEquivalence:
    def test_supervised_rebalance_matches_serial(self):
        sh = rebalanced(AGG_TEXT, policy(), supervise=True)
        assert sh.run_report()["rebalance"]["plans"] >= 1

    def test_cycles_match_inline_after_migrating_into_fresh_shards(self):
        """Every key on shard 0 of 4: the first plan moves groups into
        three workers that never saw a batch, whose snapshots are cut
        from the parent's pristine instances — which charge the parent's
        cost model.  Its balances (here: ten quarantined payloads) must
        not ride into each worker and be absorbed back once per shard."""
        from repro.testing.faults import _rekey_record

        ips = [ip for ip in range(1, 2000) if stable_hash(ip) % 4 == 0][:40]
        records = [
            _rekey_record(record, "srcIP", ips[i % len(ips)])
            for i, record in enumerate(skewed_trace(seconds=5, fraction=0.01))
        ]
        feed = Stream(tuple([object()] * 10 + records), tuple(records))
        accounts = {}
        for supervise in (False, True):
            sh = rebalanced(
                AGG_TEXT,
                RebalancePolicy(check_interval=2, min_records=64, imbalance_threshold=1.2),
                shards=4, supervise=supervise, feed=feed, validate=True,
            )
            report = sh.run_report()["rebalance"]
            assert report["plans"] >= 1 and report["migrated_groups"] > 0
            accounts[supervise] = sh.cost.accounts()
        assert accounts[True] == accounts[False]
        assert accounts[True]["TCP"] == 10 * CostModel().book.tuple_quarantined


class TestCurationAccounting:
    def run_curated(self):
        feed = skewed_trace()
        cm = CostModel()
        sh = build(
            policy(curate=True, curate_threshold=0.5, curate_keep=0.125),
            cost_model=cm,
        )
        sh.run(iter(feed), batch_size=128)
        return sh, cm

    def test_every_dropped_record_is_accounted(self):
        sh, cm = self.run_curated()
        report = sh.run_report()["rebalance"]
        curated = report["curated_records"]
        assert report["curated_keys"] >= 1
        assert curated > 0
        assert curated == int(
            sh.metrics.value("rebalance_curated_total", stream="TCP")
        )
        assert cm.cycles("TCP") >= curated * cm.book.tuple_shed

    def test_curation_is_deterministic(self):
        first, _ = self.run_curated()
        second, _ = self.run_curated()
        assert (
            first.run_report()["rebalance"]["curated_records"]
            == second.run_report()["rebalance"]["curated_records"]
        )
        assert canonical_rows(first.query("q").results) == canonical_rows(
            second.query("q").results
        )


class TestRefusals:
    def test_no_shard_mode_is_refused(self):
        for supervise in (False, True):
            sh = ShardedGigascope(
                shards=2, supervise=supervise, rebalance=policy()
            )
            assert sh.routing_snapshot() is not None

    def test_merge_nodes_refused(self):
        sh = ShardedGigascope(shards=2, rebalance=policy())
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(AGG_TEXT, name="a")
        sh.add_query(AGG_TEXT.replace("sum(len)", "max(len)"), name="b")
        with pytest.raises(PlanningError, match="MERGE"):
            sh.add_merge("m", ["a", "b"])


class TestReportShape:
    def test_rebalance_section_only_when_enabled(self):
        feed = skewed_trace(seconds=5)
        plain = build(None)
        plain.run(iter(feed), batch_size=128)
        assert set(plain.run_report()) == {"streams", "queries"}

        rebalanced = build(policy())
        rebalanced.run(iter(feed), batch_size=128)
        report = rebalanced.run_report()
        assert set(report) == {"streams", "queries", "rebalance"}
        routing = report["rebalance"]["routing"]
        assert set(routing) == {
            "version", "shard_count", "num_slots", "slots", "hot"
        }
