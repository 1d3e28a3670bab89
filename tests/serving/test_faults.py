"""Per-query fault isolation: breakers, dead letters, leader failover.

The serving contract under faults: one poisoned standing query — a
scalar that starts raising at a data-determined point — is quarantined
behind its own circuit breaker (failures dead-lettered, skipped batches
accounted into the conservation identity) while **every other query
keeps serving byte-identically to its solo oracle**, even when the
poisoned query was the shared-group leader whose instance ran the
common prefix for everyone else.
"""

import json

import pytest

from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.serving.faults import (
    BreakerConfig,
    CircuitBreaker,
    DeadLetter,
    DeadLetterLog,
)
from repro.dsms.durability import ResultJournal
from repro.obs.tracing import TraceSink
from repro.serving.server import StandingQueryEngine, drive, resume_serving
from repro.streams.records import Record

from tests.dsms.test_durability import _Boom, crash_on_commit
from tests.serving.conftest import BATCH, make_instance, served_state, solo_state

#: The poison trigger: ``POISON(time)`` raises once ``time`` crosses
#: this value.  The research feed's ``time`` is increasing, so failures
#: begin at a data-determined batch and never stop — deterministic
#: across runs, resumes, and processes.
POISON_AFTER = 4


def _poison(value):
    if value >= POISON_AFTER:
        raise RuntimeError("poisoned scalar blew up")
    return 1


def poison_factory():
    """A standard instance plus the poison scalar, under two names:
    ``POISON`` shares (deterministic), ``FLAKY`` refuses sharing
    (flagged nondeterministic) and lands on the direct path."""
    gs = make_instance()
    gs.register_scalar("POISON", _poison, deterministic=True)
    gs.register_scalar("FLAKY", _poison, deterministic=False)
    return gs


#: Poisoned aggregation: joins the TCP pass-through shared group (the
#: WHERE evaluates in its high-level node), so registering it first
#: makes it the group *leader*.
POISON_SHARED = (
    "SELECT tb, count(*) FROM TCP WHERE POISON(time) > 0"
    " GROUP BY time/10 as tb"
)
#: Poisoned selection on the direct path (nondeterministic scalar).
POISON_DIRECT = "SELECT time, len FROM TCP WHERE FLAKY(time) > 0"

HEALTHY_AGGS = [
    f"SELECT tb, count(*), sum(len) FROM TCP GROUP BY time/{k} as tb"
    for k in range(2, 9)
]
HEALTHY_SELECTIONS = [
    f"SELECT time, srcIP, len FROM TCP WHERE len > {threshold}"
    for threshold in range(100, 800, 100)
]


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=3))
        for _ in range(2):
            assert breaker.admits()
            breaker.record_failure("boom")
            assert breaker.state == "closed"
        breaker.record_failure("boom")
        assert breaker.state == "open"
        assert breaker.opens_total == 1
        assert breaker.quarantined

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_failure("boom")
        breaker.record_success()
        breaker.record_failure("boom")
        assert breaker.state == "closed"  # never two in a row

    def test_cooldown_skips_then_half_open_probe(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, cooldown_batches=3)
        )
        breaker.record_failure("boom")
        assert breaker.state == "open"
        assert not breaker.admits()  # skip 1
        assert not breaker.admits()  # skip 2
        assert breaker.admits()  # the probe
        assert breaker.state == "half_open"
        assert breaker.skipped_batches == 2

    def test_probe_success_closes_probe_failure_reopens(self):
        config = BreakerConfig(failure_threshold=1, cooldown_batches=1)
        healed = CircuitBreaker(config)
        healed.record_failure("boom")
        assert healed.admits()
        healed.record_success()
        assert healed.state == "closed"
        assert healed.last_error is None

        sick = CircuitBreaker(config)
        sick.record_failure("boom")
        assert sick.admits()
        sick.record_failure("still sick")
        assert sick.state == "open"
        assert sick.opens_total == 2

    def test_checkpoint_restore_round_trip(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_failure("a")
        breaker.record_failure("b")
        breaker.admits()
        snapshot = breaker.checkpoint()
        twin = CircuitBreaker(BreakerConfig(failure_threshold=2))
        twin.restore(snapshot)
        assert twin.checkpoint() == snapshot
        assert twin.state == breaker.state

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_batches=0)


class TestDeadLetterLog:
    def entry(self, qid, offset=0):
        return DeadLetter(
            qid=qid, tenant="t", role="direct", offset=offset,
            batch_size=128, error_type="RuntimeError", error="boom",
            breaker_state="closed",
        )

    def test_bounded_retention_counts_evictions(self):
        log = DeadLetterLog(capacity=2)
        for i in range(5):
            log.put(self.entry("sq1", offset=i))
        assert len(log) == 2
        assert log.total == 5
        assert log.evicted == 3
        assert [e.offset for e in log.entries] == [3, 4]
        assert log.counts_by_query() == {"sq1": 5}

    def test_jsonl_export(self, tmp_path):
        log = DeadLetterLog()
        log.put(self.entry("sq1"))
        log.put(self.entry("sq2"))
        path = str(tmp_path / "dead.jsonl")
        assert log.write_jsonl(path) == 2
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert [line["qid"] for line in lines] == ["sq1", "sq2"]
        assert lines[0]["error_type"] == "RuntimeError"

    def test_checkpoint_restore_round_trip(self):
        log = DeadLetterLog(capacity=8)
        for i in range(3):
            log.put(self.entry("sq1", offset=i))
        twin = DeadLetterLog(capacity=8)
        twin.restore(log.checkpoint())
        assert twin.checkpoint() == log.checkpoint()
        assert [e.offset for e in twin.entries] == [0, 1, 2]


def feed_all(engine, records):
    for start in range(0, len(records), BATCH):
        engine.feed(records[start : start + BATCH])


class TestPoisonQuarantine:
    def test_sixteen_queries_two_poisoned_rest_byte_identical(self, records):
        """The acceptance scenario: 16 standing queries, 2 poisoned —
        one of them the leader of the shared aggregation group — and
        the other 14 still byte-identical to their solo oracles."""
        engine = StandingQueryEngine(
            poison_factory,
            breaker=BreakerConfig(failure_threshold=3, cooldown_batches=4),
        )
        poisoned_leader = engine.register(POISON_SHARED, name="q")
        healthy = [
            (text, engine.register(text, name="q"))
            for text in HEALTHY_AGGS + HEALTHY_SELECTIONS
        ]
        poisoned_direct = engine.register(POISON_DIRECT, name="q")
        assert len(engine.queries()) == 16

        # The poisoned aggregation leads the shared pass-through group
        # (registered first); the FLAKY query was refused sharing.
        assert poisoned_leader.signature is not None
        group = engine._groups[poisoned_leader.signature]
        assert group[0] == poisoned_leader.qid
        assert len(group) == 8  # the 7 healthy aggregations follow it
        assert poisoned_direct.signature is None

        feed_all(engine, records)
        engine.close()

        # Both poisoned queries are quarantined, with the failure
        # recorded: breaker open, dead letters attributed.
        for sq, role in [(poisoned_leader, "leader"), (poisoned_direct, "direct")]:
            assert sq.breaker.state == "open"
            assert "poisoned scalar blew up" in sq.breaker.last_error
            assert engine.dead_letters.counts_by_query()[sq.qid] > 0
        roles = {e.qid: e.role for e in engine.dead_letters.entries}
        assert roles[poisoned_leader.qid] == "leader"
        assert roles[poisoned_direct.qid] == "direct"

        # The group survived its leader: failovers were recorded and
        # every healthy query — follower or private — equals solo.
        assert engine.metrics.value("serving_leader_failovers_total") > 0
        for text, sq in healthy:
            assert served_state(sq) == solo_state(text, records), (
                f"{sq.qid} diverged behind a quarantined leader"
            )

        # Quarantine is visible in the exposition: the breaker gauge
        # reads open (2) and the skip/batch counters are labelled.
        text = render_prometheus(engine.export_metrics())
        assert (
            f'serving_breaker_state{{serve_id="{poisoned_leader.qid}"}} 2'
            in text
        )
        assert "serving_poison_batches_total" in text
        assert "serve_poison_skipped_total" in text

    def test_poison_skips_close_the_conservation_identity(self, records):
        """Skipped batches are accounted, not silent: the poisoned
        instance's admission identity still balances to zero."""
        engine = StandingQueryEngine(
            poison_factory,
            breaker=BreakerConfig(failure_threshold=2, cooldown_batches=3),
        )
        sq = engine.register(POISON_SHARED, name="q")
        feed_all(engine, records)
        engine.close()
        metrics = sq.instance.metrics
        offered = metrics.value("stream_records_total", stream="TCP")
        parts = {
            name: metrics.value(name, stream="TCP")
            for name in [
                "stream_ingested_total",
                "stream_shed_total",
                "stream_quarantined_total",
                "stream_quota_shed_total",
                "serve_poison_skipped_total",
            ]
        }
        assert offered == len(records)
        assert parts["serve_poison_skipped_total"] > 0
        assert offered == sum(parts.values()), parts
        # And the skip shows up in the run report + cost accounts.
        report = sq.instance.run_report()
        assert report["streams"]["TCP"]["poison_skipped"] == (
            parts["serve_poison_skipped_total"]
        )
        assert sq.instance.cost.cycles("TCP") > 0

    def test_breaker_closes_again_when_the_fault_heals(self, records):
        """A transient fault (raises only inside a time window) opens
        the breaker, then a successful half-open probe re-closes it and
        the query serves again.  The engine's trace tells the story: the
        leader's poisoned batch, its breaker opening, the failover to
        the follower, and the breaker closing once the fault heals."""

        def transient(value):
            if 2 <= value < 4:
                raise RuntimeError("transient fault window")
            return 1

        def factory():
            gs = make_instance()
            gs.register_scalar("POISON", transient, deterministic=True)
            return gs

        trace = TraceSink()
        engine = StandingQueryEngine(
            factory,
            breaker=BreakerConfig(failure_threshold=1, cooldown_batches=1),
            trace=trace,
        )
        sq = engine.register(POISON_SHARED, name="q")
        witness = engine.register(HEALTHY_AGGS[0], name="q")
        feed_all(engine, records)
        engine.close()
        assert sq.breaker.opens_total > 0
        assert sq.breaker.state == "closed"
        assert sq.breaker.last_error is None
        assert len(sq.results) > 0  # served again after healing
        assert served_state(witness) == solo_state(HEALTHY_AGGS[0], records)

        kinds = [event.kind for event in trace.events]
        assert kinds[:3] == ["breaker_open", "poison_batch", "leader_failover"]
        assert kinds[-1] == "breaker_close"
        opened, poisoned, failover = (event.fields for event in trace.events[:3])
        assert opened["qid"] == poisoned["qid"] == sq.qid
        assert poisoned["role"] == "leader"
        assert "transient fault window" in poisoned["error"]
        assert failover == {
            "failed": sq.qid, "promoted": witness.qid, "offset": poisoned["offset"],
        }
        assert trace.events[-1].fields["qid"] == sq.qid

    def test_unregistering_the_leader_promotes_the_next_member(self, records):
        """Removing a shared-group leader mid-stream hands leadership to
        the next member with no gap for the rest of the group."""
        engine = StandingQueryEngine(make_instance)
        leader = engine.register(HEALTHY_AGGS[0], name="q")
        follower = engine.register(HEALTHY_AGGS[1], name="q")
        half = (len(records) // (2 * BATCH)) * BATCH
        feed_all(engine, records[:half])
        engine.unregister(leader.qid)
        feed_all(engine, records[half:])
        engine.close()
        assert served_state(follower) == solo_state(HEALTHY_AGGS[1], records)
        assert served_state(leader) == solo_state(
            HEALTHY_AGGS[0], records[:half]
        )

    def test_every_group_member_failing_dead_letters_each(self, records):
        """When the whole group is poisoned there is no leader to fail
        over to: every member is dead-lettered, nothing propagates."""
        engine = StandingQueryEngine(
            poison_factory,
            breaker=BreakerConfig(failure_threshold=2, cooldown_batches=4),
        )
        a = engine.register(POISON_SHARED, name="q")
        b = engine.register(POISON_SHARED, name="q")
        feed_all(engine, records)
        engine.close()
        counts = engine.dead_letters.counts_by_query()
        assert counts[a.qid] > 0 and counts[b.qid] > 0
        assert a.breaker.state == "open"
        assert b.breaker.state == "open"

    def test_report_and_describe_surface_quarantine(self, records):
        engine = StandingQueryEngine(
            poison_factory, breaker=BreakerConfig(failure_threshold=1)
        )
        sq = engine.register(POISON_SHARED, name="q")
        feed_all(engine, records)
        engine.close()
        report = engine.report()
        (described,) = report["queries"]
        assert described["quarantined"] is True
        assert described["breaker"]["state"] == "open"
        assert report["dead_letters"]["total"] > 0
        assert report["dead_letters"]["by_query"] == {sq.qid: (
            report["dead_letters"]["total"]
        )}
        # A lone shareable query is a group of one: it fails as its
        # leader, with no one to fail over to.
        assert sq.signature is not None
        assert {e.role for e in engine.dead_letters.entries} == {"leader"}
        assert engine.metrics.value("serving_leader_failovers_total") == 0


class TestOneFeedPath:
    """Every feed group — a sharing group, or a query that cannot share
    as a group of one — runs through one loop: one admission decision
    and one fault boundary per member, the role in the dead letter
    saying where in the group it failed."""

    def test_a_follower_whose_replay_raises(self, records):
        """The poisoned query follows a healthy leader: its replay raises
        inside its own boundary, and the leader never notices."""
        engine = StandingQueryEngine(poison_factory)
        leader = engine.register(HEALTHY_AGGS[0], name="q")
        follower = engine.register(POISON_SHARED, name="q")
        assert engine.report()["shared_groups"][0]["members"] == [leader.qid, follower.qid]
        feed_all(engine, records)
        engine.close()
        assert {e.role for e in engine.dead_letters.entries} == {"follower"}
        assert follower.breaker.state == "open"
        assert engine.metrics.value("serving_leader_failovers_total") == 0
        assert served_state(leader) == solo_state(HEALTHY_AGGS[0], records)

    @pytest.mark.parametrize("poisoned_first", [True, False], ids=["leader", "follower"])
    def test_a_success_clears_failures_short_of_the_threshold(self, records, poisoned_first):
        """A fault inside a time window fails fewer batches than the
        threshold: the breaker stays closed, and the next batch the query
        serves sets its count of consecutive failures back to 0."""

        def transient(value):
            if 2 <= value < 4:
                raise RuntimeError("transient fault window")
            return 1

        def factory():
            gs = make_instance()
            gs.register_scalar("POISON", transient, deterministic=True)
            return gs

        engine = StandingQueryEngine(factory, breaker=BreakerConfig(failure_threshold=100))
        texts = [POISON_SHARED, HEALTHY_AGGS[0]]
        served = [engine.register(text, name="q") for text in (texts if poisoned_first else texts[::-1])]
        feed_all(engine, records)
        engine.close()
        breaker = served[0 if poisoned_first else 1].breaker
        assert breaker.failures_total > 0
        assert (breaker.state, breaker.consecutive_failures) == ("closed", 0)

    def test_a_flush_that_raises_is_dead_lettered(self, records):
        """The last window only closes in ``finish``, and its HAVING
        raises there: the flush is dead-lettered and the drain goes on
        for every other query."""
        engine = StandingQueryEngine(poison_factory)
        sq = engine.register(
            "SELECT tb, count(*) FROM TCP GROUP BY time/2 as tb"
            " HAVING POISON(tb) > 0",
            name="q",
        )
        witness = engine.register(HEALTHY_AGGS[0], name="q")
        feed_all(engine, records)
        assert not engine.dead_letters.entries  # every batch fed cleanly
        engine.close()
        assert engine.closed
        (letter,) = engine.dead_letters.entries
        assert (letter.qid, letter.role) == (sq.qid, "flush")
        assert (letter.offset, letter.batch_size) == (len(records), 0)
        assert served_state(witness) == solo_state(HEALTHY_AGGS[0], records)


class TestReplaySeries:
    """A follower resolves the counters its replay adds to once per shape
    of its leader's deltas, keyed by the leader's node
    (``ServedQuery.series``), and while the shape holds only adds to
    them; a new shape — a delta that was zero, another leader — resolves
    again, and the follower still counts what it would alone."""

    TEXTS = HEALTHY_AGGS[:3] + HEALTHY_SELECTIONS[:1] * 3

    def test_a_shape_that_gains_a_delta_is_resolved_again(self, records):
        """No record of the first batch is filtered, so its capture drops
        the zero ``operator_tuples_filtered_total`` delta; the next batch
        filters, and its shape holds one series more."""
        text = HEALTHY_SELECTIONS[0]
        len_at = records[0].schema.index_of("len")
        first = [Record(r.schema, [*r.values[:len_at], 1500, *r.values[len_at + 1:]])
                 for r in records[:BATCH]]
        fed = first + records[BATCH:]
        engine = StandingQueryEngine(make_instance)
        leader, *followers = [engine.register(text, name="q") for _ in range(3)]
        shapes = []
        for start in range(0, len(fed), BATCH):
            engine.feed(fed[start : start + BATCH])
            shapes.append({name for name, _ in leader.shape})
        assert "operator_tuples_filtered_total" not in shapes[0]
        assert "operator_tuples_filtered_total" in shapes[1]
        engine.finish()
        for sq in [leader, *followers]:
            assert served_state(sq) == solo_state(text, fed), sq.qid

    def test_a_failover_between_batches_is_resolved_again(self, records):
        """The poisoned leader fails once ``time`` reaches
        ``POISON_AFTER``; the next member leads under the same node name,
        and its shape, another object, resolves each follower's counters
        again."""
        engine = StandingQueryEngine(
            poison_factory, breaker=BreakerConfig(failure_threshold=2, cooldown_batches=3),
        )
        engine.register(POISON_SHARED, name="q")
        healthy = [(text, engine.register(text, name="q")) for text in HEALTHY_AGGS[:3]]
        feed_all(engine, records)
        engine.finish()
        assert engine.metrics.value("serving_leader_failovers_total") > 0
        assert engine.metrics.value("serving_shared_replays_total") > 0
        for text, sq in healthy:
            assert served_state(sq) == solo_state(text, records), sq.qid

    def test_a_counter_that_went_down_fails_its_leader(self, records):
        """A capture checks that no counter decreased, once for every
        follower: a leader whose counter went down fails its feed, the
        next member leads, and no follower is handed a negative delta."""
        text = HEALTHY_SELECTIONS[0]
        engine = StandingQueryEngine(make_instance)
        leader, *followers = [engine.register(text, name="q") for _ in range(3)]
        feed, counted = leader.instance.feed, leader.instance.metrics.counter

        def shrinking(batch):
            feed(batch)
            counted("stream_records_total", stream="TCP").value -= 2 * len(batch)

        leader.instance.feed = shrinking
        feed_all(engine, records)
        engine.finish()
        assert {e.role for e in engine.dead_letters.entries} == {"leader"}
        assert "cannot decrease" in leader.breaker.last_error
        for sq in followers:
            assert served_state(sq) == solo_state(text, records), sq.qid

    def test_a_replay_resolves_no_series_after_the_first_batch(
        self, tmp_path, records, monkeypatch
    ):
        engine = StandingQueryEngine(make_instance)
        served = [engine.register(text, name=f"q{i}") for i, text in enumerate(self.TEXTS)]
        assert len(engine.report()["shared_groups"]) == 2
        engine.feed(records[:BATCH])
        followers = {id(sq.instance.metrics) for sq in served} - {
            id(engine.lookup(group["members"][0]).instance.metrics)
            for group in engine.report()["shared_groups"]
        }
        assert len(followers) == 4
        resolved = []
        counter = MetricsRegistry.counter

        def counting(registry, name, *args, **labels):
            if id(registry) in followers:
                resolved.append(name)
            return counter(registry, name, *args, **labels)

        monkeypatch.setattr(MetricsRegistry, "counter", counting)
        feed_all(engine, records[BATCH:])
        assert engine.metrics.value("serving_shared_replays_total") > 4
        assert resolved == []

        # A failover hands the group to a leader with another node name,
        # and a resume rebuilds every query: each follower still counts
        # and charges what it would running alone.
        monkeypatch.undo()
        path = str(tmp_path / "serve.wal")

        def fresh(**options):
            return StandingQueryEngine(
                poison_factory,
                breaker=BreakerConfig(failure_threshold=2, cooldown_batches=3),
                **options,
            )

        def poisoned(**options):
            engine = fresh(**options)
            engine.register(POISON_SHARED, name="bad", qid="bad")
            for i, text in enumerate(self.TEXTS):
                engine.register(text, name=f"q{i}", qid=f"q{i}")
            return engine

        killed = poisoned(journal=ResultJournal(path, fresh=True), on_commit=crash_on_commit(3))
        with pytest.raises(_Boom):
            drive(killed, records, batch_size=BATCH, commit_interval=2)
        assert killed.metrics.value("serving_leader_failovers_total") > 0
        uninterrupted = poisoned()
        drive(uninterrupted, records, batch_size=BATCH, commit_interval=2)
        resumed = resume_serving(fresh(), path, records, batch_size=BATCH, commit_interval=2)
        for engine in (uninterrupted, resumed):
            for i, text in enumerate(self.TEXTS):
                assert served_state(engine.lookup(f"q{i}")) == solo_state(
                    text, records, name=f"q{i}"
                ), f"q{i}"


class TestBreakerDurability:
    def run_drive(self, journal_path, records, fresh=True):
        engine = StandingQueryEngine(
            poison_factory,
            journal=ResultJournal(journal_path, fresh=fresh) if journal_path
            else None,
            breaker=BreakerConfig(failure_threshold=2, cooldown_batches=3),
        )
        engine.register(POISON_SHARED, name="q", qid="bad")
        engine.register(HEALTHY_AGGS[0], name="q", qid="good")
        drive(engine, records, batch_size=BATCH, commit_interval=2)
        return engine

    def test_a_resumed_serve_keeps_its_engine_trace(self, tmp_path, records):
        """Killed at its second commit, after the poisoned leader's
        first failures were traced, and resumed into a fresh traced
        engine: the trace is the uninterrupted serve's."""
        path = str(tmp_path / "serve.wal")

        def traced(**options):
            engine = StandingQueryEngine(
                poison_factory,
                breaker=BreakerConfig(failure_threshold=2, cooldown_batches=3),
                trace=TraceSink(),
                **options,
            )
            engine.register(POISON_SHARED, name="q", qid="bad")
            engine.register(HEALTHY_AGGS[0], name="q", qid="good")
            return engine

        oracle = traced()
        drive(oracle, records, batch_size=BATCH, commit_interval=2)
        killed = traced(
            journal=ResultJournal(path, fresh=True), on_commit=crash_on_commit(2)
        )
        with pytest.raises(_Boom):
            drive(killed, records, batch_size=BATCH, commit_interval=2)
        assert killed.trace.kinds()["breaker_open"] == 1  # traced before the kill

        fresh = StandingQueryEngine(
            poison_factory,
            breaker=BreakerConfig(failure_threshold=2, cooldown_batches=3),
            trace=TraceSink(),
        )
        resumed = resume_serving(fresh, path, records, batch_size=BATCH, commit_interval=2)
        assert resumed is fresh and resumed.closed
        assert resumed.trace.checkpoint() == oracle.trace.checkpoint()
        assert resumed.dead_letters.checkpoint() == oracle.dead_letters.checkpoint()

    def test_breaker_and_dead_letter_state_ride_the_journal(
        self, tmp_path, records
    ):
        """A resumed serve restores breaker + dead-letter state from the
        last commit and replays to the same terminal quarantine state."""
        path = str(tmp_path / "serve.wal")
        oracle = self.run_drive(None, records)
        self.run_drive(path, records)
        resumed = resume_serving(
            StandingQueryEngine(
                poison_factory,
                breaker=BreakerConfig(failure_threshold=2, cooldown_batches=3),
            ),
            path,
            (_ for _ in ()),  # final commit present: reads no input
            batch_size=BATCH,
            commit_interval=2,
        )
        assert resumed.closed
        for qid in ("bad", "good"):
            assert resumed.lookup(qid).breaker.checkpoint() == (
                oracle.lookup(qid).breaker.checkpoint()
            )
        assert resumed.dead_letters.checkpoint() == (
            oracle.dead_letters.checkpoint()
        )
