"""Serving chaos: kill the whole server process, resume the standing set.

A child process runs a journalled serve — several standing queries
registered and one retired at scheduled record offsets — and hard-exits
(``os._exit``, via :func:`repro.testing.faults.exit_after_commits`)
right after its Nth serving-journal commit.  The parent resumes from
the journal the corpse left behind and must recover *the entire
standing-query set*: same queries, same registration/retirement
offsets, and rows/metrics/cost byte-identical to an uninterrupted
in-process serve of the same schedule.

Every scheduled registry event lands before the earliest kill point, so
the uninterrupted full-schedule run is a valid oracle (an event the
journal never recorded is correctly lost by a crash — that is
durability semantics, not a bug — and would simply make the oracle
wrong, so the schedule is arranged to be durable first).

Run with ``pytest -m chaos``; the tier-1 suite deselects the marker.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.serving.server import drive, resume_serving, StandingQueryEngine

from tests.serving.conftest import (
    EXAMPLE_TEXTS,
    instance_state,
    make_instance,
)

pytestmark = pytest.mark.chaos

FEED_ARGS = "duration_seconds=25, rate_scale=0.01, seed=3"
BATCH = 128
COMMIT_INTERVAL = 2  # a commit every 256 records

#: all events land by record 700, before the earliest kill point
#: (commit 4 = 828 records consumed, counting the short batches the
#: driver cuts at event offsets), so every event is durable pre-crash.
SCHEDULE = [
    {"kind": "register", "offset": 0, "text": EXAMPLE_TEXTS["reservoir"],
     "name": "q", "tenant": "acme", "qid": "sqA"},
    {"kind": "register", "offset": 300, "text": EXAMPLE_TEXTS["big_flows"],
     "name": "q", "tenant": "beta", "qid": "sqB"},
    {"kind": "register", "offset": 300, "text": EXAMPLE_TEXTS["top_talkers"],
     "name": "q", "tenant": "acme", "qid": "sqC"},
    {"kind": "unregister", "offset": 700, "qid": "sqA"},
]

_CHILD = textwrap.dedent(
    """
    import json
    import sys
    from repro.dsms.cost import CostModel
    from repro.dsms.runtime import Gigascope
    from repro.dsms.durability import ResultJournal
    from repro.serving.server import StandingQueryEngine, drive
    from repro.streams.schema import TCP_SCHEMA
    from repro.streams.traces import TraceConfig, research_center_feed
    from repro.testing.faults import exit_after_commits
    from repro.algorithms.bindings import (
        basic_subset_sum_library,
        distinct_sampling_library,
        heavy_hitters_library,
        reservoir_library,
        subset_sum_library,
    )

    journal, kill_at, schedule_json = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    schedule = json.loads(schedule_json)

    def factory():
        gs = Gigascope(cost_model=CostModel())
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        gs.use_stateful_library(basic_subset_sum_library())
        gs.use_stateful_library(reservoir_library())
        gs.use_stateful_library(heavy_hitters_library())
        gs.use_stateful_library(distinct_sampling_library())
        return gs

    engine = StandingQueryEngine(
        factory,
        journal=ResultJournal(journal, fresh=True),
        on_commit=exit_after_commits(kill_at, exit_code=86),
    )
    feed = research_center_feed(TraceConfig({feed_args}))
    drive(
        engine,
        feed,
        schedule=schedule,
        batch_size={batch},
        commit_interval={commit_interval},
    )
    # Reaching the end means the kill point was never hit.
    sys.exit(3)
    """
).replace("{feed_args}", FEED_ARGS).replace("{batch}", str(BATCH)).replace(
    "{commit_interval}", str(COMMIT_INTERVAL)
)


def feed():
    from repro.streams.traces import TraceConfig, research_center_feed

    return list(
        research_center_feed(
            TraceConfig(duration_seconds=25, rate_scale=0.01, seed=3)
        )
    )


def kill_server_at_commit(journal_path, kill_at):
    import json

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    err_path = journal_path + ".stderr"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CHILD,
                journal_path,
                str(kill_at),
                json.dumps(SCHEDULE),
            ],
            env=env,
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        try:
            proc.wait(timeout=90)
        finally:
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


def uninterrupted_oracle():
    engine = StandingQueryEngine(make_instance)
    drive(
        engine,
        feed(),
        schedule=SCHEDULE,
        batch_size=BATCH,
        commit_interval=COMMIT_INTERVAL,
    )
    return engine


def assert_engines_identical(resumed, oracle):
    assert {sq.qid for sq in resumed.queries()} == {
        sq.qid for sq in oracle.queries()
    }
    assert resumed.consumed == oracle.consumed
    for expected in oracle.queries():
        recovered = resumed.lookup(expected.qid)
        assert recovered.tenant == expected.tenant
        assert recovered.registered_at == expected.registered_at
        assert recovered.unregistered_at == expected.unregistered_at
        assert instance_state(recovered.instance, recovered.name) == (
            instance_state(expected.instance, expected.name)
        ), f"{expected.qid} diverged after crash+resume"


class TestServingCrashResume:
    @pytest.mark.parametrize("kill_at", [4, 7], ids=["early", "late"])
    def test_resume_restores_the_standing_set(self, tmp_path, kill_at):
        journal = str(tmp_path / "serve.wal")
        kill_server_at_commit(journal, kill_at)
        resumed = resume_serving(
            StandingQueryEngine(make_instance),
            journal,
            feed(),
            batch_size=BATCH,
            commit_interval=COMMIT_INTERVAL,
        )
        assert resumed.closed
        assert_engines_identical(resumed, uninterrupted_oracle())

    def test_double_crash_double_resume(self, tmp_path):
        """Crash, resume, crash the resume, resume again — still identical."""
        journal = str(tmp_path / "serve.wal")
        kill_server_at_commit(journal, 4)

        boom = {"commits": 0}

        def explode(consumed, kind):
            boom["commits"] += 1
            if boom["commits"] >= 2:
                raise KeyboardInterrupt("simulated second crash")

        with pytest.raises(KeyboardInterrupt):
            resume_serving(
                StandingQueryEngine(make_instance, on_commit=explode),
                journal,
                feed(),
                batch_size=BATCH,
                commit_interval=COMMIT_INTERVAL,
            )
        resumed = resume_serving(
            StandingQueryEngine(make_instance),
            journal,
            feed(),
            batch_size=BATCH,
            commit_interval=COMMIT_INTERVAL,
        )
        assert_engines_identical(resumed, uninterrupted_oracle())

    def test_resume_of_a_completed_serve_reads_no_input(self, tmp_path):
        """After a clean close, resume restores from the final entry."""
        from repro.dsms.durability import ResultJournal

        journal = str(tmp_path / "serve.wal")
        engine = StandingQueryEngine(
            make_instance, journal=ResultJournal(journal, fresh=True)
        )
        drive(
            engine,
            feed(),
            schedule=SCHEDULE,
            batch_size=BATCH,
            commit_interval=COMMIT_INTERVAL,
        )

        def no_records():
            raise AssertionError("a completed serve must not re-read input")
            yield  # pragma: no cover

        resumed = resume_serving(StandingQueryEngine(make_instance), journal, no_records())
        assert resumed.closed
        assert_engines_identical(resumed, engine)


#: Dies with os._exit mid-way through appending a register event: the
#: frame header and half the payload reach the disk, fsynced, so the
#: journal's final frame fails its CRC — the torn-tail recovery path.
_TORN_CHILD = textwrap.dedent(
    """
    import os
    import pickle
    import sys
    import zlib
    from repro.dsms import durability
    from repro.dsms.cost import CostModel
    from repro.dsms.runtime import Gigascope
    from repro.dsms.durability import ResultJournal
    from repro.serving.server import StandingQueryEngine
    from repro.streams.schema import TCP_SCHEMA
    from repro.streams.traces import TraceConfig, research_center_feed
    from repro.algorithms.bindings import (
        basic_subset_sum_library,
        distinct_sampling_library,
        heavy_hitters_library,
        reservoir_library,
        subset_sum_library,
    )

    journal_path, text = sys.argv[1], sys.argv[2]

    def factory():
        gs = Gigascope(cost_model=CostModel())
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        gs.use_stateful_library(basic_subset_sum_library())
        gs.use_stateful_library(reservoir_library())
        gs.use_stateful_library(heavy_hitters_library())
        gs.use_stateful_library(distinct_sampling_library())
        return gs

    engine = StandingQueryEngine(
        factory, journal=ResultJournal(journal_path, fresh=True)
    )
    engine.register(text, name="q", qid="sqA")
    records = list(
        research_center_feed(TraceConfig({feed_args}))
    )
    for start in range(0, 512, {batch}):
        engine.feed(records[start : start + {batch}])
    engine.commit()

    # Tear the next register event's frame: write the length/CRC header
    # and half the pickled payload, make it durable, die.
    raw = engine.journal
    payload = pickle.dumps(
        durability.entry("register", "serving", 512, qid="sqB", name="q",
                         text=text, tenant="default", offset=512)
    )
    raw._fh.write(durability._FRAME.pack(len(payload), zlib.crc32(payload)))
    raw._fh.write(payload[: len(payload) // 2])
    raw._fh.flush()
    os.fsync(raw._fh.fileno())
    os._exit(86)
    """
).replace("{feed_args}", FEED_ARGS).replace("{batch}", str(BATCH))


#: Runs a journalled QueryServer with signal handlers and a paced feed;
#: the parent SIGTERMs it mid-stream and expects a graceful drain:
#: windows flushed, final commit durable, DRAIN_EXIT_CODE (3).
_DRAIN_CHILD = textwrap.dedent(
    """
    import asyncio
    import sys
    from repro.dsms.cost import CostModel
    from repro.dsms.runtime import Gigascope
    from repro.dsms.durability import ResultJournal
    from repro.serving.server import (
        DRAIN_EXIT_CODE,
        QueryServer,
        StandingQueryEngine,
    )
    from repro.streams.schema import TCP_SCHEMA
    from repro.streams.traces import TraceConfig, research_center_feed
    from repro.algorithms.bindings import (
        basic_subset_sum_library,
        distinct_sampling_library,
        heavy_hitters_library,
        reservoir_library,
        subset_sum_library,
    )

    journal_path, text_a, text_b = sys.argv[1], sys.argv[2], sys.argv[3]

    def factory():
        gs = Gigascope(cost_model=CostModel())
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        gs.use_stateful_library(basic_subset_sum_library())
        gs.use_stateful_library(reservoir_library())
        gs.use_stateful_library(heavy_hitters_library())
        gs.use_stateful_library(distinct_sampling_library())
        return gs

    engine = StandingQueryEngine(
        factory, journal=ResultJournal(journal_path, fresh=True)
    )
    engine.register(text_a, name="q", qid="sqA")
    engine.register(text_b, name="q", qid="sqB")
    records = list(research_center_feed(TraceConfig({feed_args})))
    server = QueryServer(
        engine, batch_size={batch}, commit_interval={commit_interval},
        pace=0.1,
    )

    async def main():
        assert server.install_signal_handlers()
        print("READY", flush=True)
        await server.ingest(records, close=True)

    asyncio.run(main())
    sys.exit(DRAIN_EXIT_CODE if server.drained else 0)
    """
).replace("{feed_args}", FEED_ARGS).replace("{batch}", str(BATCH)).replace(
    "{commit_interval}", str(COMMIT_INTERVAL)
)


def run_child(args, journal_path, expect_rc, send_sigterm_after=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    err_path = journal_path + ".stderr"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c"] + args,
            env=env,
            start_new_session=True,
            stdout=subprocess.PIPE,
            stderr=err,
        )
        try:
            if send_sigterm_after is not None:
                # Wait for the child's READY handshake (loop running,
                # handlers installed) before signalling it.
                line = proc.stdout.readline()
                assert b"READY" in line, line
                import time

                time.sleep(send_sigterm_after)
                proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=90)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    assert proc.returncode == expect_rc, (
        f"expected rc={expect_rc}, got rc={proc.returncode}:"
        f" {stderr.decode(errors='replace')[-800:]}"
    )


class TestServingJournalTornTail:
    def test_resume_tolerates_a_torn_registration_frame(self, tmp_path):
        """Killed mid-append of a register event: the half-written frame
        fails its CRC and is dropped; everything before it — the
        standing set and the last commit — recovers byte-identically."""
        journal = str(tmp_path / "serve.wal")
        text = EXAMPLE_TEXTS["big_flows"]
        run_child([_TORN_CHILD, journal, text], journal, expect_rc=86)

        resumed = resume_serving(
            StandingQueryEngine(make_instance),
            journal,
            feed(),
            batch_size=BATCH,
            commit_interval=COMMIT_INTERVAL,
        )
        # The torn register never happened; the survivor replayed the
        # whole stream.
        assert [sq.qid for sq in resumed.queries()] == ["sqA"]
        oracle = StandingQueryEngine(make_instance)
        drive(
            oracle,
            feed(),
            schedule=[{"kind": "register", "offset": 0, "text": text,
                       "name": "q", "qid": "sqA"}],
            batch_size=BATCH,
            commit_interval=COMMIT_INTERVAL,
        )
        assert_engines_identical(resumed, oracle)


class TestGracefulDrainChaos:
    def test_sigterm_drains_commits_and_resume_reads_no_input(self, tmp_path):
        """SIGTERM mid-stream: the server exits DRAIN_EXIT_CODE with a
        durable final commit; --resume replays nothing and the drained
        prefix equals an honest short serve of the same records."""
        from repro.serving.server import DRAIN_EXIT_CODE

        journal = str(tmp_path / "serve.wal")
        text_a = EXAMPLE_TEXTS["big_flows"]
        text_b = EXAMPLE_TEXTS["top_talkers"]
        run_child(
            [_DRAIN_CHILD, journal, text_a, text_b],
            journal,
            expect_rc=DRAIN_EXIT_CODE,
            send_sigterm_after=0.5,
        )

        def no_records():
            raise AssertionError("a drained serve must not re-read input")
            yield  # pragma: no cover

        resumed = resume_serving(StandingQueryEngine(make_instance), journal, no_records())
        assert resumed.closed
        consumed = resumed.consumed
        assert 0 < consumed < len(feed())  # genuinely cut short
        assert consumed % BATCH == 0  # at a batch boundary

        oracle = StandingQueryEngine(make_instance)
        oracle.register(text_a, name="q", qid="sqA")
        oracle.register(text_b, name="q", qid="sqB")
        drive(
            oracle,
            feed()[:consumed],
            batch_size=BATCH,
            commit_interval=COMMIT_INTERVAL,
        )
        assert_engines_identical(resumed, oracle)


#: Poisoned serve: the POISON scalar starts raising at a fixed stream
#: time, the breaker quarantines the query, and the process is killed
#: after its Nth commit — resume must restore breaker + dead-letter
#: state and replay to the same terminal quarantine.
_POISON_CHILD = textwrap.dedent(
    """
    import sys
    from repro.dsms.cost import CostModel
    from repro.dsms.runtime import Gigascope
    from repro.serving.faults import BreakerConfig
    from repro.dsms.durability import ResultJournal
    from repro.serving.server import StandingQueryEngine, drive
    from repro.streams.schema import TCP_SCHEMA
    from repro.streams.traces import TraceConfig, research_center_feed
    from repro.testing.faults import exit_after_commits
    from repro.algorithms.bindings import (
        basic_subset_sum_library,
        distinct_sampling_library,
        heavy_hitters_library,
        reservoir_library,
        subset_sum_library,
    )

    journal_path, kill_at = sys.argv[1], int(sys.argv[2])
    poison_text = sys.argv[3]
    healthy_text = sys.argv[4]

    def poison(value):
        if value >= {poison_after}:
            raise RuntimeError("poisoned scalar blew up")
        return 1

    def factory():
        gs = Gigascope(cost_model=CostModel())
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        gs.use_stateful_library(basic_subset_sum_library())
        gs.use_stateful_library(reservoir_library())
        gs.use_stateful_library(heavy_hitters_library())
        gs.use_stateful_library(distinct_sampling_library())
        gs.register_scalar("POISON", poison, deterministic=True)
        return gs

    engine = StandingQueryEngine(
        factory,
        journal=ResultJournal(journal_path, fresh=True),
        on_commit=exit_after_commits(kill_at, exit_code=86),
        breaker=BreakerConfig(failure_threshold=2, cooldown_batches=3),
    )
    engine.register(poison_text, name="q", qid="bad")
    engine.register(healthy_text, name="q", qid="good")
    feed = research_center_feed(TraceConfig({feed_args}))
    drive(
        engine, feed, batch_size={batch}, commit_interval={commit_interval}
    )
    sys.exit(3)
    """
).replace("{feed_args}", FEED_ARGS).replace("{batch}", str(BATCH)).replace(
    "{commit_interval}", str(COMMIT_INTERVAL)
).replace("{poison_after}", "4")

POISON_TEXT = (
    "SELECT tb, count(*) FROM TCP WHERE POISON(time) > 0"
    " GROUP BY time/10 as tb"
)


def poison_make_instance():
    def poison(value):
        if value >= 4:
            raise RuntimeError("poisoned scalar blew up")
        return 1

    gs = make_instance()
    gs.register_scalar("POISON", poison, deterministic=True)
    return gs


class TestPoisonCrashResume:
    @pytest.mark.parametrize("kill_at", [4, 8], ids=["early", "late"])
    def test_quarantine_state_survives_crash_and_resume(
        self, tmp_path, kill_at
    ):
        """Kill after commit N (with the breaker already open for the
        poisoned query), resume, and land byte-identical to an
        uninterrupted poisoned serve — including breaker state and the
        dead-letter ledger, which must not double-count the replayed
        failures."""
        from repro.serving.faults import BreakerConfig

        journal = str(tmp_path / "serve.wal")
        healthy_text = EXAMPLE_TEXTS["big_flows"]
        run_child(
            [_POISON_CHILD, journal, str(kill_at), POISON_TEXT, healthy_text],
            journal,
            expect_rc=86,
        )
        breaker = BreakerConfig(failure_threshold=2, cooldown_batches=3)
        resumed = resume_serving(
            StandingQueryEngine(poison_make_instance, breaker=breaker),
            journal,
            feed(),
            batch_size=BATCH,
            commit_interval=COMMIT_INTERVAL,
        )
        oracle = StandingQueryEngine(poison_make_instance, breaker=breaker)
        oracle.register(POISON_TEXT, name="q", qid="bad")
        oracle.register(healthy_text, name="q", qid="good")
        drive(
            oracle,
            feed(),
            batch_size=BATCH,
            commit_interval=COMMIT_INTERVAL,
        )
        assert_engines_identical(resumed, oracle)
        for qid in ("bad", "good"):
            assert resumed.lookup(qid).breaker.checkpoint() == (
                oracle.lookup(qid).breaker.checkpoint()
            ), f"{qid} breaker diverged after crash+resume"
        assert resumed.lookup("bad").breaker.state == "open"
        assert resumed.dead_letters.checkpoint() == (
            oracle.dead_letters.checkpoint()
        )
