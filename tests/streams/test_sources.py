"""Hardened ingest edge: ResilientSource, quarantine, trace tailing.

The contracts under test (docs/RESILIENCE.md, "Ingest hardening"):

* a transient read failure reconnects and resumes at the exact record
  position — the delivered stream is identical to an unfaulted read;
* the retry budget is finite: persistent failure surfaces as a typed
  :class:`SourceError` carrying the attempt count, never a hang;
* a stalled source trips the read-timeout watchdog and reconnects;
* malformed records are diverted to the bounded dead-letter quarantine
  (with reasons) instead of raising mid-stream;
* a torn trace tail (truncated mid-record) yields every whole record
  and quarantines the partial one.
"""

import math

import pytest

from repro.errors import SourceError, StreamError
from repro.streams.persistence import save_trace
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA, Attribute, Ordering, StreamSchema
from repro.streams.sources import (
    EAGER_RETRY,
    QuarantineStream,
    ResilientSource,
    RetryPolicy,
    TraceTailSource,
    replayable,
    resilient_trace_source,
)
from repro.streams.traces import TraceConfig, research_center_feed
from repro.testing.faults import FaultySource, SourceFault


def records(seconds=5, seed=3):
    config = TraceConfig(duration_seconds=seconds, rate_scale=0.01, seed=seed)
    return list(research_center_feed(config))


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5, jitter=0.0)

        class _NoJitter:
            def random(self):
                return 0.0

        rng = _NoJitter()
        delays = [policy.delay(n, rng) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_never_shrinks_the_delay(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=1.0, jitter=0.5)

        class _FullJitter:
            def random(self):
                return 1.0

        assert policy.delay(1, _FullJitter()) == pytest.approx(0.15)


class TestQuarantineStream:
    def test_bounded_with_eviction_accounting(self):
        q = QuarantineStream(capacity=3)
        for i in range(5):
            q.put("bad", {"i": i}, source="t", index=i)
        assert len(q) == 3
        assert q.total == 5
        assert q.evicted == 2
        assert [e.payload["i"] for e in q.entries] == [2, 3, 4]
        assert q.counts_by_reason() == {"bad": 5}

    def test_jsonl_export_round_trips_reasons(self, tmp_path):
        q = QuarantineStream()
        q.put("torn tail", b"\x00\x01", source="trace", index=7)
        path = tmp_path / "q.jsonl"
        assert q.write_jsonl(str(path)) == 1
        import json

        entry = json.loads(path.read_text().strip())
        assert entry["reason"] == "torn tail"
        assert entry["index"] == 7
        assert entry["payload"] == {"hex": "0001"}


class TestResilientSource:
    def test_clean_source_passes_through_untouched(self):
        recs = records()
        src = ResilientSource(replayable(recs), EAGER_RETRY, name="clean")
        assert list(src) == recs
        assert src.stats.reconnects == 0
        assert src.stats.records == len(recs)

    def test_transient_failure_reconnects_at_exact_position(self):
        recs = records()
        faulty = FaultySource(recs, [SourceFault("fail", 10)])
        src = ResilientSource(faulty, EAGER_RETRY, name="flaky")
        assert list(src) == recs
        assert src.stats.reconnects == 1
        assert src.stats.read_errors == 1

    def test_retry_budget_exhaustion_raises_typed_error(self):
        def always_broken(skip):
            raise IOError("disk on fire")
            yield  # pragma: no cover

        src = ResilientSource(
            always_broken,
            RetryPolicy(max_retries=3, backoff_base=0.0, backoff_cap=0.0, jitter=0.0),
            name="dead",
        )
        with pytest.raises(SourceError) as excinfo:
            list(src)
        assert excinfo.value.attempts == 3

    def test_stalled_source_trips_watchdog_and_recovers(self):
        recs = records()
        faulty = FaultySource(recs, [SourceFault("stall", 4, seconds=1.0)])
        policy = RetryPolicy(
            max_retries=3,
            backoff_base=0.0,
            backoff_cap=0.0,
            jitter=0.0,
            read_timeout=0.2,
        )
        src = ResilientSource(faulty, policy, name="slow")
        assert list(src) == recs
        assert src.stats.stalls >= 1

    def test_corrupt_record_is_quarantined_not_raised(self):
        recs = records()
        faulty = FaultySource(recs, [SourceFault("corrupt", 3)])
        q = QuarantineStream()
        src = ResilientSource(
            faulty, EAGER_RETRY, schema=recs[0].schema, quarantine=q, name="fz"
        )
        out = list(src)
        assert len(out) == len(recs) - 1
        assert q.total == 1
        assert "non-finite" in q.entries[0].reason
        assert src.stats.quarantined == 1

    def test_validation_without_quarantine_is_refused(self):
        with pytest.raises(StreamError):
            ResilientSource(replayable([]), EAGER_RETRY, schema=TCP_SCHEMA)

    def test_stream_damage_is_deterministic(self):
        recs = records()
        faults = [
            SourceFault("drop", 2),
            SourceFault("duplicate", 5),
            SourceFault("reorder", 8),
        ]
        first = list(FaultySource(recs, faults)(0))
        second = list(FaultySource(recs, faults)(0))
        assert first == second
        assert len(first) == len(recs)  # drop -1, duplicate +1
        assert recs[1] not in first


class TestTraceTailSource:
    def test_torn_tail_yields_whole_records_and_quarantines_partial(
        self, tmp_path
    ):
        recs = records()
        path = tmp_path / "trace.bin"
        save_trace(iter(recs), str(path))
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 5)
        q = QuarantineStream()
        out = list(TraceTailSource(str(path), quarantine=q))
        assert out == recs[:-1]
        assert q.total == 1
        assert "torn tail" in q.entries[0].reason

    def test_skip_seeks_past_delivered_records(self, tmp_path):
        recs = records()
        path = tmp_path / "trace.bin"
        save_trace(iter(recs), str(path))
        out = list(TraceTailSource(str(path), skip=10))
        assert out == recs[10:]

    def test_resilient_trace_source_round_trips(self, tmp_path):
        recs = records()
        path = tmp_path / "trace.bin"
        save_trace(iter(recs), str(path))
        q = QuarantineStream()
        src = resilient_trace_source(str(path), EAGER_RETRY, quarantine=q)
        assert list(src) == recs
        assert q.total == 0

    def test_resilient_trace_source_decodes_each_column_type(self, tmp_path):
        schema = StreamSchema(
            "M",
            [
                Attribute("t", "uint", Ordering.INCREASING),
                Attribute("x", "float"),
                Attribute("ok", "bool"),
                Attribute("n", "int"),
            ],
        )
        recs = [Record(schema, (i, i / 4, i % 3 == 0, -i)) for i in range(3000)]
        path = tmp_path / "mixed.bin"
        save_trace(recs, str(path))
        q = QuarantineStream()
        src = resilient_trace_source(str(path), EAGER_RETRY, quarantine=q, validate=True)
        out = list(src)
        assert out == recs
        assert [type(v) for v in out[3].values] == [int, float, bool, int]
        assert q.total == 0

    def test_resilient_validation_quarantines_nan(self, tmp_path):
        recs = records()
        path = tmp_path / "trace.bin"
        save_trace(iter(recs), str(path))
        q = QuarantineStream()
        src = resilient_trace_source(
            str(path), EAGER_RETRY, quarantine=q, validate=True
        )
        out = list(src)
        assert out == recs  # persisted records are already well-formed
        assert q.total == 0

    def test_nan_rejected_by_schema_coercion(self):
        q = QuarantineStream()
        bad = Record(
            TCP_SCHEMA,
            tuple(
                math.nan if name == "time" else value
                for name, value in zip(TCP_SCHEMA.names, records()[0].values)
            ),
        )
        src = ResilientSource(
            replayable([bad]),
            EAGER_RETRY,
            schema=TCP_SCHEMA,
            quarantine=q,
            name="nan",
        )
        assert list(src) == []
        assert q.total == 1
