"""Trace persistence: save / load / iter round trips.

Corruption is surfaced as :class:`TraceCorruptError` carrying the byte
offset (and, past the header, the record index) of the damage, so the
resilient tail source can resync on the fixed-width framing.
"""

import io
import tracemalloc
from itertools import islice

import pytest

from repro.errors import StreamError, TraceCorruptError
from repro.streams.persistence import (
    iter_trace,
    load_trace,
    read_header,
    save_trace,
)
from repro.streams.records import Record
from repro.streams.schema import Attribute, Ordering, StreamSchema
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed

from tests._calls import python_calls

#: int, float and bool columns: 32-byte rows, 80-byte header
MIXED = StreamSchema(
    "M",
    [
        Attribute("t", "uint", Ordering.INCREASING),
        Attribute("x", "float"),
        Attribute("ok", "bool"),
        Attribute("n", "int"),
    ],
)


def mixed(count):
    return [Record(MIXED, (i, i / 4, i % 3 == 0, -i)) for i in range(count)]


def steady(count, seed=20050614):
    config = TraceConfig(duration_seconds=100_000, rate_scale=0.1, seed=seed)
    return list(islice(data_center_feed(config), count))


@pytest.fixture
def small_feed():
    config = TraceConfig(duration_seconds=5, rate_scale=0.005, seed=8)
    return list(research_center_feed(config))


class TestRoundTrip:
    def test_in_memory(self, small_feed):
        buffer = io.BytesIO()
        count = save_trace(small_feed, buffer)
        assert count == len(small_feed)
        buffer.seek(0)
        assert load_trace(buffer) == small_feed

    def test_on_disk(self, small_feed, tmp_path):
        path = str(tmp_path / "trace.bin")
        save_trace(small_feed, path)
        assert load_trace(path) == small_feed

    def test_iter_trace_streams(self, small_feed, tmp_path):
        path = str(tmp_path / "trace.bin")
        save_trace(small_feed, path)
        assert list(iter_trace(path)) == small_feed

    def test_schema_reconstructed(self, small_feed):
        buffer = io.BytesIO()
        save_trace(small_feed, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        schema = loaded[0].schema
        assert schema.name == "TCP"
        assert schema.attribute("time").ordering is Ordering.INCREASING
        assert schema.attribute("uts").ordering is Ordering.NONE

    def test_float_attributes(self):
        schema = StreamSchema("F", [Attribute("t", "int"), Attribute("x", "float")])
        records = [Record(schema, (i, i * 0.5)) for i in range(10)]
        buffer = io.BytesIO()
        save_trace(records, buffer)
        buffer.seek(0)
        assert load_trace(buffer) == records

    def test_int_float_and_bool_columns(self, tmp_path):
        records = mixed(5000)
        path = str(tmp_path / "mixed.trc")
        assert save_trace(records, path) == 5000
        loaded = load_trace(path)
        assert loaded == records == list(iter_trace(path))
        assert [type(v) for v in loaded[3].values] == [int, float, bool, int]
        assert loaded[3].values == (3, 0.75, True, -3)

    def test_coerces_what_int_and_float_accept(self):
        records = [Record(MIXED, (3.0, 2, 1, "-4")), Record(MIXED, ("12", "1.5", False, True))]
        buffer = io.BytesIO()
        save_trace(records, buffer)
        buffer.seek(0)
        assert [r.values for r in load_trace(buffer)] == [(3, 2.0, True, -4), (12, 1.5, False, 1)]

    def test_loaded_trace_runs_through_dsms(self, small_feed, tmp_path, gigascope):
        path = str(tmp_path / "trace.bin")
        save_trace(small_feed, path)
        # The loaded schema is equal to (but not identical with) TCP_SCHEMA;
        # run via a fresh instance registered with the loaded schema.
        from repro.dsms.runtime import Gigascope

        loaded = load_trace(path)
        gs = Gigascope()
        gs.register_stream(loaded[0].schema)
        handle = gs.add_query("SELECT len FROM TCP WHERE len > 1000")
        gs.run(iter(loaded))
        expected = sum(1 for r in small_feed if r["len"] > 1000)
        assert len(handle.results) == expected


class TestErrors:
    def test_empty_trace_rejected(self):
        with pytest.raises(StreamError, match="empty"):
            save_trace([], io.BytesIO())

    def test_mixed_schemas_rejected(self, small_feed):
        other_schema = StreamSchema("X", [Attribute("a")])
        mixed = [small_feed[0], Record(other_schema, (1,))]
        with pytest.raises(StreamError, match="one schema"):
            save_trace(mixed, io.BytesIO())

    def test_string_attributes_rejected(self):
        schema = StreamSchema("S", [Attribute("name", "str")])
        with pytest.raises(StreamError, match="non-numeric"):
            save_trace([Record(schema, ("x",))], io.BytesIO())

    def test_bad_magic_rejected(self):
        with pytest.raises(StreamError, match="magic"):
            load_trace(io.BytesIO(b"NOTATRACEFILE___" * 4))

    def test_truncated_header_rejected(self):
        with pytest.raises(StreamError, match="truncated"):
            load_trace(io.BytesIO(b"RP"))

    def test_truncated_record_rejected(self, small_feed):
        buffer = io.BytesIO()
        save_trace(small_feed, buffer)
        data = buffer.getvalue()[:-3]  # chop mid-record
        with pytest.raises(StreamError, match="partial record"):
            load_trace(io.BytesIO(data))


class TestCorruptionDiagnostics:
    """The typed error pinpoints the damage for framing resync."""

    def test_bad_magic_is_a_trace_corrupt_error_at_offset_zero(self):
        with pytest.raises(TraceCorruptError) as excinfo:
            load_trace(io.BytesIO(b"NOTATRACEFILE___" * 4))
        assert excinfo.value.offset == 0
        assert "offset 0" in str(excinfo.value)

    def test_partial_record_reports_offset_and_index(self, small_feed):
        buffer = io.BytesIO()
        save_trace(small_feed, buffer)
        data = buffer.getvalue()[:-3]
        with pytest.raises(TraceCorruptError) as excinfo:
            load_trace(io.BytesIO(data))
        err = excinfo.value
        assert err.record_index == len(small_feed) - 1
        # The reported offset is exactly where the torn record starts,
        # computable from the header geometry — that is what lets the
        # tail source seek straight to it.
        fh = io.BytesIO(data)
        schema, body_offset = read_header(fh)
        row_size = 8 * len(schema.attributes)
        assert err.offset == body_offset + err.record_index * row_size
        assert f"record index {err.record_index}" in str(err)

    @pytest.mark.parametrize(
        "whole, extra, offset",
        [
            (2048, 5, 65_616),  # the torn row starts a read chunk (1 024 rows)
            (3000, 17, 96_080),  # ... and sits in the middle of one
            (0, 1, 80),
        ],
    )
    def test_torn_tail_past_a_read_chunk(self, whole, extra, offset):
        data = io.BytesIO()
        save_trace(mixed(5000), data)
        cut = data.getvalue()[: 80 + whole * 32 + extra]
        message = (
            f"truncated trace file: partial record ({extra} of 32 bytes)"
            f" (byte offset {offset}, record index {whole})"
        )
        with pytest.raises(TraceCorruptError) as loaded:
            load_trace(io.BytesIO(cut))
        read = []
        with pytest.raises(TraceCorruptError) as iterated:
            read.extend(iter_trace(io.BytesIO(cut)))
        assert read == mixed(whole)
        for err in (loaded.value, iterated.value):
            assert (str(err), err.offset, err.record_index) == (message, offset, whole)

    def test_trace_corrupt_error_is_a_stream_error(self):
        assert issubclass(TraceCorruptError, StreamError)


class TestCost:
    """The codec's cost per record.  Calls repeat exactly for a trace:
    with a Python-level pack or unpack per attribute a record cost 20
    calls to save and 28 to load; with one per row about 1 and 2."""

    def test_save_calls_per_record(self):
        records = steady(20_000)
        calls = python_calls(lambda: save_trace(records, io.BytesIO()))
        assert calls / len(records) <= 4

    def test_load_calls_per_record(self):
        buffer = io.BytesIO()
        save_trace(steady(20_000), buffer)
        buffer.seek(0)
        calls = python_calls(lambda: load_trace(buffer))
        assert calls / 20_000 <= 3

    def test_save_streams_the_body(self, tmp_path):
        # A trace buffered whole before its first write peaked at 13.3 MiB.
        records = steady(200_000, seed=7)
        tracemalloc.start()
        try:
            save_trace(records, str(tmp_path / "big.trc"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
