"""Trace persistence: save and replay packet traces.

Experiments become comparable across machines and sessions when the
exact trace is an artifact rather than a (seed, generator-version) pair.
The format is a compact struct-packed binary:

* header: magic, version, schema name, attribute count, attribute specs
  (name, type tag, ordering);
* body: one fixed-width little-endian record per tuple (int/uint/bool as
  8-byte signed, float as 8-byte double; ``str`` attributes are not
  supported — packet schemas are numeric).

``save_trace`` / ``load_trace`` round-trip any records over one numeric
schema; the header makes a trace file self-describing.  A row is one
``struct`` pack or unpack, and the body is streamed: written and read in
chunks of whole rows, never held whole, in the format above unchanged.

Decoding failures raise :class:`repro.errors.TraceCorruptError` carrying
the byte offset and record index of the damage — never a bare
``struct.error`` or ``UnicodeDecodeError`` — so ingest-edge code (the
resilient tail source in :mod:`repro.streams.sources`) can resync on the
fixed-width record framing instead of aborting the run.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, List, Tuple, Union

from repro.errors import StreamError, TraceCorruptError
from repro.streams.records import Record
from repro.streams.schema import Attribute, Ordering, StreamSchema

_MAGIC = b"RPTRACE1"
_HEADER = struct.Struct("<8sH")  # magic, attribute count
_NAME = struct.Struct("<H")  # length-prefixed utf-8 strings
#: body rows a reader or writer holds at once
_ROWS = 1024
_new = object.__new__

_NUMERIC_TAGS = {"int", "uint", "bool", "float"}


def _write_string(fh: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    fh.write(_NAME.pack(len(data)))
    fh.write(data)


def _read_string(fh: BinaryIO, what: str) -> str:
    offset = fh.tell()
    prefix = fh.read(_NAME.size)
    if len(prefix) < _NAME.size:
        raise TraceCorruptError(
            f"truncated trace file: incomplete {what} length", offset=offset
        )
    (length,) = _NAME.unpack(prefix)
    data = fh.read(length)
    if len(data) < length:
        raise TraceCorruptError(
            f"truncated trace file: incomplete {what}", offset=offset
        )
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceCorruptError(
            f"garbled trace file: {what} is not valid UTF-8 ({exc.reason})",
            offset=offset,
        ) from None


def _row_layout(schema: StreamSchema) -> Tuple[struct.Struct, Tuple[int, ...]]:
    """A body row — ``d`` per float attribute, ``q`` per other — and where its bools sit."""
    tags = [a.type_tag for a in schema]
    codes = "".join("d" if tag == "float" else "q" for tag in tags)
    return struct.Struct("<" + codes), tuple(i for i, tag in enumerate(tags) if tag == "bool")


def save_trace(records: Iterable[Record], target: Union[str, BinaryIO]) -> int:
    """Write records to ``target`` (path or binary file); returns count.

    All records must share one schema with numeric attributes only.  Rows
    are packed into a bounded chunk, written each time it fills.
    """
    own = isinstance(target, str)
    fh: BinaryIO = open(target, "wb") if own else target  # type: ignore[assignment]
    try:
        records = iter(records)
        first = next(records, None)
        if first is None:
            raise StreamError("cannot persist an empty trace")
        schema = first.schema
        for attr in schema:
            if attr.type_tag not in _NUMERIC_TAGS:
                raise StreamError(
                    f"cannot persist non-numeric attribute {attr.name!r} ({attr.type_tag})"
                )
        fh.write(_HEADER.pack(_MAGIC, len(schema)))
        _write_string(fh, schema.name)
        for attr in schema:
            _write_string(fh, attr.name)
            _write_string(fh, attr.type_tag)
            _write_string(fh, attr.ordering.value)
        row, _ = _row_layout(schema)
        coerce = [float if a.type_tag == "float" else int for a in schema]
        chunk = bytearray(_ROWS * row.size)
        for count, record in enumerate(chain((first,), records), 1):
            if record.schema is not schema and record.schema != schema:
                raise StreamError("all records in a trace must share one schema")
            at = (count - 1) % _ROWS * row.size
            try:
                row.pack_into(chunk, at, *record.values)
            except struct.error:  # a value int() or float() accepts, e.g. 3.0 or "7"
                row.pack_into(chunk, at, *[c(v) for c, v in zip(coerce, record.values)])
            if count % _ROWS == 0:
                fh.write(chunk)
        fh.write(chunk[: count % _ROWS * row.size])
        return count
    finally:
        if own:
            fh.close()


def _read_schema(fh: BinaryIO) -> StreamSchema:
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise TraceCorruptError("truncated trace file: missing header", offset=0)
    magic, attr_count = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise TraceCorruptError("not a repro trace file (bad magic)", offset=0)
    schema_name = _read_string(fh, "schema name")
    attributes = []
    for _ in range(attr_count):
        name = _read_string(fh, "attribute name")
        type_tag = _read_string(fh, "attribute type tag")
        ordering_offset = fh.tell()
        ordering_text = _read_string(fh, "attribute ordering")
        try:
            ordering = Ordering(ordering_text)
        except ValueError:
            raise TraceCorruptError(
                f"garbled trace file: unknown ordering {ordering_text!r}",
                offset=ordering_offset,
            ) from None
        try:
            attributes.append(Attribute(name, type_tag, ordering))
        except Exception as exc:
            raise TraceCorruptError(
                f"garbled trace file: invalid attribute spec ({exc})",
                offset=ordering_offset,
            ) from None
    try:
        return StreamSchema(schema_name, attributes)
    except Exception as exc:
        raise TraceCorruptError(
            f"garbled trace file: invalid schema ({exc})", offset=fh.tell()
        ) from None


def read_header(fh: BinaryIO) -> Tuple[StreamSchema, int]:
    """Decode the header; returns ``(schema, body_offset)``.

    ``body_offset`` is the byte offset of the first record, which —
    combined with the fixed ``8 * len(schema)`` row width — lets a tail
    reader compute the framing offset of any record without rescanning.
    """
    schema = _read_schema(fh)
    return schema, fh.tell()


def row_decoder(schema: StreamSchema) -> Callable[[bytes], Record]:
    """Decode one fixed-width body row (``8 * len(schema)`` bytes): one unpack."""
    row_struct, bools = _row_layout(schema)

    def decode_row(row: bytes) -> Record:
        values = row_struct.unpack(row)
        if bools:
            values = tuple(bool(v) if i in bools else v for i, v in enumerate(values))
        record = _new(Record)
        record.schema, record.values = schema, values
        return record

    return decode_row


def _iter_rows(fh: BinaryIO, schema: StreamSchema) -> Iterator[Record]:
    """The body's records, read a chunk of whole rows at a time."""
    row, bools = _row_layout(schema)
    size, offset, index = row.size, fh.tell(), 0
    for data in iter(partial(fh.read, _ROWS * size), b""):
        whole = len(data) - len(data) % size
        for values in row.iter_unpack(memoryview(data)[:whole]):
            if bools:
                values = tuple(bool(v) if i in bools else v for i, v in enumerate(values))
            record = _new(Record)
            record.schema, record.values = schema, values
            yield record
        index += whole // size
        if whole < len(data):
            raise TraceCorruptError(
                f"truncated trace file: partial record ({len(data) - whole} of {size} bytes)",
                offset=offset + index * size,
                record_index=index,
            )


def load_trace(source: Union[str, BinaryIO]) -> List[Record]:
    """Read a whole trace written by :func:`save_trace`."""
    own = isinstance(source, str)
    fh: BinaryIO = open(source, "rb") if own else source  # type: ignore[assignment]
    try:
        schema = _read_schema(fh)
        return list(_iter_rows(fh, schema))
    finally:
        if own:
            fh.close()


def iter_trace(source: Union[str, BinaryIO]) -> Iterator[Record]:
    """Streaming variant of :func:`load_trace` (constant memory).

    With a path argument the file stays open until the iterator is
    exhausted or garbage-collected.
    """
    own = isinstance(source, str)
    fh: BinaryIO = open(source, "rb") if own else source  # type: ignore[assignment]
    try:
        schema = _read_schema(fh)
        yield from _iter_rows(fh, schema)
    finally:
        if own:
            fh.close()
