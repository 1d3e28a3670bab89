"""Columnar record batches: one numpy array per column, bound to a schema.

A :class:`RecordBatch` is the unit of work of the vectorized engine
(DESIGN.md §11): the ingest edge converts a list of :class:`Record`\\ s
into one batch per source stream, operators transform whole batches with
numpy ufuncs, and records are only rebuilt at the output edges (retained
results, non-vectorized downstream operators).

Column conversion is *lazy*: a batch built from records converts a
column the first time an expression touches it, so a ``SELECT time, len
... WHERE len > 200`` over a nine-column stream pays for two column
conversions, not nine.  This is the in-memory analogue of the paper's
"data is fed to the low level queries from a ring buffer without
copying" (§3): the batch hand-off replaces the per-tuple copy the cost
model charges ~16k cycles for.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.streams.records import Record
from repro.streams.schema import StreamSchema

#: Schema type tag -> numpy dtype of the column array.  ``uint`` maps to
#: int64 (not uint64) so mixed signed/unsigned arithmetic — ``time - 60``
#: going negative, for instance — keeps Python's semantics instead of
#: wrapping around.
DTYPES: Dict[str, Any] = {
    "int": np.int64,
    "uint": np.int64,
    "float": np.float64,
    "bool": np.bool_,
    "str": object,
}


def column_dtype(type_tag: str) -> Any:
    return DTYPES.get(type_tag, object)


class RecordBatch:
    """A fixed-length run of tuples stored column-wise.

    Built either from materialized column arrays (operator outputs) or
    from a list of records (the ingest edge), in which case columns are
    converted on first access.
    """

    __slots__ = ("schema", "length", "_columns", "_records")

    def __init__(
        self,
        schema: StreamSchema,
        columns: Optional[Dict[str, Any]] = None,
        length: Optional[int] = None,
        records: Optional[List[Record]] = None,
    ) -> None:
        self.schema = schema
        self._columns: Dict[str, Any] = columns if columns is not None else {}
        self._records = records
        if length is not None:
            self.length = length
        elif records is not None:
            self.length = len(records)
        elif self._columns:
            self.length = len(next(iter(self._columns.values())))
        else:
            self.length = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_records(cls, schema: StreamSchema, records: List[Record]) -> "RecordBatch":
        """Wrap a record list; columns convert lazily on first access."""
        return cls(schema, records=records)

    @classmethod
    def empty(cls, schema: StreamSchema) -> "RecordBatch":
        return cls(schema, columns={}, length=0)

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def column(self, name: str) -> Any:
        """The column array for ``name``, converting from records if needed."""
        col = self._columns.get(name)
        if col is None:
            col = self._convert(name)
        return col

    def _convert(self, name: str) -> Any:
        if self._records is None:
            raise SchemaError(
                f"batch for schema {self.schema.name!r} has no column"
                f" {name!r} and no record backing to convert it from"
            )
        attr = self.schema.attribute(name)
        index = self.schema.index_of(name)
        dtype = column_dtype(attr.type_tag)
        values = [record.values[index] for record in self._records]
        try:
            col = np.asarray(values, dtype=dtype)
        except (TypeError, ValueError, OverflowError):
            # Heterogeneous or out-of-range values (a None in an unordered
            # column, an int overflowing int64): keep Python objects so
            # per-element semantics match the tuple path exactly.
            col = np.asarray(values, dtype=object)
        # A record-backed batch may be shared by every query that polled
        # the same span of the ring: a write must raise, not reach them.
        col.setflags(write=False)
        self._columns[name] = col
        return col

    def materialized(self) -> Dict[str, Any]:
        """All columns as arrays (converts any still-lazy ones)."""
        for attr in self.schema:
            self.column(attr.name)
        return self._columns

    # -- output edge --------------------------------------------------------

    def to_records(self) -> List[Record]:
        """Rebuild row-wise records (the output-edge converter).

        A batch still backed by its original record list returns that
        list unchanged — the ingest-to-ingest passthrough is free.
        ``tolist()`` is used per column so emitted values are plain
        Python scalars, byte-identical to the tuple path's output.
        """
        if self._records is not None:
            return self._records
        if self.length == 0:
            return []
        lists = []
        for attr in self.schema:
            col = self.column(attr.name)
            lists.append(col.tolist() if isinstance(col, np.ndarray) else list(col))
        return [Record(self.schema, row) for row in zip(*lists)]

    def take(self, mask: Any) -> "RecordBatch":
        """Rows selected by a boolean mask, as a new batch.

        Only materializes columns that are already converted; lazy
        columns stay lazy by filtering the record backing as well.
        """
        if self._records is not None:
            picked = [r for r, keep in zip(self._records, mask) if keep]
            columns = {name: col[mask] for name, col in self._columns.items()}
            return RecordBatch(self.schema, columns=columns, records=picked,
                              length=len(picked))
        columns = {name: col[mask] for name, col in self._columns.items()}
        return RecordBatch(self.schema, columns=columns,
                           length=int(np.count_nonzero(mask)))

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """Rows ``start:stop`` as a new batch (window segmentation)."""
        records = self._records[start:stop] if self._records is not None else None
        columns = {name: col[start:stop] for name, col in self._columns.items()}
        return RecordBatch(self.schema, columns=columns, records=records,
                           length=stop - start)


def concat_batches(schema: StreamSchema, batches: Sequence[RecordBatch]) -> RecordBatch:
    """Concatenate output batches (multi-window emissions in one feed)."""
    batches = [b for b in batches if len(b)]
    if not batches:
        return RecordBatch.empty(schema)
    if len(batches) == 1:
        return batches[0]
    columns = {}
    for attr in schema:
        parts = [np.asarray(b.column(attr.name)) for b in batches]
        columns[attr.name] = np.concatenate(parts)
    return RecordBatch(schema, columns=columns,
                       length=sum(len(b) for b in batches))
