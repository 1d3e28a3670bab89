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

from typing import Any, Dict, Iterator, Optional, Sequence

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


#: Python type -> numpy dtype that holds its values exactly (int64
#: overflow aside), for columns whose declared type is not to be trusted
_EXACT_DTYPES: Dict[type, Any] = {int: np.int64, float: np.float64, bool: np.bool_}


class RecordBatch:
    """A fixed-length run of tuples stored column-wise.

    Built either from materialized column arrays (operator outputs) or
    from a run of records (the ingest edge, a per-tuple parent), in
    which case columns are converted on first access.  Either way it is
    a *run* (DESIGN.md §2): it has a length and iterates over its rows
    as :class:`Record`\\ s, built on first use and kept.
    """

    __slots__ = ("schema", "length", "typed", "_columns", "_records")

    def __init__(
        self,
        schema: StreamSchema,
        columns: Optional[Dict[str, Any]] = None,
        length: Optional[int] = None,
        records: Optional[Sequence[Record]] = None,
        typed: bool = True,
    ) -> None:
        self.schema = schema
        self.typed = typed
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
    def from_records(
        cls, schema: StreamSchema, records: Sequence[Record], typed: bool = True
    ) -> "RecordBatch":
        """Wrap a record run; columns convert lazily on first access, to
        the dtype ``schema`` declares or — not ``typed`` — the one the
        values call for.  A source stream's declaration is trusted; a
        query's output schema says ``int`` whatever its rows carry."""
        return cls(schema, records=records, typed=typed)

    @classmethod
    def empty(cls, schema: StreamSchema) -> "RecordBatch":
        return cls(schema, columns={}, length=0)

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Record]:
        return iter(self.to_records())

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
        index = self.schema.index_of(name)
        values = [record.values[index] for record in self._records]
        if self.typed:
            dtype = DTYPES.get(self.schema.attribute(name).type_tag, object)
        else:
            # Strict ``type(v) is``: bool subclasses int, and a float in
            # an int64 array is truncated without a word.
            kind = type(values[0]) if values else None
            uniform = list(map(type, values)).count(kind) == len(values)
            dtype = _EXACT_DTYPES.get(kind, object) if uniform else object
        try:
            col = np.asarray(values, dtype=dtype)
        except (TypeError, ValueError, OverflowError):
            # Heterogeneous or out-of-range values (a None in an unordered
            # column, an int overflowing int64): keep Python objects so
            # per-element semantics match the tuple path exactly.
            col = np.asarray(values, dtype=object)
        # A record-backed batch may be shared by every low-level query of
        # its stream: a write must raise, not reach them.
        col.setflags(write=False)
        self._columns[name] = col
        return col

    def materialized(self) -> Dict[str, Any]:
        """All columns as arrays (converts any still-lazy ones)."""
        for attr in self.schema:
            self.column(attr.name)
        return self._columns

    # -- output edge --------------------------------------------------------

    def to_records(self) -> Sequence[Record]:
        """The rows as records (the output-edge converter), built once.

        A batch still backed by its original record run returns that
        run unchanged — the ingest-to-ingest passthrough is free.
        ``tolist()`` is used per column so emitted values are plain
        Python scalars, byte-identical to the tuple path's output.
        """
        if self._records is None:
            lists = []
            for attr in self.schema if self.length else ():
                col = self.column(attr.name)
                lists.append(col.tolist() if isinstance(col, np.ndarray) else list(col))
            self._records = [Record(self.schema, row) for row in zip(*lists)]
        return self._records

    def take(self, mask: Any) -> "RecordBatch":
        """Rows selected by a boolean mask, as a new batch.

        Only materializes columns that are already converted; lazy
        columns stay lazy by filtering the record backing as well.
        """
        if self._records is not None:
            picked = [r for r, keep in zip(self._records, mask) if keep]
            columns = {name: col[mask] for name, col in self._columns.items()}
            return RecordBatch(self.schema, columns=columns, records=picked,
                              length=len(picked), typed=self.typed)
        columns = {name: col[mask] for name, col in self._columns.items()}
        return RecordBatch(self.schema, columns=columns,
                           length=int(np.count_nonzero(mask)))
