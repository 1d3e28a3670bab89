"""Lightweight stream records.

A :class:`Record` is a tuple of values bound to a :class:`StreamSchema`.
Records are immutable and hashable so they can serve directly as group keys
and live inside sets during tests.  Field access is by name (``rec["len"]``)
or by position, never by attribute: a ``__getattr__`` hook would slow every ``.values`` load.

The implementation intentionally avoids per-record dicts: values live in a
plain tuple and name lookup goes through the schema's precomputed index.
``Record(...)`` validates the value count against the schema; a generated
query node (``repro.dsms.node``) checks its SELECT list's arity once, when
it is written, and builds each output row through the slots instead.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import SchemaError
from repro.streams.schema import StreamSchema


class Record:
    """One stream tuple: a value vector bound to a schema."""

    __slots__ = ("schema", "values")

    def __init__(self, schema: StreamSchema, values: Sequence[Any]) -> None:
        values = tuple(values)
        if len(values) != len(schema):
            raise SchemaError(
                f"record for schema {schema.name!r} needs {len(schema)} values,"
                f" got {len(values)}"
            )
        self.schema = schema
        self.values = values

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_mapping(cls, schema: StreamSchema, mapping: Mapping[str, Any]) -> "Record":
        """Build a record from a name->value mapping.

        Missing attributes default to ``0`` for numeric types and ``""`` for
        strings; unknown keys raise :class:`SchemaError`.  Key columns —
        the schema's *ordered* attributes, which become window ids and
        group keys — reject ``None`` and ``NaN`` here with a clear
        diagnostic: letting them through produces incomparable groups
        that fail silently, deep inside the sampling operator.
        """
        unknown = set(mapping) - set(schema.names)
        if unknown:
            raise SchemaError(
                f"unknown attributes for schema {schema.name!r}: {sorted(unknown)}"
            )
        defaults = {"int": 0, "uint": 0, "float": 0.0, "bool": False, "str": ""}
        values = []
        for attr in schema:
            if attr.name in mapping:
                value = mapping[attr.name]
            else:
                try:
                    value = defaults[attr.type_tag]
                except KeyError:
                    # A tag outside the defaults table (a schema built
                    # around validation, or a future type) must name the
                    # attribute, not surface as a bare KeyError.
                    raise SchemaError(
                        f"attribute {attr.name!r} of schema {schema.name!r}"
                        f" has type {attr.type_tag!r}, which has no default"
                        " value; supply it explicitly"
                    ) from None
            if attr.ordering.is_ordered:
                if value is None:
                    raise SchemaError(
                        f"key column {attr.name!r} of schema {schema.name!r}"
                        " is None; ordered attributes become window ids and"
                        " must be concrete"
                    )
                if isinstance(value, float) and value != value:
                    raise SchemaError(
                        f"key column {attr.name!r} of schema {schema.name!r}"
                        " is NaN; NaN window ids are incomparable and would"
                        " poison group keys"
                    )
            values.append(value)
        return cls(schema, values)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, str):
            return self.values[self.schema.index_of(key)]
        return self.values[key]

    def get(self, name: str, default: Any = None) -> Any:
        if name in self.schema:
            return self.values[self.schema.index_of(name)]
        return default

    def as_dict(self) -> Dict[str, Any]:
        """Materialise a name->value dict (test/debug convenience)."""
        return dict(zip(self.schema.names, self.values))

    def replace(self, **updates: Any) -> "Record":
        """Return a copy with the named fields updated."""
        unknown = set(updates) - set(self.schema.names)
        if unknown:
            raise SchemaError(
                f"unknown attributes for schema {self.schema.name!r}: {sorted(unknown)}"
            )
        new_values = list(self.values)
        for name, value in updates.items():
            new_values[self.schema.index_of(name)] = value
        return Record(self.schema, new_values)

    # -- protocol -------------------------------------------------------------

    def __reduce__(self) -> Tuple[Any, ...]:
        # Rebuild through the constructor, which checks the arity; default
        # slot state pickles larger.  A ``runtime.StreamRun`` ships values.
        return (Record, (self.schema, self.values))

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.schema == other.schema and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.schema.name, self.values))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.schema.names, self.values))
        return f"Record<{self.schema.name}>({fields})"


def records_of(schema: StreamSchema, rows: Iterable[Tuple[Any, ...]]) -> List[Record]:
    """Records of ``schema`` built through the slots, unchecked: ``rows`` were its records."""
    new, out = object.__new__, []
    for values in rows:
        record = new(Record)
        record.schema, record.values = schema, values
        out.append(record)
    return out
