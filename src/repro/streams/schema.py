"""Stream schemas with ordered-attribute markers.

Gigascope determines query evaluation windows by analyzing how queries
reference *ordered* attributes of the input stream (paper §3).  A schema
here is a named, ordered list of attributes; each attribute has a type tag
and an optional ordering property (``increasing`` / ``decreasing``).

The two schemas the paper queries against are provided as module constants:

* ``PKT_SCHEMA`` — ``PKT(time increasing, srcIP, destIP, len)``
* ``TCP_SCHEMA`` — the same shape under the name ``TCP`` (the §6.6 example
  queries read ``FROM TCP``), with an extra nanosecond ``uts`` timestamp
  used by the subset-sum query to make every packet its own group.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import SchemaError


class Ordering(enum.Enum):
    """Ordering property of a stream attribute."""

    NONE = "none"
    INCREASING = "increasing"
    DECREASING = "decreasing"

    @property
    def is_ordered(self) -> bool:
        return self is not Ordering.NONE


#: Type tags understood by the expression engine.  We deliberately keep the
#: type system small: the paper's queries only use integer-like columns
#: (timestamps, IP addresses as 32-bit ints, packet lengths) and floats
#: appear only as intermediate expression values.
VALID_TYPES = ("int", "uint", "float", "str", "bool")


@dataclass(frozen=True)
class Attribute:
    """A single stream attribute.

    Parameters
    ----------
    name:
        Column name, referenced by queries.
    type_tag:
        One of :data:`VALID_TYPES`.
    ordering:
        Whether the attribute is monotone over the stream.  Ordered
        attributes are the ones on which window boundaries may be defined.
    """

    name: str
    type_tag: str = "int"
    ordering: Ordering = Ordering.NONE

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid attribute name: {self.name!r}")
        if self.type_tag not in VALID_TYPES:
            raise SchemaError(
                f"attribute {self.name!r} has unknown type {self.type_tag!r};"
                f" expected one of {VALID_TYPES}"
            )


class StreamSchema:
    """A named, ordered collection of attributes describing one stream."""

    def __init__(self, name: str, attributes: Iterable[Attribute]) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid schema name: {name!r}")
        attrs: Tuple[Attribute, ...] = tuple(attributes)
        if not attrs:
            raise SchemaError(f"schema {name!r} must have at least one attribute")
        seen: Dict[str, Attribute] = {}
        for attr in attrs:
            if attr.name in seen:
                raise SchemaError(f"duplicate attribute {attr.name!r} in schema {name!r}")
            seen[attr.name] = attr
        self.name = name
        self.attributes = attrs
        self._by_name = seen
        self._index = {attr.name: i for i, attr in enumerate(attrs)}

    # -- lookups -----------------------------------------------------------

    def __contains__(self, attr_name: str) -> bool:
        return attr_name in self._by_name

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name`` or raise :class:`SchemaError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no attribute {name!r};"
                f" known: {[a.name for a in self.attributes]}"
            ) from None

    def index_of(self, name: str) -> int:
        """Positional index of attribute ``name`` within the schema."""
        try:
            return self._index[name]
        except KeyError:
            self.attribute(name)  # raises the SchemaError naming what is known
            raise

    def ordered_attributes(self) -> Tuple[Attribute, ...]:
        """All attributes marked increasing or decreasing."""
        return tuple(a for a in self.attributes if a.ordering.is_ordered)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{a.name} {a.ordering.value}" if a.ordering.is_ordered else a.name
            for a in self.attributes
        )
        return f"{self.name}({cols})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamSchema):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))


# ---------------------------------------------------------------------------
# Admission-time validation / coercion
# ---------------------------------------------------------------------------
#
# The paper's operator ran against live NIC taps where malformed input is
# the normal case.  These helpers give the ingest edge one place to decide
# whether a raw value is (a) valid, (b) coercible to the attribute's type,
# or (c) quarantine-worthy — instead of letting a NaN timestamp surface
# later as an incomparable window id deep inside the sampling operator.

_INTEGRAL_TAGS = ("int", "uint")


def _is_nan(value: object) -> bool:
    return isinstance(value, float) and value != value


_FAST_CLEAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _fast_clean_check(schema: "StreamSchema"):
    """A compiled predicate: are these values already exactly valid?

    Admission validation runs per record on the ingest hot path, and in
    the overwhelmingly common case the record is clean and needs no
    coercion.  This compiles the whole "nothing to do" test into one
    short-circuiting expression, so :func:`coerce_record` pays a single
    call instead of per-attribute branching; any ``False`` falls
    through to the full diagnostic path.  The cache is a side table,
    not a schema attribute: schemas are pickled into checkpoints and
    across worker IPC, and a compiled lambda must never travel along.
    """
    cached = _FAST_CLEAN_CACHE.get(schema)
    if cached is not None:
        return cached
    parts = []
    for i, attr in enumerate(schema):
        v = f"v[{i}]"
        tag = attr.type_tag
        if tag == "uint":
            parts.append(f"type({v}) is int and {v} >= 0")
        elif tag == "int":
            parts.append(f"type({v}) is int")
        elif tag == "float":
            # coerce_value allows inf, and NaN only on unordered columns.
            if attr.ordering.is_ordered:
                parts.append(f"type({v}) is float and {v} == {v}")
            else:
                parts.append(f"type({v}) is float")
        elif tag == "bool":
            parts.append(f"type({v}) is bool")
        elif tag == "str":
            parts.append(f"type({v}) is str")
        else:  # unknown tag: force the slow path's diagnostic
            parts.append("False")
    check = eval("lambda v: " + " and ".join(parts))  # noqa: S307 - built from type tags only
    _FAST_CLEAN_CACHE[schema] = check
    return check


def coerce_value(attr: Attribute, value: object) -> object:
    """Validate ``value`` for ``attr``; returns the (possibly coerced) value.

    Raises :class:`SchemaError` with a diagnostic naming the attribute
    when the value is missing (``None``), non-finite where an orderable
    number is required, or not coercible to the attribute's type.
    Coercions performed: integral floats and numeric strings into
    ``int``/``uint``; ints and numeric strings into ``float``; 0/1 into
    ``bool``.  Ordered (key) attributes additionally reject ``NaN`` —
    a NaN window id is incomparable and silently poisons group keys.
    """
    if value is None:
        raise SchemaError(
            f"attribute {attr.name!r} is None; {attr.type_tag} columns"
            " need a concrete value"
        )
    tag = attr.type_tag
    if tag in _INTEGRAL_TAGS:
        if isinstance(value, bool):
            value = int(value)
        elif isinstance(value, float):
            if value != value or value in (float("inf"), float("-inf")):
                raise SchemaError(
                    f"attribute {attr.name!r} is non-finite ({value!r});"
                    f" cannot coerce to {tag}"
                )
            if not value.is_integer():
                raise SchemaError(
                    f"attribute {attr.name!r} has fractional value {value!r};"
                    f" cannot coerce to {tag}"
                )
            value = int(value)
        elif isinstance(value, str):
            try:
                value = int(value, 0)
            except ValueError:
                raise SchemaError(
                    f"attribute {attr.name!r} has non-numeric text {value!r};"
                    f" cannot coerce to {tag}"
                ) from None
        elif not isinstance(value, int):
            raise SchemaError(
                f"attribute {attr.name!r} has type {type(value).__name__};"
                f" expected {tag}"
            )
        if tag == "uint" and value < 0:
            raise SchemaError(
                f"attribute {attr.name!r} is negative ({value}); uint"
                " columns must be >= 0"
            )
        return value
    if tag == "float":
        if isinstance(value, bool):
            raise SchemaError(
                f"attribute {attr.name!r} is a bool; expected float"
            )
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise SchemaError(
                    f"attribute {attr.name!r} has non-numeric text {value!r};"
                    " cannot coerce to float"
                ) from None
        elif isinstance(value, int):
            value = float(value)
        elif not isinstance(value, float):
            raise SchemaError(
                f"attribute {attr.name!r} has type {type(value).__name__};"
                " expected float"
            )
        if _is_nan(value) and attr.ordering.is_ordered:
            raise SchemaError(
                f"ordered attribute {attr.name!r} is NaN; NaN window ids"
                " are incomparable and would poison group keys"
            )
        return value
    if tag == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise SchemaError(
            f"attribute {attr.name!r} has value {value!r}; expected bool"
        )
    if tag == "str":
        if isinstance(value, str):
            return value
        raise SchemaError(
            f"attribute {attr.name!r} has type {type(value).__name__};"
            " expected str"
        )
    raise SchemaError(f"attribute {attr.name!r} has unknown type {tag!r}")


def coerce_record(schema: StreamSchema, payload: object) -> "object":
    """Validate/coerce one raw payload into a :class:`Record` of ``schema``.

    Accepts a ``Record`` (revalidated in place, returned unchanged when
    already clean), a mapping, or a value sequence.  Raises
    :class:`SchemaError` with a per-attribute diagnostic on uncoercible
    input — callers at the ingest edge catch it and route the payload to
    the dead-letter quarantine instead of aborting the query.
    """
    from repro.streams.records import Record

    if isinstance(payload, Record):
        if payload.schema is not schema and payload.schema != schema:
            raise SchemaError(
                f"record is for schema {payload.schema.name!r}, expected"
                f" {schema.name!r}"
            )
        values = payload.values
        if _fast_clean_check(schema)(values):
            return payload
        coerced = tuple(
            coerce_value(attr, value) for attr, value in zip(schema, values)
        )
        if coerced == values:
            return payload
        return Record(schema, coerced)
    if isinstance(payload, dict):
        unknown = set(payload) - set(schema.names)
        if unknown:
            raise SchemaError(
                f"unknown attributes for schema {schema.name!r}:"
                f" {sorted(unknown)}"
            )
        missing = [a.name for a in schema if a.name not in payload]
        if missing:
            raise SchemaError(
                f"missing attributes for schema {schema.name!r}: {missing}"
            )
        return Record(
            schema,
            [coerce_value(attr, payload[attr.name]) for attr in schema],
        )
    if isinstance(payload, (list, tuple)):
        if len(payload) != len(schema):
            raise SchemaError(
                f"record for schema {schema.name!r} needs {len(schema)}"
                f" values, got {len(payload)}"
            )
        return Record(
            schema,
            [coerce_value(attr, value) for attr, value in zip(schema, payload)],
        )
    raise SchemaError(
        f"cannot build a {schema.name!r} record from"
        f" {type(payload).__name__}"
    )


def _packet_attributes(with_uts: bool) -> Tuple[Attribute, ...]:
    attrs = [
        Attribute("time", "uint", Ordering.INCREASING),
        Attribute("srcIP", "uint"),
        Attribute("destIP", "uint"),
        Attribute("len", "uint"),
        Attribute("srcPort", "uint"),
        Attribute("destPort", "uint"),
        Attribute("protocol", "uint"),
    ]
    if with_uts:
        # Nanosecond-granularity timestamp "with its timestamp-ness cast
        # away" (paper §6.1): it is unique per packet but NOT marked ordered,
        # so grouping on it makes each tuple its own group without creating
        # a window boundary per packet.
        attrs.insert(1, Attribute("uts", "uint"))
    return tuple(attrs)


#: ``PKT(time increasing, srcIP, destIP, len, ...)`` from paper §3.
PKT_SCHEMA = StreamSchema("PKT", _packet_attributes(with_uts=False))

#: ``TCP`` stream used by the §6.6 example queries; includes ``uts``.
TCP_SCHEMA = StreamSchema("TCP", _packet_attributes(with_uts=True))
