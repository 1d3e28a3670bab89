"""User-defined aggregate function (UDAF) framework.

Gigascope's aggregation queries (and the sampling operator's per-group
aggregates) are built from UDAFs following the conventional three-phase
API: ``initialize`` a state, ``update`` it per tuple, and ``finalize`` it
into an output value.

The sampling operator additionally needs *reversible* aggregates: when a
cleaning phase evicts a group, its contribution must be subtracted from
any running superaggregate (paper §6.3: "When a new group is added or
deleted (as a result of the cleaning phase), we need to update the
supergroup aggregate by adding or subtracting the group aggregate value").
Aggregates that support this implement ``retract``.

Built-ins: sum, count, min, max, avg, count_distinct, first, last.
``min``/``max`` are not reversible (retraction of the extremum would need
the full multiset), which the superaggregate layer handles by recomputing
from surviving groups.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dsms.fields import set_fields, slot_fields
from repro.errors import RegistryError


class Aggregate:
    """One aggregate computation over a group's tuples.

    Instances are per-group; the class is the registered UDAF.  Subclasses
    override :meth:`update` and :meth:`value`, optionally :meth:`retract`
    and :meth:`merge` (merge enables partial aggregation at low-level
    query nodes).  One that declares ``__slots__`` sets every slot in
    ``__init__``: a checkpoint reads each by name.
    """

    # Per-group state lives in slots: see repro.dsms.fields.
    __slots__ = ()
    __setstate__ = set_fields

    #: Set by subclasses that implement retract().
    reversible: bool = False
    #: Set by subclasses that implement merge().
    mergeable: bool = False

    def update(self, value: Any) -> None:
        raise NotImplementedError

    def value(self) -> Any:
        raise NotImplementedError

    def retract(self, value: Any) -> None:
        raise NotImplementedError(f"{type(self).__name__} is not reversible")

    def merge(self, other: "Aggregate") -> None:
        raise NotImplementedError(f"{type(self).__name__} is not mergeable")


class SumAggregate(Aggregate):
    reversible = True
    mergeable = True
    #: update() and value() as a generated node writes them (repro.dsms.node)
    in_place = ("{0}._total += {1}", "_total")

    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total: Any = 0

    def update(self, value: Any) -> None:
        self._total += value

    def retract(self, value: Any) -> None:
        self._total -= value

    def merge(self, other: Aggregate) -> None:
        assert isinstance(other, SumAggregate)
        self._total += other._total

    def value(self) -> Any:
        return self._total


class CountAggregate(Aggregate):
    reversible = True
    mergeable = True
    in_place = ("{0}._count += 1", "_count")

    __slots__ = ("_count",)

    def __init__(self) -> None:
        self._count = 0

    def update(self, value: Any) -> None:
        self._count += 1

    def retract(self, value: Any) -> None:
        self._count -= 1

    def merge(self, other: Aggregate) -> None:
        assert isinstance(other, CountAggregate)
        self._count += other._count

    def value(self) -> int:
        return self._count


class MinAggregate(Aggregate):
    mergeable = True
    in_place = ("if {0}._min is None or {1} < {0}._min: {0}._min = {1}", "_min")

    __slots__ = ("_min",)

    def __init__(self) -> None:
        self._min: Optional[Any] = None

    def update(self, value: Any) -> None:
        if self._min is None or value < self._min:
            self._min = value

    def merge(self, other: Aggregate) -> None:
        assert isinstance(other, MinAggregate)
        if other._min is not None:
            self.update(other._min)

    def value(self) -> Any:
        return self._min


class MaxAggregate(Aggregate):
    mergeable = True
    in_place = ("if {0}._max is None or {1} > {0}._max: {0}._max = {1}", "_max")

    __slots__ = ("_max",)

    def __init__(self) -> None:
        self._max: Optional[Any] = None

    def update(self, value: Any) -> None:
        if self._max is None or value > self._max:
            self._max = value

    def merge(self, other: Aggregate) -> None:
        assert isinstance(other, MaxAggregate)
        if other._max is not None:
            self.update(other._max)

    def value(self) -> Any:
        return self._max


class AvgAggregate(Aggregate):
    reversible = True
    mergeable = True

    __slots__ = ("_total", "_count")

    def __init__(self) -> None:
        self._total: Any = 0
        self._count = 0

    def update(self, value: Any) -> None:
        self._total += value
        self._count += 1

    def retract(self, value: Any) -> None:
        self._total -= value
        self._count -= 1

    def merge(self, other: Aggregate) -> None:
        assert isinstance(other, AvgAggregate)
        self._total += other._total
        self._count += other._count

    def value(self) -> Optional[float]:
        if self._count == 0:
            return None
        return self._total / self._count


class CountDistinctAggregate(Aggregate):
    """Exact distinct count (a set per group).

    Groups in sampling queries stay small (they are bounded by cleaning),
    so an exact set is appropriate here; the *approximate* distinct
    machinery lives with the algorithms, not the UDAF layer.
    """

    reversible = False
    mergeable = True

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: Set[Any] = set()

    def update(self, value: Any) -> None:
        self._seen.add(value)

    def merge(self, other: Aggregate) -> None:
        assert isinstance(other, CountDistinctAggregate)
        self._seen |= other._seen

    def value(self) -> int:
        return len(self._seen)


class FirstAggregate(Aggregate):
    """First value seen in the group (paper §6.6 heavy-hitters query)."""

    in_place = ("if not {0}._has_value: {0}._first, {0}._has_value = {1}, True", "_first")

    __slots__ = ("_first", "_has_value")

    def __init__(self) -> None:
        self._first: Optional[Any] = None
        self._has_value = False

    def update(self, value: Any) -> None:
        if not self._has_value:
            self._first = value
            self._has_value = True

    def value(self) -> Any:
        return self._first


class LastAggregate(Aggregate):
    in_place = ("{0}._last = {1}", "_last")

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last: Optional[Any] = None

    def update(self, value: Any) -> None:
        self._last = value

    def value(self) -> Any:
        return self._last


AggregateFactory = Callable[[], Aggregate]


@lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[str, ...]:
    """What a checkpoint writes of a ``cls`` aggregate: its slots
    (:func:`~repro.dsms.fields.slot_fields`), or nothing — it goes as
    itself — when it has a ``__dict__`` or pickles its own way."""
    own = ("__reduce_ex__", "__reduce__", "__getstate__", "__getnewargs_ex__",
           "__getnewargs__")
    if any(getattr(cls, name, None) is not getattr(object, name, None) for name in own):
        return ()
    return slot_fields(cls) or ()


def checkpoint_column(aggregates: Sequence[Aggregate]) -> Tuple[Optional[type], List[Any]]:
    """One aggregate slot across groups: the class once and each group's
    field values (the value itself for a one-field class) when all are one
    class with :func:`_fields`, else ``None`` and the aggregates."""
    kinds = set(map(type, aggregates))
    fields = _fields(*kinds) if len(kinds) == 1 else ()
    if fields:
        return kinds.pop(), list(map(attrgetter(*fields), aggregates))
    return None, list(aggregates)


def restore_column(cls: Optional[type], items: List[Any]) -> List[Any]:
    """The aggregates of a :func:`checkpoint_column`, over its field values."""
    if cls is not None:
        fields = _fields(cls)
        single = len(fields) == 1
        for index, values in enumerate(items):
            items[index] = aggregate = cls.__new__(cls)
            for name, value in zip(fields, (values,) if single else values):
                setattr(aggregate, name, value)
    return items


class AggregateRegistry:
    """Name -> aggregate factory registry."""

    def __init__(self) -> None:
        self._factories: Dict[str, AggregateFactory] = {}

    def register(self, name: str, factory: AggregateFactory, replace: bool = False) -> None:
        if not replace and name in self._factories:
            raise RegistryError(f"aggregate {name!r} already registered")
        self._factories[name] = factory

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def create(self, name: str) -> Aggregate:
        try:
            return self._factories[name]()
        except KeyError:
            raise RegistryError(f"unknown aggregate {name!r}") from None

    def factory(self, name: str) -> Optional[AggregateFactory]:
        """What :meth:`create` calls for ``name``; None when unregistered."""
        return self._factories.get(name)

    def names(self) -> List[str]:
        return sorted(self._factories)

    def copy(self) -> "AggregateRegistry":
        clone = AggregateRegistry()
        clone._factories = dict(self._factories)
        return clone


def default_aggregate_registry() -> AggregateRegistry:
    registry = AggregateRegistry()
    registry.register("sum", SumAggregate)
    registry.register("count", CountAggregate)
    registry.register("min", MinAggregate)
    registry.register("max", MaxAggregate)
    registry.register("avg", AvgAggregate)
    registry.register("count_distinct", CountDistinctAggregate)
    registry.register("first", FirstAggregate)
    registry.register("last", LastAggregate)
    return registry
