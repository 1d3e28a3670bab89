"""Superaggregates: aggregates of the supergroup rather than the group.

Paper §6.3: *"To be able to maintain superaggregate, we need to maintain
group aggregate of the same type.  When a new group is added or deleted
(as a result of the cleaning phase), we need to update the supergroup
aggregate by adding or subtracting the group aggregate value."*

Two feeding disciplines cover the paper's uses:

* **group-fed** (``feeds == "group"``): the superaggregate summarises one
  value per *group* (its argument evaluated against the group key).  Used
  by ``count_distinct$(*)`` (number of groups) and
  ``Kth_smallest_value$(HX, k)`` (kth smallest group-by value, the KMV
  threshold of the min-hash query).  Updated on group creation/eviction.

* **tuple-fed** (``feeds == "tuple"``): the superaggregate summarises a
  per-tuple value over all admitted tuples; it tracks each group's
  contribution internally so an evicted group's contribution can be
  subtracted exactly.  Used by ``sum$``/``count$``.

``value()`` may be read at any time: per-tuple in WHERE (min-hash),
per-trigger in CLEANING WHEN, per-group in HAVING/CLEANING BY, and in the
output SELECT list.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.dsms.fields import set_fields
from repro.errors import ExecutionError, RegistryError

GroupKey = Hashable


class SuperAggregate:
    """Base class.  Subclasses set ``feeds`` and override the hooks."""

    # Per-supergroup state lives in slots: see repro.dsms.fields.
    __slots__ = ()
    __setstate__ = set_fields

    feeds: str = "group"  # or "tuple"

    def on_group_added(self, group_key: GroupKey, value: Any) -> None:
        """A new group joined the supergroup (group-fed only)."""

    def on_tuple(self, group_key: GroupKey, value: Any) -> None:
        """An admitted tuple contributed ``value`` (tuple-fed only)."""

    def on_group_removed(self, group_key: GroupKey, value: Any) -> None:
        """A group was evicted; ``value`` is its group-fed argument value
        (tuple-fed implementations use their internal contribution table
        and may ignore it)."""

    def value(self) -> Any:
        raise NotImplementedError


class CountDistinctSuper(SuperAggregate):
    """``count_distinct$(*)`` — the number of groups in the supergroup."""

    feeds = "group"
    #: on_group_added() and value() as a generated node writes them
    in_place = ("{0}._count += 1", "_count")

    __slots__ = ("_count",)

    def __init__(self) -> None:
        self._count = 0

    def on_group_added(self, group_key: GroupKey, value: Any) -> None:
        self._count += 1

    def on_group_removed(self, group_key: GroupKey, value: Any) -> None:
        self._count -= 1
        if self._count < 0:
            raise ExecutionError("count_distinct$ went negative: unbalanced eviction")

    def value(self) -> int:
        return self._count


class KthSmallestSuper(SuperAggregate):
    """``Kth_smallest_value$(x, k)`` — kth smallest group value of ``x``.

    While fewer than ``k`` groups exist the value is ``+inf`` so admission
    predicates of the form ``HX <= Kth_smallest_value$(HX, k)`` accept
    everything, exactly as KMV sampling requires.

    The sorted list is kept over *all* current group values (cleaning keeps
    the population near ``k``, so the list stays small); removal must
    handle arbitrary evicted values.
    """

    feeds = "group"

    __slots__ = ("k", "_values")

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ExecutionError(f"Kth_smallest_value$ needs k >= 1, got {k}")
        self.k = k
        self._values: List[Any] = []

    def on_group_added(self, group_key: GroupKey, value: Any) -> None:
        bisect.insort(self._values, value)

    def on_group_removed(self, group_key: GroupKey, value: Any) -> None:
        index = bisect.bisect_left(self._values, value)
        if index >= len(self._values) or self._values[index] != value:
            raise ExecutionError(
                f"Kth_smallest_value$: evicted value {value!r} was never added"
            )
        self._values.pop(index)

    def value(self) -> Any:
        if len(self._values) < self.k:
            return float("inf")
        return self._values[self.k - 1]


class SumSuper(SuperAggregate):
    """``sum$(x)`` — sum of ``x`` over all admitted tuples of live groups."""

    feeds = "tuple"

    __slots__ = ("_total", "_contributions")

    def __init__(self) -> None:
        self._total: Any = 0
        self._contributions: Dict[GroupKey, Any] = {}

    def on_tuple(self, group_key: GroupKey, value: Any) -> None:
        self._total += value
        self._contributions[group_key] = self._contributions.get(group_key, 0) + value

    def on_group_removed(self, group_key: GroupKey, value: Any) -> None:
        contribution = self._contributions.pop(group_key, 0)
        self._total -= contribution

    def value(self) -> Any:
        return self._total


class CountSuper(SuperAggregate):
    """``count$(*)`` — tuples admitted into live groups."""

    feeds = "tuple"

    __slots__ = ("_total", "_contributions")

    def __init__(self) -> None:
        self._total = 0
        self._contributions: Dict[GroupKey, int] = {}

    def on_tuple(self, group_key: GroupKey, value: Any) -> None:
        self._total += 1
        self._contributions[group_key] = self._contributions.get(group_key, 0) + 1

    def on_group_removed(self, group_key: GroupKey, value: Any) -> None:
        self._total -= self._contributions.pop(group_key, 0)

    def value(self) -> int:
        return self._total


class MaxSuper(SuperAggregate):
    """``max$(x)`` over live group values (recomputes after removal)."""

    feeds = "group"

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: List[Any] = []

    def on_group_added(self, group_key: GroupKey, value: Any) -> None:
        bisect.insort(self._values, value)

    def on_group_removed(self, group_key: GroupKey, value: Any) -> None:
        index = bisect.bisect_left(self._values, value)
        if index >= len(self._values) or self._values[index] != value:
            raise ExecutionError(f"max$: evicted value {value!r} was never added")
        self._values.pop(index)

    def value(self) -> Any:
        return self._values[-1] if self._values else None


class MinSuper(SuperAggregate):
    """``min$(x)`` over live group values."""

    feeds = "group"

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: List[Any] = []

    def on_group_added(self, group_key: GroupKey, value: Any) -> None:
        bisect.insort(self._values, value)

    def on_group_removed(self, group_key: GroupKey, value: Any) -> None:
        index = bisect.bisect_left(self._values, value)
        if index >= len(self._values) or self._values[index] != value:
            raise ExecutionError(f"min$: evicted value {value!r} was never added")
        self._values.pop(index)

    def value(self) -> Any:
        return self._values[0] if self._values else None


class AvgSuper(SuperAggregate):
    """``avg$(x)`` over all admitted tuples of live groups."""

    feeds = "tuple"

    __slots__ = ("_total", "_count", "_contributions")

    def __init__(self) -> None:
        self._total: Any = 0
        self._count = 0
        self._contributions: Dict[GroupKey, Tuple[Any, int]] = {}

    def on_tuple(self, group_key: GroupKey, value: Any) -> None:
        self._total += value
        self._count += 1
        total, count = self._contributions.get(group_key, (0, 0))
        self._contributions[group_key] = (total + value, count + 1)

    def on_group_removed(self, group_key: GroupKey, value: Any) -> None:
        total, count = self._contributions.pop(group_key, (0, 0))
        self._total -= total
        self._count -= count

    def value(self) -> Optional[float]:
        if self._count == 0:
            return None
        return self._total / self._count


SuperAggregateFactory = Callable[[Sequence[Any]], SuperAggregate]


def _make_count_distinct(const_args: Sequence[Any]) -> SuperAggregate:
    return CountDistinctSuper()


def _make_kth_smallest(const_args: Sequence[Any]) -> SuperAggregate:
    if len(const_args) != 1:
        raise RegistryError(
            "Kth_smallest_value$(x, k) takes exactly one constant argument k"
        )
    return KthSmallestSuper(int(const_args[0]))


def _make_sum(const_args: Sequence[Any]) -> SuperAggregate:
    return SumSuper()


def _make_count(const_args: Sequence[Any]) -> SuperAggregate:
    return CountSuper()


def _make_max(const_args: Sequence[Any]) -> SuperAggregate:
    return MaxSuper()


def _make_min(const_args: Sequence[Any]) -> SuperAggregate:
    return MinSuper()


def _make_avg(const_args: Sequence[Any]) -> SuperAggregate:
    return AvgSuper()


class SuperAggregateRegistry:
    """Name -> factory registry.  Names are registered *without* the ``$``."""

    def __init__(self) -> None:
        self._factories: Dict[str, SuperAggregateFactory] = {}

    def register(
        self, name: str, factory: SuperAggregateFactory, replace: bool = False
    ) -> None:
        if name.endswith("$"):
            name = name[:-1]
        if not replace and name in self._factories:
            raise RegistryError(f"superaggregate {name!r} already registered")
        self._factories[name] = factory

    def __contains__(self, name: str) -> bool:
        return name.rstrip("$") in self._factories

    def create(self, name: str, const_args: Sequence[Any]) -> SuperAggregate:
        key = name.rstrip("$")
        try:
            factory = self._factories[key]
        except KeyError:
            raise RegistryError(f"unknown superaggregate {name!r}") from None
        return factory(const_args)

    def names(self) -> List[str]:
        return sorted(self._factories)

    def copy(self) -> "SuperAggregateRegistry":
        clone = SuperAggregateRegistry()
        clone._factories = dict(self._factories)
        return clone


def default_superaggregate_registry() -> SuperAggregateRegistry:
    registry = SuperAggregateRegistry()
    registry.register("count_distinct", _make_count_distinct)
    registry.register("Kth_smallest_value", _make_kth_smallest)
    registry.register("sum", _make_sum)
    registry.register("count", _make_count)
    registry.register("max", _make_max)
    registry.register("min", _make_min)
    registry.register("avg", _make_avg)
    return registry
