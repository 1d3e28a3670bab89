"""Aggregates: a group's cells, declared once.

A group of the tuple engine is one ``list`` (paper §6.4's "per-group
aggregate structure", DESIGN.md §2): a sampling node's holds its
supergroup key and then each aggregate's cells, an aggregation node's
the cells alone.  A built-in aggregate keeps its state in those cells,
declared here as :class:`Cells` — the source of each cell's initial
value, the statement that takes a value into them and the expression
that reads the aggregate — and :class:`Layout` places a plan's
aggregates in the list.  The generated nodes (:mod:`repro.dsms.node`),
the checkpoints (:func:`checkpoint_cells`) and the columnar folds
(:mod:`repro.dsms.vectorized.operators`) read and write a group through
these and nothing else.

Any other registered aggregate is a UDAF, on the conventional
three-phase API: its factory makes one object per group, kept in one
cell, ``update``d per tuple and read by ``value``.

Built-ins: sum, count, min, max, avg, count_distinct, first, last.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.dsms.fields import set_fields, slot_fields
from repro.errors import RegistryError


class Aggregate:
    """A UDAF: one instance per group, in one cell of the group.

    The class (or any factory) is what is registered.  Subclasses
    override :meth:`update` and :meth:`value`.  One that declares
    ``__slots__`` sets every slot in ``__init__``: a checkpoint reads
    each by name.
    """

    # Per-group state lives in slots: see repro.dsms.fields.
    __slots__ = ()
    __setstate__ = set_fields

    def update(self, value: Any) -> None:
        raise NotImplementedError

    def value(self) -> Any:
        raise NotImplementedError


class Cells(NamedTuple):
    """A built-in aggregate as cells of its group's list: ``init``, the
    source of each cell's initial value (a literal or a display, so a
    group is built without a call); ``update``, the statement that takes
    the value ``{v}`` into the cells ``{0}``, ``{1}`` ...; ``value``, the
    expression of the aggregate's value over them."""

    init: Tuple[str, ...]
    update: str
    value: str


#: The built-ins.  ``sum`` starts from ``0`` and adds (``0 + v`` keeps no
#: ``bool`` or ``-0.0``); ``{*()}`` is an empty set.
BUILTINS: Dict[str, Cells] = {
    "sum": Cells(("0",), "{0} += {v}", "{0}"),
    "count": Cells(("0",), "{0} += 1", "{0}"),
    "min": Cells(("None",), "if {0} is None or {v} < {0}: {0} = {v}", "{0}"),
    "max": Cells(("None",), "if {0} is None or {v} > {0}: {0} = {v}", "{0}"),
    "avg": Cells(("0", "0"), "{0} += {v}; {1} += 1", "{0} / {1} if {1} else None"),
    # exact (a set per group): groups in sampling queries stay small
    "count_distinct": Cells(("{*()}",), "{0}.add({v})", "len({0})"),
    # the first value seen (paper §6.6 heavy-hitters query), and a flag
    "first": Cells(("None", "False"), "if not {1}: {0}, {1} = {v}, True", "{0}"),
    "last": Cells(("None",), "{0} = {v}", "{0}"),
}

AggregateFactory = Callable[[], Aggregate]


class Layout:
    """Where a plan's aggregates sit in its groups' lists.  ``head`` is
    the source of the cells before them (a sampling node's supergroup
    key); aggregate ``slot``'s cells start at ``starts[slot]``.
    ``kinds[slot]`` is its :class:`Cells`, or None for a UDAF, whose
    object — made by ``factories[slot]`` — is one cell; ``objects`` are
    those cells.  Forms are written over the group in the local
    ``group``."""

    def __init__(self, registry: "AggregateRegistry", names: Sequence[str],
                 head: Sequence[str] = ()) -> None:
        self.head = tuple(head)
        self.kinds: List[Optional[Cells]] = []
        self.factories: List[Optional[AggregateFactory]] = []
        self.starts: List[int] = []
        at = len(self.head)
        for name in names:
            kind = registry.factory(name)
            cells = kind if isinstance(kind, Cells) else None
            self.kinds.append(cells)
            self.factories.append(None if cells else kind)
            self.starts.append(at)
            at += len(cells.init) if cells else 1
        self.width = at
        self.objects = tuple(s for s, kind in zip(self.starts, self.kinds) if kind is None)

    def refs(self, slot: int) -> List[str]:
        kind, start = self.kinds[slot], self.starts[slot]
        return [f"group[{i}]" for i in range(start, start + (len(kind.init) if kind else 1))]

    def update(self, slot: int) -> str:
        """The statement taking ``{v}`` into ``slot``'s cells."""
        kind, refs = self.kinds[slot], self.refs(slot)
        return kind.update.format(*refs, v="{v}") if kind else f"{refs[0]}.update({{v}})"

    def value(self, slot: int) -> str:
        """The expression of ``slot``'s value."""
        kind, refs = self.kinds[slot], self.refs(slot)
        return kind.value.format(*refs) if kind else f"{refs[0]}.value()"

    def display(self, name: Callable[[Any], str]) -> str:
        """A new group's list display; a UDAF's cell calls its factory,
        which ``name`` names in the source."""
        items = list(self.head)
        for kind, factory in zip(self.kinds, self.factories):
            items += kind.init if kind else [f"{name(factory)}()"]
        return f"[{', '.join(items)}]"

    def maker(self) -> Callable[[], List[Any]]:
        """A new group, for whoever builds one outside a generated node
        (the head-less layout of an aggregation)."""
        namespace: Dict[str, Any] = {}

        def name(factory: Any) -> str:
            namespace[f"f{len(namespace)}"] = factory
            return f"f{len(namespace) - 1}"

        return eval(f"lambda: {self.display(name)}", namespace)

    def updater(self, slot: int) -> Callable[[List[Any], Any], None]:
        """``slot``'s update as a function of a group and a value."""
        namespace: Dict[str, Any] = {}
        exec(f"def update(group, v):\n    {self.update(slot).format(v='v')}\n", namespace)
        return namespace["update"]


@lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[str, ...]:
    """What a checkpoint writes of a ``cls`` UDAF: its slots
    (:func:`~repro.dsms.fields.slot_fields`), or nothing — it goes as
    itself — when it has a ``__dict__`` or pickles its own way."""
    own = ("__reduce_ex__", "__reduce__", "__getstate__", "__getnewargs_ex__",
           "__getnewargs__")
    if any(getattr(cls, name, None) is not getattr(object, name, None) for name in own):
        return ()
    return slot_fields(cls) or ()


def checkpoint_column(aggregates: Sequence[Aggregate]) -> Tuple[Optional[type], List[Any]]:
    """One UDAF cell across groups: the class once and each group's field
    values (the value itself for a one-field class) when all are one
    class with :func:`_fields`, else ``None`` and the aggregates."""
    kinds = set(map(type, aggregates))
    fields = _fields(*kinds) if len(kinds) == 1 else ()
    if fields:
        return kinds.pop(), list(map(attrgetter(*fields), aggregates))
    return None, list(aggregates)


def restore_column(cls: Optional[type], items: List[Any]) -> List[Any]:
    """The UDAFs of a :func:`checkpoint_column`, over its field values."""
    if cls is not None:
        fields = _fields(cls)
        single = len(fields) == 1
        for index, values in enumerate(items):
            items[index] = aggregate = cls.__new__(cls)
            for name, value in zip(fields, (values,) if single else values):
                setattr(aggregate, name, value)
    return items


def checkpoint_cells(groups: Dict[Any, List[Any]], layout: Layout) -> Dict[str, Any]:
    """A group table as columns: its keys, and each cell across the
    groups — a UDAF's by :func:`checkpoint_column` — with no call per
    group.  A view over live cells, as ``Operator.checkpoint`` is."""
    cells = list(map(list, zip(*groups.values())))
    for at in layout.objects if cells else ():
        cells[at] = checkpoint_column(cells[at])
    return {"keys": list(groups), "cells": cells}


def restore_cells(snapshot: Dict[str, Any], layout: Layout) -> Dict[Any, List[Any]]:
    """The group table of a :func:`checkpoint_cells`."""
    cells = [restore_column(*column) if at in layout.objects else column
             for at, column in enumerate(snapshot["cells"])]
    if not cells:  # no group, or groups of no cell
        return {key: [] for key in snapshot["keys"]}
    return dict(zip(snapshot["keys"], map(list, zip(*cells))))


class AggregateRegistry:
    """Name -> a built-in's :class:`Cells` or a UDAF's factory."""

    def __init__(self) -> None:
        self._factories: Dict[str, Union[Cells, AggregateFactory]] = {}

    def register(self, name: str, factory: Union[Cells, AggregateFactory],
                 replace: bool = False) -> None:
        if not replace and name in self._factories:
            raise RegistryError(f"aggregate {name!r} already registered")
        self._factories[name] = factory

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def factory(self, name: str) -> Union[Cells, AggregateFactory]:
        """What is registered as ``name``."""
        try:
            return self._factories[name]
        except KeyError:
            raise RegistryError(f"unknown aggregate {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._factories)

    def copy(self) -> "AggregateRegistry":
        clone = AggregateRegistry()
        clone._factories = dict(self._factories)
        return clone


def default_aggregate_registry() -> AggregateRegistry:
    registry = AggregateRegistry()
    for name, cells in BUILTINS.items():
        registry.register(name, cells)
    return registry
