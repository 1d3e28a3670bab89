"""Aggregates: each built-in's cells, the layout of a group, and the registry."""

import math
import pickle

import pytest

from repro.errors import RegistryError
from repro.dsms.aggregates import (
    BUILTINS,
    Aggregate,
    AggregateRegistry,
    Cells,
    Layout,
    checkpoint_cells,
    default_aggregate_registry,
    restore_cells,
)


def fed(name, values, registry=None):
    """The value of aggregate ``name`` over ``values``, through the
    forms a generated node writes: a new group's display, the update
    per value, the read."""
    layout = Layout(registry or default_aggregate_registry(), [name])
    group, update = layout.maker()(), layout.updater(0)
    for value in values:
        update(group, value)
    return eval(layout.value(0), {}, {"group": group})


class TestSum:
    def test_update_and_value(self):
        assert fed("sum", (1, 2, 3)) == 6

    def test_starts_from_zero(self):
        # ``0 + v``: a bool sums as an int, and -0.0 comes out 0.0
        assert type(fed("sum", (True,))) is int
        assert math.copysign(1, fed("sum", (-0.0,))) == 1
        assert fed("sum", ()) == 0


class TestCount:
    def test_counts_rows_not_values(self):
        assert fed("count", ("anything", None)) == 2


class TestMinMax:
    def test_min(self):
        assert fed("min", (5, 3, 9)) == 3

    def test_max(self):
        assert fed("max", (5, 3, 9)) == 9

    def test_empty_is_none(self):
        assert fed("min", ()) is None
        assert fed("max", ()) is None


class TestAvg:
    def test_average(self):
        assert fed("avg", (2, 4)) == 3

    def test_empty_is_none(self):
        assert fed("avg", ()) is None


class TestCountDistinct:
    def test_distincts(self):
        assert fed("count_distinct", (1, 1, 2, 3, 3)) == 3


class TestFirstLast:
    def test_first(self):
        assert fed("first", ("a", "b")) == "a"

    def test_first_of_none_value(self):
        assert fed("first", (None, 5)) is None

    def test_last(self):
        assert fed("last", ("a", "b")) == "b"


class SlotSum(Aggregate):
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def update(self, value):
        self.total += value

    def value(self):
        return self.total


class TestLayout:
    def registry(self):
        registry = default_aggregate_registry()
        registry.register("slot_sum", SlotSum)
        return registry

    def test_cells_follow_the_head_in_slot_order(self):
        layout = Layout(self.registry(), ["avg", "slot_sum", "first", "count"], ["sgkey"])
        assert layout.starts == [1, 3, 4, 6] and layout.width == 7
        assert layout.objects == (3,)
        assert layout.kinds[1] is None and layout.factories[1] is SlotSum
        assert layout.display(lambda factory: "k0") == "[sgkey, 0, 0, k0(), None, False, 0]"
        assert layout.update(1) == "group[3].update({v})" and layout.value(1) == "group[3].value()"
        assert layout.value(0) == "group[1] / group[2] if group[2] else None"

    def test_a_udaf_is_called_in_its_cell(self):
        assert fed("slot_sum", (1, 2), self.registry()) == 3

    def test_a_group_is_a_list_of_plain_values(self):
        names = list(BUILTINS) + ["slot_sum"]
        layout = Layout(self.registry(), names)
        group = layout.maker()()
        for slot in range(len(names)):
            layout.updater(slot)(group, 4)
        assert type(group) is list and len(group) == layout.width
        kinds = {type(cell) for cell in group if type(cell) is not SlotSum}
        assert kinds == {int, bool, set}
        assert not hasattr(group[layout.objects[0]], "__dict__")

    def test_cells_checkpoint_as_columns(self):
        layout = Layout(self.registry(), ["sum", "slot_sum", "first"])
        groups, new = {}, layout.maker()
        for key, value in ((("a",), 2), (("b",), 5)):
            group = groups[key] = new()
            for slot in range(3):
                layout.updater(slot)(group, value)
        snapshot = pickle.loads(pickle.dumps(checkpoint_cells(groups, layout)))
        assert snapshot == {
            "keys": [("a",), ("b",)],
            "cells": [[2, 5], (SlotSum, [2, 5]), [2, 5], [True, True]],
        }
        restored = restore_cells(snapshot, layout)
        assert list(restored) == [("a",), ("b",)]
        assert [[eval(layout.value(s), {}, {"group": g}) for s in range(3)]
                for g in restored.values()] == [[2, 2, 2], [5, 5, 5]]

    def test_groups_of_no_cell_restore(self):
        layout = Layout(self.registry(), [])
        snapshot = checkpoint_cells({("a",): [], ("b",): []}, layout)
        assert restore_cells(snapshot, layout) == {("a",): [], ("b",): []}


class TestRegistry:
    def test_default_contents(self):
        registry = default_aggregate_registry()
        for name in ("sum", "count", "min", "max", "avg", "count_distinct",
                     "first", "last"):
            assert name in registry
            assert isinstance(registry.factory(name), Cells)

    def test_create_returns_fresh_instances(self):
        # each new group gets cells of its own
        registry = default_aggregate_registry()
        registry.register("slot_sum", SlotSum)
        new = Layout(registry, ["count_distinct", "slot_sum"]).maker()
        a, b = new(), new()
        a[0].add(1)
        a[1].update(1)
        assert b[0] == set() and b[1].value() == 0

    def test_unknown_raises(self):
        with pytest.raises(RegistryError):
            default_aggregate_registry().factory("median")
        with pytest.raises(RegistryError):
            Layout(default_aggregate_registry(), ["median"])

    def test_duplicate_rejected(self):
        registry = AggregateRegistry()
        registry.register("x", SlotSum)
        with pytest.raises(RegistryError):
            registry.register("x", SlotSum)

    def test_copy_is_independent(self):
        registry = default_aggregate_registry()
        clone = registry.copy()
        clone.register("custom", SlotSum)
        assert "custom" not in registry
