"""The group / supergroup / supergroup-group tables.

A group is one list: its supergroup key, then its aggregates' cells."""

from repro.core.group_tables import GroupTables, SuperGroupEntry


def add(tables, key, sg_key=("sg",), *cells):
    group = [sg_key, *cells]
    tables.add_group(key, group)
    return group


class TestGroups:
    def test_add_and_lookup(self):
        tables = GroupTables()
        group = add(tables, ("a",), ("sg",), 0, None)
        assert tables.groups[("a",)] is group
        assert tables.groups[("a",)] == [("sg",), 0, None]
        assert tables.group_count == 1

    def test_supergroup_members_keep_arrival_order(self):
        # the cleaning pass visits a supergroup's groups in this order
        tables = GroupTables()
        for key in ("x", "y", "z"):
            add(tables, (key,))
        assert list(tables.supergroup_groups[("sg",)]) == [("x",), ("y",), ("z",)]

    def test_separate_supergroups(self):
        tables = GroupTables()
        add(tables, ("a",), ("s1",))
        add(tables, ("b",), ("s2",))
        assert tables.supergroup_groups == {("s1",): {("a",): None}, ("s2",): {("b",): None}}


class TestWindowSwap:
    def test_end_window_moves_new_to_old(self):
        tables = GroupTables()
        entry = SuperGroupEntry(key=("k",), states={}, superaggregates=[])
        tables.new_supergroups[("k",)] = entry
        add(tables, ("a",), ("k",))
        tables.end_window()
        assert tables.group_count == 0
        assert tables.supergroup_count == 0
        assert tables.old_supergroups[("k",)] is entry
        assert tables.supergroup_groups == {}

    def test_second_end_window_discards_old(self):
        tables = GroupTables()
        entry = SuperGroupEntry(key=("k",), states={}, superaggregates=[])
        tables.new_supergroups[("k",)] = entry
        tables.end_window()
        tables.end_window()
        assert tables.old_supergroups == {}
