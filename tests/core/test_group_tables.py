"""The group / supergroup / supergroup-group tables."""

from repro.core.group_tables import GroupEntry, GroupTables, SuperGroupEntry


def group(key, sg_key=("sg",)):
    return GroupEntry(key=key, aggregates=[], supergroup_key=sg_key)


class TestGroups:
    def test_add_and_lookup(self):
        tables = GroupTables()
        tables.add_group(group(("a",)))
        assert ("a",) in tables.groups
        assert tables.group_count == 1

    def test_supergroup_members_keep_arrival_order(self):
        # the cleaning pass visits a supergroup's groups in this order
        tables = GroupTables()
        for key in ("x", "y", "z"):
            tables.add_group(group((key,)))
        assert list(tables.supergroup_groups[("sg",)]) == [("x",), ("y",), ("z",)]

    def test_separate_supergroups(self):
        tables = GroupTables()
        tables.add_group(group(("a",), sg_key=("s1",)))
        tables.add_group(group(("b",), sg_key=("s2",)))
        assert tables.supergroup_groups == {("s1",): {("a",): None}, ("s2",): {("b",): None}}


class TestWindowSwap:
    def test_end_window_moves_new_to_old(self):
        tables = GroupTables()
        entry = SuperGroupEntry(key=("k",), states={}, superaggregates=[])
        tables.new_supergroups[("k",)] = entry
        tables.add_group(group(("a",), sg_key=("k",)))
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
