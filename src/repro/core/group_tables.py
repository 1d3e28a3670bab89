"""The three hash tables of the sampling-operator implementation.

Paper §6.4 maintains:

* **group table** — group-by key -> per-group aggregate structure: one
  ``list``, the supergroup key and then each aggregate's cells
  (:class:`repro.dsms.aggregates.Layout`);
* **supergroup table** (two copies, *old* and *new*) — supergroup key
  (excluding ordered variables, which are constant within a window) ->
  SFUN states and superaggregates.  The old copy holds last window's
  supergroups so new states can be initialised from them;
* **supergroup-group table** — supergroup key -> the set of group keys
  currently in that supergroup (the cleaning phase iterates it).

Keys are tuples of evaluated group-by variable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.dsms.stateful import StatefulState
from repro.core.superaggregates import SuperAggregate

GroupKey = Tuple[Any, ...]
SuperGroupKey = Tuple[Any, ...]


@dataclass(slots=True)
class SuperGroupEntry:
    """One supergroup: SFUN states and superaggregate vector."""

    key: SuperGroupKey
    states: Dict[str, StatefulState]
    superaggregates: List[SuperAggregate]


class GroupTables:
    """Container bundling the tables with the swap/clear choreography."""

    def __init__(self) -> None:
        self.groups: Dict[GroupKey, List[Any]] = {}
        self.new_supergroups: Dict[SuperGroupKey, SuperGroupEntry] = {}
        self.old_supergroups: Dict[SuperGroupKey, SuperGroupEntry] = {}
        # dict-as-ordered-set: group keys in insertion order per supergroup
        self.supergroup_groups: Dict[SuperGroupKey, Dict[GroupKey, None]] = {}

    def add_group(self, key: GroupKey, group: List[Any]) -> None:
        """Add the group ``key``, whose list starts with its supergroup key."""
        self.groups[key] = group
        self.supergroup_groups.setdefault(group[0], {})[key] = None

    def end_window(self) -> None:
        """Paper §6.4: clear group tables, move new supergroups to old."""
        self.groups.clear()
        self.supergroup_groups.clear()
        self.old_supergroups = self.new_supergroups
        self.new_supergroups = {}

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def supergroup_count(self) -> int:
        return len(self.new_supergroups)
