"""The paper's primary contribution: the generic stream sampling operator.

* :mod:`repro.core.superaggregates` — supergroup-level aggregates
  (``count_distinct$``, ``Kth_smallest_value$``, ``sum$`` ...), maintained
  incrementally as groups are added and evicted (paper §6.3).
* :mod:`repro.core.group_tables` — the three hash tables of the
  implementation (group, supergroup, supergroup-group) plus the old/new
  supergroup pair used for window-to-window state carryover (paper §6.4).
* :mod:`repro.core.sampling_operator` — the operator itself: per-tuple
  admission (WHERE), cleaning phases (CLEANING WHEN / CLEANING BY), window
  finalisation (HAVING) and output production (paper §5, §6.4).
"""

from repro.core.superaggregates import (
    SuperAggregate,
    CountDistinctSuper,
    KthSmallestSuper,
    SumSuper,
    CountSuper,
    MaxSuper,
    MinSuper,
    AvgSuper,
    SuperAggregateRegistry,
    default_superaggregate_registry,
)
from repro.core.group_tables import SuperGroupEntry, GroupTables
from repro.core.sampling_operator import SamplingOperator

__all__ = [
    "SuperAggregate",
    "CountDistinctSuper",
    "KthSmallestSuper",
    "SumSuper",
    "CountSuper",
    "MaxSuper",
    "MinSuper",
    "AvgSuper",
    "SuperAggregateRegistry",
    "default_superaggregate_registry",
    "SuperGroupEntry",
    "GroupTables",
    "SamplingOperator",
]
