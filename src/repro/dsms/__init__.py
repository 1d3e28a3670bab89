"""A Gigascope-like data stream management system (DSMS) in Python.

The paper's host system (paper §3) has a two-level architecture:

* **low-level queries** read packets straight from a NIC ring buffer and
  perform cheap early data reduction (selection, partial aggregation);
* **high-level queries** consume the reduced streams and run the heavier
  operators — including the sampling operator this reproduction is about.

This package provides that substrate:

* :mod:`repro.dsms.cost` — a deterministic cycle-cost model standing in for
  the paper's CPU-utilisation measurements (a Python interpreter cannot
  process 100 kpps per-packet at native line rate, so the performance
  figures are reproduced through calibrated per-operation costs; see
  DESIGN.md §3),
* :mod:`repro.dsms.expr` — the expression AST and evaluator,
* :mod:`repro.dsms.functions` — scalar function registry (``H``, ``UMAX``…),
* :mod:`repro.dsms.aggregates` — a group's cells (the built-in
  aggregates, declared once) and the UDAF framework,
* :mod:`repro.dsms.stateful` — ``STATE`` / ``SFUN`` declarations (paper §6.2),
* :mod:`repro.dsms.parser` — the GSQL-subset front end,
* :mod:`repro.dsms.operators` — selection / projection / aggregation
  operators plus the bridge to the sampling operator,
* :mod:`repro.dsms.runtime` — query nodes and the two-level runtime,
* :mod:`repro.dsms.sharded` — hash-partitioned SPLIT/MERGE parallel
  execution across N replica shards.
"""

from repro.dsms.cost import CostModel, CostBook, NULL_COST_MODEL
from repro.dsms.runtime import Gigascope, QueryHandle
from repro.dsms.sharded import ShardedGigascope, ShardedQueryHandle

__all__ = [
    "CostModel",
    "CostBook",
    "NULL_COST_MODEL",
    "Gigascope",
    "QueryHandle",
    "ShardedGigascope",
    "ShardedQueryHandle",
]
