"""repro — reproduction of "Sampling Algorithms in a Stream Operator"
(Johnson, Muthukrishnan, Rozenbaum; SIGMOD 2005).

The package provides, from the bottom up:

* :mod:`repro.streams` — stream schemas, records and synthetic network
  feeds standing in for the paper's live AT&T taps;
* :mod:`repro.dsms` — a Gigascope-like DSMS: a GSQL-subset
  query language (with ``SUPERGROUP`` / ``CLEANING WHEN`` / ``CLEANING
  BY``), UDAFs, stateful functions, a two-level low/high query runtime,
  and a cycle-cost model for the CPU-usage experiments;
* :mod:`repro.core` — the paper's contribution: the generic stream
  sampling operator with groups, supergroups and superaggregates;
* :mod:`repro.algorithms` — reservoir sampling, Manku–Motwani heavy
  hitters, min-hash/KMV, subset-sum (basic / dynamic / relaxed) and
  distinct sampling, each once, as the SFUN pack its query runs inside
  the operator, plus the baselines the evaluation compares against;
* :mod:`repro.bench` — the harness regenerating every figure of the
  paper's §7 evaluation; ``python -m repro`` runs it all and checks the
  paper's claims against it.

Quick start::

    from repro import Gigascope, TCP_SCHEMA, research_center_feed
    from repro.algorithms import subset_sum_library, SUBSET_SUM_QUERY

    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    query = gs.add_query(SUBSET_SUM_QUERY.format(window=20, target=1000))
    gs.run(research_center_feed())
    for row in query.results[:5]:
        print(row)
"""

from repro.errors import ReproError
from repro.streams import (
    Attribute,
    Ordering,
    Record,
    StreamSchema,
    PKT_SCHEMA,
    TCP_SCHEMA,
    TraceConfig,
    research_center_feed,
    data_center_feed,
    ddos_feed,
)
from repro.dsms import Gigascope, ShardedGigascope, CostModel, CostBook
from repro.core import SamplingOperator

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "Attribute",
    "Ordering",
    "Record",
    "StreamSchema",
    "PKT_SCHEMA",
    "TCP_SCHEMA",
    "TraceConfig",
    "research_center_feed",
    "data_center_feed",
    "ddos_feed",
    "Gigascope",
    "ShardedGigascope",
    "CostModel",
    "CostBook",
    "SamplingOperator",
    "__version__",
]
