"""Byte identity of every query node, with no second checkout to compare.

Each shipped example (``examples/queries/*.gsql``) and each
``bindings.py`` query runs serially on the tuple engine over both paper
feeds; four digests of the run are pinned in ``goldens/nodes.json``:

* ``rows`` — every query's output rows, in emission order, and the
  message of the error that stopped the run, if one did;
* ``checkpoint`` — the pickled operator checkpoint taken mid-stream;
* ``cost`` — the cost accounts at the end;
* ``counters`` — every metric series at the end.

The goldens were recorded before the operators' run loops were
generated code — the ``raises_cleaning_by`` and ``raises_having*`` cases
before the cleaning pass and the window close were — so a change to how
a node is run that moves any row,
charge, counter or checkpoint byte fails here.  Regenerate with

    PYTHONPATH=src python -m pytest tests/dsms/test_node_golden.py --update-goldens

only after a change that is meant to move them.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
from itertools import islice
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.algorithms.bindings import (
    BASIC_SUBSET_SUM_QUERY,
    DISTINCT_SAMPLING_QUERY,
    HEAVY_HITTERS_QUERY,
    MIN_HASH_QUERY,
    PREFILTER_QUERY,
    RESERVOIR_QUERY,
    SUBSET_SUM_QUERY,
    basic_subset_sum_library,
    distinct_sampling_library,
    heavy_hitters_library,
    reservoir_library,
    subset_sum_library,
    subset_sum_query,
)
from repro.dsms.cost import CostModel
from repro.dsms.runtime import Gigascope
from repro.errors import ExecutionError
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed

_RAISES = "10/(len - 628) >= 0"
GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "nodes.json")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "queries"

#: name -> the texts registered in order; ``{0}`` names the first query
QUERIES: Dict[str, Tuple[str, ...]] = {
    **{path.stem: (path.read_text(),) for path in sorted(EXAMPLES.glob("*.gsql"))},
    "subset_sum_2s": (SUBSET_SUM_QUERY.format(window=2, target=10),),
    "subset_sum_per_source": (
        SUBSET_SUM_QUERY.format(window=2, target=5).replace(
            "\nHAVING", " SUPERGROUP BY tb, srcIP\nHAVING"
        ),
    ),
    "basic_subset_sum": (BASIC_SUBSET_SUM_QUERY.format(z=500),),
    "prefilter_chain": (
        PREFILTER_QUERY.format(z=50),
        subset_sum_query(window=2, target=10, stream="{0}"),
    ),
    "reservoir_2s": (RESERVOIR_QUERY.format(window=2, target=20),),
    "heavy_hitters_2s": (HEAVY_HITTERS_QUERY.format(window=2, bucket=20),),
    "distinct_2s": (DISTINCT_SAMPLING_QUERY.format(window=2, capacity=20),),
    "min_hash_2s": (MIN_HASH_QUERY.format(window=2, k=3),),
    # every built-in aggregate, a WHERE and a HAVING, and two tuple-fed
    # superaggregates next to a group-fed one
    "aggregate": (
        "SELECT tb, srcIP, sum(len), count(*), min(len), max(len), avg(len),"
        " count_distinct(destIP), first(len), last(len) FROM TCP WHERE len > 100"
        " GROUP BY time/2 as tb, srcIP HAVING count(*) > 1",
    ),
    "superaggregates": (
        "SELECT tb, srcIP, sum(len), min(len), max(len), count$(*)"
        " FROM TCP WHERE len % 3 <> 1 AND sum$(len) >= 0"
        " GROUP BY time/2 as tb, srcIP SUPERGROUP BY tb"
        " HAVING count(*) > 1 CLEANING WHEN count_distinct$(*) > 40"
        " CLEANING BY count(*) > 1",
    ),
    # a record 2 261 (steady) or 2 417 (bursty) records in divides by zero
    **{
        f"raises_{kind}": (text.format(where=_RAISES),)
        for kind, text in {
            "selection": "SELECT time, len FROM TCP WHERE {where}",
            "aggregation": "SELECT tb, count(*), sum(len) FROM TCP WHERE {where}"
            " GROUP BY time/2 as tb",
            "sampling": "SELECT tb, srcIP, count(*) FROM TCP WHERE {where}"
            " GROUP BY time/2 as tb, srcIP SUPERGROUP BY tb HAVING count_distinct$(*) > 0"
            " CLEANING WHEN count_distinct$(*) > 30 CLEANING BY count(*) > 1",
        }.items()
    },
    # a group clause that divides by zero partway through a cleaning pass
    # or a window close, after that pass has evicted or emitted groups
    "raises_cleaning_by": (
        "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/2 as tb, srcIP SUPERGROUP BY tb"
        " CLEANING WHEN count_distinct$(*) > 30 CLEANING BY 10/(count(*) - 4) >= 0",
    ),
    "raises_having": (
        "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/2 as tb, srcIP SUPERGROUP BY tb"
        " HAVING 10/(count(*) - 4) >= 0 AND count_distinct$(*) > 0",
    ),
    "raises_having_aggregation": (
        "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/2 as tb, srcIP"
        " HAVING 10/(count(*) - 4) >= 0",
    ),
    # a computed group-by item is read before the WHERE: the record the
    # WHERE rejects still divides by zero
    "raises_group_by": (
        "SELECT tb, q, count(*) FROM TCP WHERE len <> 628"
        " GROUP BY time/2 as tb, 10/(len - 628) as q SUPERGROUP BY tb"
        " HAVING count_distinct$(*) > 0",
    ),
    # a reader next to a mutator in one CLEANING BY: local_count moves
    # current_bucket() from group to group within a pass
    "readers_mixed": (
        "SELECT tb, srcIP, sum(len), count(*) FROM TCP GROUP BY time/2 as tb, srcIP"
        " CLEANING WHEN local_count(20) = TRUE"
        " CLEANING BY local_count(1000003) = FALSE"
        " AND count(*) >= current_bucket() - first(current_bucket())",
    ),
    # a WHERE that names a group-by variable reads it through the key
    "where_names_key": (
        "SELECT tb, srcIP, count(*) FROM TCP WHERE srcIP % 2 = 0"
        " GROUP BY time/2 as tb, srcIP SUPERGROUP BY tb HAVING count_distinct$(*) > 0"
        " CLEANING WHEN count_distinct$(*) > 30 CLEANING BY count(*) > 1",
    ),
}

FEEDS = {
    "steady": list(islice(data_center_feed(TraceConfig(rate_scale=0.0005, seed=27)), 4000)),
    "bursty": list(islice(research_center_feed(TraceConfig(rate_scale=0.005, seed=27)), 4000)),
}
BATCH = 256


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def observe(texts: Tuple[str, ...], records: List[Any]) -> Dict[str, str]:
    """One serial run: its four digests."""
    gs = Gigascope(cost_model=CostModel())
    gs.register_stream(TCP_SCHEMA)
    for library in (
        subset_sum_library(relax_factor=10.0),
        basic_subset_sum_library(),
        reservoir_library(),
        heavy_hitters_library(),
        distinct_sampling_library(),
    ):
        gs.use_stateful_library(library)
    names = [f"q{i}" for i in range(len(texts))]
    for text, name in zip(texts, names):
        gs.add_query(text.format(*names), name=name)
    gs.start()
    checkpoint, error = b"", None
    try:
        for start in range(0, len(records), BATCH):
            gs.feed(records[start : start + BATCH])
            if start + BATCH == len(records) // 2 // BATCH * BATCH:
                checkpoint = pickle.dumps(gs.checkpoint()["queries"])
        gs.finish()
    except ExecutionError as exc:
        # without its position: a heavy query's error now points into
        # the text the user registered, where it pointed into the text
        # the runtime rewrote (tests/dsms/test_runtime.py)
        error = str(exc).rsplit(" (at line ", 1)[0]
    rows = [(name, [r.values for r in gs.results(name)]) for name in names] + [error]
    counters = [(s.name, s.labels, s.value) for s in gs.metrics.series()]
    return {
        "rows": digest(repr(rows).encode()),
        "checkpoint": digest(checkpoint),
        "cost": digest(repr(sorted(gs.cost.accounts().items())).encode()),
        "counters": digest(repr(counters).encode()),
    }


CASES = [(query, feed) for query in QUERIES for feed in FEEDS]


@pytest.fixture(scope="module")
def golden(request) -> Dict[str, Dict[str, str]]:
    if request.config.getoption("--update-goldens"):
        seen = {f"{q}/{f}": observe(QUERIES[q], FEEDS[f]) for q, f in CASES}
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(seen, fh, indent=1, sort_keys=True)
            fh.write("\n")
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("query, feed", CASES, ids=[f"{q}-{f}" for q, f in CASES])
def test_a_node_runs_as_it_did(golden, query, feed):
    assert observe(QUERIES[query], FEEDS[feed]) == golden[f"{query}/{feed}"]


def test_every_case_has_a_golden(golden):
    assert sorted(golden) == sorted(f"{q}/{f}" for q, f in CASES)


def test_an_emitted_node_reads_as_code():
    """One node of each kind, and a windowed node's close, printed
    (``pytest -s`` shows them): code that reads as code, nothing of the
    query text in it, and one code object for two replicas whose
    constants differ."""
    texts = {
        "selection": "SELECT time, srcIP, UMAX(len, {0}) FROM TCP WHERE len > {0}",
        "aggregation": "SELECT tb, srcIP, sum(len), min(len) FROM TCP WHERE len > {0}"
        " GROUP BY time/2 as tb, srcIP HAVING count(*) > 1",
        "sampling": SUBSET_SUM_QUERY.format(window=2, target="{0}"),
    }
    for kind, text in texts.items():
        operators = []
        for constant in (7919, 7907):
            gs = Gigascope()
            gs.register_stream(TCP_SCHEMA)
            gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
            operators.append(gs.add_query(text.format(constant), name="q").operator)
        nodes = [op.process_many for op in operators]
        source = inspect.getsource(nodes[0])
        print(f"-- {kind}\n{source}")
        assert source.startswith("def process_many(self, records, out=None, k0=k0")
        assert "for record in records:" in source and "finally:" in source
        assert "7919" not in source and "ssample" not in source and "TCP" not in source
        assert nodes[0].__func__.__code__ is nodes[1].__func__.__code__
        assert nodes[0].__defaults__ != nodes[1].__defaults__
        if kind == "selection":
            continue
        closes = [op._emit_window for op in operators]
        source = inspect.getsource(closes[0])
        print(f"-- {kind} window close\n{source}")
        assert source.startswith("def _emit_window(self, k0=k0")
        assert "rows.append(" in source and "finally:" in source
        assert "ssfinal_clean" not in source and "UMAX" not in source and "tb" not in source
        assert closes[0].__func__.__code__ is closes[1].__func__.__code__
