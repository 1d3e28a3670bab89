"""Shared fixtures for the serving tests: factories, feeds, solo runs.

The serving layer's correctness claim: whatever queries are registered,
however they share, whatever arrives or leaves mid-stream, each query's
rows are the oracle's over the records it was subscribed for
(``tests/test_oracle.py``, ``test_lifecycle.py``), and its metric
counters and cost accounts a private serial run's of the same text.
Tests that compare a served query with that run phrase it through
:func:`solo_state` / :func:`served_state`, so "equal" always means the
same three things.
"""

from __future__ import annotations

import glob
import os
from typing import Dict, List, Tuple

import pytest

from repro.dsms.cost import CostModel
from repro.dsms.runtime import Gigascope
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed
from repro.algorithms.bindings import (
    basic_subset_sum_library,
    distinct_sampling_library,
    heavy_hitters_library,
    reservoir_library,
    subset_sum_library,
)

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "queries"
)
#: every shipped example, including the unsound_* lint counterexamples —
#: the server must serve them all (unsound_unshardable exercises the
#: private-feed path: a stateful selection cannot share).
EXAMPLE_PATHS = sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.gsql")))
EXAMPLE_TEXTS: Dict[str, str] = {}
for _path in EXAMPLE_PATHS:
    with open(_path, "r", encoding="utf-8") as _fh:
        EXAMPLE_TEXTS[os.path.splitext(os.path.basename(_path))[0]] = _fh.read()

BATCH = 128


def make_instance(vectorize: bool = False) -> Gigascope:
    """One solo-shaped instance: private cost model + metrics registry."""
    gs = Gigascope(cost_model=CostModel(), vectorize=vectorize)
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.use_stateful_library(basic_subset_sum_library())
    gs.use_stateful_library(reservoir_library())
    gs.use_stateful_library(heavy_hitters_library())
    gs.use_stateful_library(distinct_sampling_library())
    return gs


@pytest.fixture(scope="session")
def records() -> List:
    config = TraceConfig(duration_seconds=10, rate_scale=0.01, seed=7)
    return list(research_center_feed(config))


@pytest.fixture(scope="session")
def big_records() -> List:
    config = TraceConfig(duration_seconds=30, rate_scale=0.01, seed=3)
    return list(research_center_feed(config))


#: (rows, comparable metric series, cost accounts) — the identity basis.
State = Tuple[tuple, tuple, tuple]


def instance_state(gs: Gigascope, name: str) -> State:
    rows = tuple(
        (row.schema.names, tuple(row.values))
        for row in gs.query(name).results
    )
    metrics = tuple(sorted(gs.metrics.comparable_items()))
    cost = tuple(sorted(gs.cost.accounts().items()))
    return rows, metrics, cost


def solo_state(
    text: str,
    records: List,
    name: str = "q",
    batch_size: int = BATCH,
    finish: bool = True,
    vectorize: bool = False,
) -> State:
    """The oracle: one private serial run of ``text`` over ``records``."""
    gs = make_instance(vectorize)
    gs.add_query(text, name=name)
    gs.start()
    for start in range(0, len(records), batch_size):
        gs.feed(records[start : start + batch_size])
    if finish:
        gs.finish()
    return instance_state(gs, name)


def served_state(sq) -> State:
    return instance_state(sq.instance, sq.name)
