"""Shared helpers for vectorized-engine tests.

The columnar engine is held to the oracle like every deployment
(``tests/test_oracle.py``); what lives here is the small ``VAL`` schema
its value-domain cases run on, and a shared packet trace.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.streams.records import Record
from repro.streams.schema import Attribute, Ordering, StreamSchema
from repro.streams.traces import TraceConfig, research_center_feed


#: A small schema covering every dtype family the batch engine maps:
#: ordered int (window source), plain int, float (NaN carrier), bool.
VAL_SCHEMA = StreamSchema(
    "VAL",
    [
        Attribute("t", "int", Ordering.INCREASING),
        Attribute("x", "int"),
        Attribute("f", "float"),
        Attribute("b", "bool"),
    ],
)


def make_val_records(rows) -> List[Record]:
    return [Record(VAL_SCHEMA, list(row)) for row in rows]


@pytest.fixture(scope="session")
def packet_trace():
    """A deterministic research-center feed shared across parity tests."""
    config = TraceConfig(duration_seconds=45, rate_scale=0.01, seed=20050614)
    return list(research_center_feed(config))
