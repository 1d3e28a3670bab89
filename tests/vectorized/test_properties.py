"""The ``VAL`` slice of the oracle generator, one query at a time.

Hypothesis draws adversarial value streams — NaN and infinite floats,
negative ints, bools, degenerate single-row and all-filtered inputs —
and the columnar engine is held to the oracle's rows, value types
included, and to the tuple engine's one-run series and cost accounts
(``tests/test_oracle.py::agree``).  The queries are the generator's
``val_*`` families, and one more.
"""

from __future__ import annotations

from hypothesis import given, settings

from tests.test_oracle import FAMILIES, Case, Family, agree, stream, val_rows
from tests.vectorized.conftest import VAL_SCHEMA


def columnar(family, records) -> None:
    agree(Case(FAMILIES.get(family) or Family((family,), VAL_SCHEMA), stream(records), vectorize=True))


@settings(max_examples=20, deadline=None)
@given(val_rows())
def test_selection_equivalence(records):
    columnar("val_selection", records)


@settings(max_examples=20, deadline=None)
@given(val_rows())
def test_selection_arithmetic_equivalence(records):
    columnar("val_arithmetic", records)


@settings(max_examples=15, deadline=None)
@given(val_rows())
def test_aggregation_equivalence(records):
    columnar("val_aggregates", records)


@settings(max_examples=15, deadline=None)
@given(val_rows())
def test_float_aggregation_equivalence(records):
    """Float sums use the sequential fold: addition order (and NaN/inf
    propagation) must match the oracle's exactly."""
    columnar("val_floats", records)


@settings(max_examples=15, deadline=None)
@given(val_rows())
def test_having_and_distinct_equivalence(records):
    columnar("val_having", records)


@settings(max_examples=10, deadline=None)
@given(val_rows(min_size=1, max_size=3))
def test_tiny_streams_equivalence(records):
    """Single-record and near-empty streams: window open/close edges."""
    columnar("SELECT tb, sum(x), avg(x) FROM VAL GROUP BY t/10 AS tb", records)
