"""Gibbons distinct sampling: the SFUN pack run by its operator query."""

from collections import Counter

import pytest

from repro.algorithms.bindings import (
    DISTINCT_SAMPLING_QUERY,
    distinct_sampling_library,
)
from repro.dsms.functions import hash_to_unit
from repro.dsms.runtime import Gigascope
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed


class TestOperatorQuery:
    def run_query(self, capacity=64, duration=30, scale=0.05, seed=21):
        config = TraceConfig(duration_seconds=duration, rate_scale=scale,
                             seed=seed)
        trace = list(research_center_feed(config))
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(distinct_sampling_library())
        handle = gs.add_query(
            DISTINCT_SAMPLING_QUERY.format(window=duration, capacity=capacity),
            name="ds",
        )
        gs.run(iter(trace))
        return trace, handle

    def test_sample_bounded_by_capacity(self):
        _, handle = self.run_query(capacity=64)
        assert 0 < len(handle.results) <= 64

    def test_sample_is_the_hash_prefix(self):
        # The sample is exactly {v : h(v) < 2^-level} over the distinct
        # values seen: a fixed random subset, independent of arrival order.
        trace, handle = self.run_query(capacity=64)
        level = handle.results[0][3]
        expected = {
            r["srcIP"] for r in trace if hash_to_unit(r["srcIP"]) < 2.0 ** -level
        }
        assert {row["srcIP"] for row in handle.results} == expected

    def test_multiplicities_exact(self):
        trace, handle = self.run_query(capacity=64)
        truth = Counter(r["srcIP"] for r in trace)
        for row in handle.results:
            assert row[2] == truth[row["srcIP"]]

    def test_distinct_estimate_from_query(self):
        trace, handle = self.run_query(capacity=64)
        true_distinct = len({r["srcIP"] for r in trace})
        level = handle.results[0][3]
        estimate = len(handle.results) * 2 ** level
        assert estimate == pytest.approx(true_distinct, rel=0.5)
