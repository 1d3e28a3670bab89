#!/usr/bin/env python
"""Distinct sampling: how many distinct sources, and how rare are they?

Runs Gibbons distinct sampling (the paper's reference [19]) as a query
hosted by the generic sampling operator, and uses the sample to estimate
(a) the number of distinct source addresses per window and (b) the
fraction of sources that sent a single packet, cross-checked against
exact values.  The sample itself is checked against its definition: the
distinct sources whose hash falls below ``2^-level``.

Run:  python examples/distinct_count_report.py
"""

from collections import Counter

from repro import Gigascope, TCP_SCHEMA, TraceConfig, research_center_feed
from repro.algorithms import DISTINCT_SAMPLING_QUERY, distinct_sampling_library
from repro.dsms.functions import hash_to_unit

WINDOW = 60
CAPACITY = 64


def main() -> None:
    config = TraceConfig(duration_seconds=60, rate_scale=0.05, seed=33)
    trace = list(research_center_feed(config))
    truth = Counter(r["srcIP"] for r in trace)
    true_distinct = len(truth)
    true_rarity = sum(1 for c in truth.values() if c == 1) / true_distinct

    # --- operator-hosted query -------------------------------------------------
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(distinct_sampling_library())
    handle = gs.add_query(
        DISTINCT_SAMPLING_QUERY.format(window=WINDOW, capacity=CAPACITY),
        name="ds",
    )
    gs.run(iter(trace))

    level = handle.results[0][3] if handle.results else 0
    estimate = len(handle.results) * 2 ** level
    singles = sum(1 for row in handle.results if row[2] == 1)
    rarity = singles / len(handle.results) if handle.results else 0.0

    print("Operator-hosted distinct sampling (capacity {}):".format(CAPACITY))
    print(f"  sample size        : {len(handle.results)} (level {level})")
    print(f"  distinct sources   : est {estimate:.0f}  vs true {true_distinct}")
    print(f"  rarity (singletons): est {rarity:.2f}  vs true {true_rarity:.2f}")

    # --- the exact answer: the hash-prefix rule ---------------------------------
    expected = {src for src in truth if hash_to_unit(src) < 2.0 ** -level}
    operator_sample = {row["srcIP"] for row in handle.results}
    assert operator_sample == expected, "the sample must be the hash prefix"
    print(f"  (the sample is exactly the {len(expected)} sources hashing below 2^-{level})")


if __name__ == "__main__":
    main()
