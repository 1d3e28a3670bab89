#!/usr/bin/env python
"""Reservoir sampling: what the operator formulation keeps, against the stream.

The paper's §6.6 reservoir query draws 100 uniform samples per window
inside the generic sampling operator: Vitter's skip generation admits
buffered candidates, and CLEANING phases (tolerance T) replay them as the
reservoir replacements Algorithm X would have made, so the survivors are
a uniform reservoir sample.

The report checks each window's sample against what a uniform sample of
n from the window's N packets must be: exactly n distinct packets of that
window, with a mean arrival position near the window's middle.  It also
shows the work skip generation saves: candidates admitted against
packets seen.

Run:  python examples/reservoir_vs_operator.py
"""

import statistics
from collections import defaultdict

from repro import Gigascope, TCP_SCHEMA, TraceConfig, research_center_feed
from repro.algorithms import RESERVOIR_QUERY, reservoir_library

N = 100
WINDOW = 30


def main() -> None:
    config = TraceConfig(duration_seconds=90, rate_scale=0.02)
    trace = list(research_center_feed(config))

    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(reservoir_library(tolerance=15))
    # The paper's query, selecting each sample's arrival stamp (uts).
    query = RESERVOIR_QUERY.replace("SELECT tb, srcIP, destIP", "SELECT tb, uts")
    handle = gs.add_query(query.format(window=WINDOW, target=N), name="rs")
    gs.run(iter(trace))

    # --- the exact answer: each window's packets, in arrival order ------------
    position = {}
    seen = defaultdict(int)
    for record in trace:
        window = record["time"] // WINDOW
        position[record["uts"]] = (window, seen[window])
        seen[window] += 1

    sampled = defaultdict(list)
    for row in handle.results:
        window, index = position[row["uts"]]
        assert window == row["tb"], "a sample must come from its own window"
        sampled[window].append(index)

    print(f"Operator query (paper §6.6): {N} samples per {WINDOW}s window")
    for window in sorted(seen):
        indices = sampled[window]
        assert len(set(indices)) == len(indices) == min(N, seen[window])
        stats = handle.operator.window_stats[window]
        print(
            f"  window {window}: packets={seen[window]:>5}"
            f"  candidates admitted={stats.tuples_admitted:>5}"
            f"  cleanings={stats.cleaning_phases}"
            f"  final={len(indices)}"
        )
        print(
            f"    sample mean position {statistics.mean(indices):,.0f}"
            f" (uniform => ~{(seen[window] - 1) / 2:,.0f})"
        )


if __name__ == "__main__":
    main()
