#!/usr/bin/env python
"""Heavy hitters: the top traffic sources per minute.

The paper's §6.6 heavy-hitters query runs inside the DSMS: the
Manku–Motwani pruning rule expressed as a CLEANING clause of the generic
sampling operator.  Its answer is then checked against the exact
per-source counts of the trace, for lossy counting's two guarantees: no
source above the support threshold is missed, and no count falls short
by more than the number of buckets (εN).

Run:  python examples/heavy_hitters_report.py
"""

from collections import Counter, defaultdict

from repro import Gigascope, TCP_SCHEMA, TraceConfig, research_center_feed
from repro.algorithms import HEAVY_HITTERS_QUERY, heavy_hitters_library
from repro.dsms.functions import _ip_str as ip_str

WINDOW = 60
BUCKET = 100  # w = ceil(1/epsilon)  ->  epsilon = 1%


def main() -> None:
    config = TraceConfig(duration_seconds=120, rate_scale=0.02)
    trace = list(research_center_feed(config))

    # --- operator-hosted: the paper's query -----------------------------------
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(heavy_hitters_library(bucket_width=BUCKET))
    query = gs.add_query(
        HEAVY_HITTERS_QUERY.format(window=WINDOW, bucket=BUCKET), name="hh"
    )
    gs.run(iter(trace))

    per_window = defaultdict(list)
    for row in query.results:
        per_window[row["tb"]].append((row[3], row["srcIP"], row[2]))

    print(f"Top sources per {WINDOW}s window (operator query, ε=1/{BUCKET}):")
    for window in sorted(per_window):
        top = sorted(per_window[window], reverse=True)[:5]
        print(f"  window {window}:")
        for packets, src, total_bytes in top:
            print(
                f"    {ip_str(src):>15}  packets≈{packets:<6} bytes≈{total_bytes:,}"
            )

    # --- the exact answer: per-source counts of window 0 ---------------------
    window0 = [r for r in trace if r["time"] // WINDOW == 0]
    truth = Counter(r["srcIP"] for r in window0)
    reported = {row["srcIP"]: row[3] for row in query.results if row["tb"] == 0}
    n = len(window0)
    buckets = n // BUCKET + 1

    support = 0.02
    print(
        f"\nExact counts, window 0, support {support:.0%}:"
        f" {len(reported)} sources kept of {len(truth)} seen"
    )
    for src, estimate in sorted(reported.items(), key=lambda kv: -kv[1])[:5]:
        true_count = truth[src]
        print(
            f"    {ip_str(src):>15}  est={estimate:<6}"
            f" true={true_count:<6} undercount={true_count - estimate}"
        )
    # No count exceeds the truth or falls short of it by more than εN.
    assert all(0 <= truth[src] - est <= buckets for src, est in reported.items())
    # The no-false-negative guarantee: every source above support*N shows up.
    missing = [
        src for src, count in truth.items()
        if count >= support * n and src not in reported
    ]
    assert not missing, missing
    print(f"    sources above support missed by the query: {len(missing)} (must be 0)")


if __name__ == "__main__":
    main()
