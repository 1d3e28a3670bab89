#!/usr/bin/env python3
"""Soak a durable run: journal bytes per record and peak RSS over a long stream.

    PYTHONPATH=src python scripts/soak_durable.py                  # both feeds, 1M records each
    PYTHONPATH=src python scripts/soak_durable.py --feed steady --records 192000

The run is the paper's subset-sum sampler (``SUBSET_SUM_QUERY``, window
2, relax factor 10) with its rows retained, under
``DurableRunner(batch_size=1024, commit_interval=8)``, journalled to a
temporary directory.  The input is streamed, never held.  The steady
data-center feed runs at its default scale (1 000 records per stream
second, so 1M records need 1 200 s of it) with a sample target of 1000
per window.  The bursty research-center feed runs at its default scale
too (50–150 records per second) with a target of 100, so the sampler
keeps about half the records on both, and the first 24k bursty records
span about ten of the feed's rate regimes (mean 25 s): bytes per record
follow the rate, because a commit comes at each window close, so a
prefix inside one regime would not be the feed's average.

At each mark — 24k records, doubling, and the end of the run — the
journal's size is read at the first commit at or past it, and divided
by the records consumed there.  Each feed runs in a process of its own,
so its peak RSS (``ru_maxrss``) is its own.  Prints one table row per
mark and a JSON line per feed, and exits 1 when bytes per record at the
end differ from the 24k value by more than 25 %, or when peak RSS is
above the feed's bound in ``RSS_BOUND_MB`` (recorded in
docs/PERFORMANCE.md with the runs that set it).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from itertools import islice
from typing import Dict, List

from repro.algorithms.bindings import SUBSET_SUM_QUERY, subset_sum_library
from repro.dsms.durability import DurableRunner
from repro.dsms.runtime import Gigascope
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed

#: per feed: its records, and the sample the query keeps per window
FEEDS = {
    "steady": (lambda: data_center_feed(TraceConfig(duration_seconds=1500, seed=7)), 1000),
    "bursty": (lambda: research_center_feed(TraceConfig(duration_seconds=14_000, seed=7)), 100),
}
#: peak RSS a 1M-record soak may reach, per feed: the retained rows
#: (about half the records) are most of it
RSS_BOUND_MB = {"steady": 200, "bursty": 200}
FIRST_MARK = 24_000
TOLERANCE = 0.25


def soak(feed: str, records: int) -> Dict[str, object]:
    """One durable run of ``records`` records of ``feed``."""
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    source, target = FEEDS[feed]
    gs.add_query(SUBSET_SUM_QUERY.format(window=2, target=target), name="ss")
    marks: List[int] = []
    sizes: Dict[int, float] = {}
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "soak.journal")

        def on_commit(consumed: int, kind: str) -> None:
            while marks and consumed >= marks[0]:
                sizes[marks.pop(0)] = os.path.getsize(path) / consumed

        mark = FIRST_MARK
        while mark < records:
            marks.append(mark)
            mark *= 2
        runner = DurableRunner(gs, path, batch_size=1024, commit_interval=8, on_commit=on_commit)
        consumed = runner.run(islice(source(), records))
        sizes[consumed] = os.path.getsize(path) / consumed
        journal_mb = os.path.getsize(path) / 2**20
    first, last = sizes[min(sizes)], sizes[consumed]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "feed": feed,
        "records": consumed,
        "rows": len(gs.results("ss")),
        "bytes_per_record": {str(k): round(v, 2) for k, v in sorted(sizes.items())},
        "growth": round(last / first, 3),
        "journal_mb": round(journal_mb, 2),
        "peak_rss_mb": round(peak_mb, 1),
        "rss_bound_mb": RSS_BOUND_MB[feed],
        "ok": abs(last / first - 1) <= TOLERANCE and peak_mb <= RSS_BOUND_MB[feed],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--feed", choices=sorted(FEEDS) + ["all"], default="all")
    parser.add_argument("--records", type=int, default=1_000_000)
    args = parser.parse_args(argv)
    if args.feed == "all":
        status = 0
        for feed in sorted(FEEDS, reverse=True):
            command = [sys.executable, __file__, "--feed", feed, "--records", str(args.records)]
            status |= subprocess.run(command).returncode
        return status
    result = soak(args.feed, args.records)
    for records, per_record in result["bytes_per_record"].items():
        print(f"{args.feed:>7} {int(records):>9} records {per_record:>8.2f} B/record")
    print(json.dumps(result, sort_keys=True))
    if not result["ok"]:
        print(
            f"soak FAILED: {args.feed} bytes per record moved {result['growth']}x"
            f" (tolerance ±{TOLERANCE:.0%}) or peak RSS {result['peak_rss_mb']} MB"
            f" passed {result['rss_bound_mb']} MB",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
