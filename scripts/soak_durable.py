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

Without ``--feed`` the soak ends with one more fixed run, in the parent
once the feeds' processes are done: the steady feed's query with its
threshold kept per ``tb, srcIP`` supergroup, which the SPLIT can
partition, on two supervised shards up to ``SHARDED_RECORDS`` records.
Each of its marks is a whole run of its own, read at its end: a sharded
run's final entry holds every merged row once, so the end of one run is
no mark for the commits before it.  Its peak RSS is the supervisor's,
not its workers'.
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
from repro.analysis.legality import ExecTarget
from repro.deploy import deploy
from repro.dsms.durability import DurableRunner
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed

#: per feed: its records, and the sample the query keeps per window
FEEDS = {
    "steady": (lambda: data_center_feed(TraceConfig(duration_seconds=1500, seed=7)), 1000),
    "bursty": (lambda: research_center_feed(TraceConfig(duration_seconds=14_000, seed=7)), 100),
}
#: peak RSS a 1M-record soak may reach, per feed: the retained rows
#: (about half the records) are most of it; and the sharded run's
#: supervisor, which holds every row of its shards and of the MERGE
RSS_BOUND_MB = {"steady": 200, "bursty": 200, "sharded": 200}
#: records of the sharded run's last mark
SHARDED_RECORDS = 192_000
FIRST_MARK = 24_000
TOLERANCE = 0.25


def soak(feed: str, records: int, shards: int = 0) -> Dict[str, object]:
    """One durable run of ``records`` records of ``feed``, serial or on
    ``shards`` supervised shards."""
    gs = deploy(
        ExecTarget(shards=shards or None, supervise=bool(shards)),
        libraries=(subset_sum_library(relax_factor=10.0),),
    )
    source, target = FEEDS[feed]
    text = SUBSET_SUM_QUERY.format(window=2, target=target)
    if shards:
        text = text.replace("uts\n", "uts SUPERGROUP BY tb, srcIP\n")
    gs.add_query(text, name="ss")
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
    return judged(
        {
            "feed": feed,
            "records": consumed,
            "rows": len(gs.results("ss")),
            "journal_mb": round(journal_mb, 2),
        },
        sizes,
        "sharded" if shards else feed,
    )


def judged(result: Dict[str, object], sizes: Dict[int, float], bound: str) -> Dict[str, object]:
    """``result`` with its bytes per record at each mark, its growth
    from the first mark to the last, its peak RSS and its verdict."""
    first, last = sizes[min(sizes)], sizes[max(sizes)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        **result,
        "bytes_per_record": {str(k): round(v, 2) for k, v in sorted(sizes.items())},
        "growth": round(last / first, 3),
        "peak_rss_mb": round(peak_mb, 1),
        "rss_bound_mb": RSS_BOUND_MB[bound],
        "ok": abs(last / first - 1) <= TOLERANCE and peak_mb <= RSS_BOUND_MB[bound],
    }


def soak_sharded() -> Dict[str, object]:
    """The sharded run: a whole run per mark, each read at its end."""
    runs, records = [], FIRST_MARK
    while records <= SHARDED_RECORDS:
        runs.append(soak("steady", records, shards=2))
        records *= 2
    sizes = {run["records"]: run["bytes_per_record"][str(run["records"])] for run in runs}
    return judged({**runs[-1], "feed": "steady/2 supervised shards"}, sizes, "sharded")


def report(result: Dict[str, object]) -> int:
    """Print ``result``'s table rows and JSON line; 1 when it failed."""
    feed = result["feed"]
    for records, per_record in result["bytes_per_record"].items():
        print(f"{feed:>7} {int(records):>9} records {per_record:>8.2f} B/record")
    print(json.dumps(result, sort_keys=True))
    if not result["ok"]:
        print(
            f"soak FAILED: {feed} bytes per record moved {result['growth']}x"
            f" (tolerance ±{TOLERANCE:.0%}) or peak RSS {result['peak_rss_mb']} MB"
            f" passed {result['rss_bound_mb']} MB",
            file=sys.stderr,
        )
        return 1
    return 0


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
        return status | report(soak_sharded())
    return report(soak(args.feed, args.records))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
