#!/usr/bin/env python3
"""CI gates over benchmark result files.

    python scripts/check_bench_gate.py BENCH_throughput.json vectorized_selection_hot_path
    python scripts/check_bench_gate.py benchmarks/ledger/out/ss_steady.json py_calls_per_record 40

Two arguments: one entry of a tracked ``BENCH_*.json``, run after the
benchmark has regenerated it — fails if the entry's ``speedup`` dropped
below the ``ci_min_speedup`` floor recorded beside it.  The floor lives
in the JSON so the benchmark and the gate can't drift apart.

Three arguments: a perf-ledger result file (``run.py --out``), an
end-to-end metric and a ceiling — fails if any workload in the file
reads the metric above the ceiling.  Meant for the ledger's *counts*
(``py_calls_per_record``), which repeat exactly and so can gate on a
shared runner where rec/s cannot.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list) -> int:
    if len(argv) == 3:
        return ledger_gate(*argv)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    name, key = argv
    path = os.path.join(os.path.dirname(__file__), "..", name)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)[key]
        speedup, floor = entry["speedup"], entry["ci_min_speedup"]
    except (OSError, ValueError, KeyError) as exc:
        print(
            f"cannot read {key} from {name}: {exc!r} — did the benchmark run?",
            file=sys.stderr,
        )
        return 1
    print(f"{key}: {speedup}x (floor {floor}x) {json.dumps(entry, sort_keys=True)}")
    if speedup < floor:
        print(f"gate FAILED: {key} fell below {floor}x", file=sys.stderr)
        return 1
    return 0


def ledger_gate(path: str, metric: str, ceiling: str) -> int:
    try:
        limit = float(ceiling)
        with open(path, "r", encoding="utf-8") as fh:
            workloads = json.load(fh)["workloads"]
        readings = {
            name: entry["metrics"][metric]["value"]
            for name, entry in workloads.items()
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(
            f"cannot read {metric} from {path}: {exc!r} — did the ledger run?",
            file=sys.stderr,
        )
        return 1
    for name, value in readings.items():
        print(f"{name}: {metric} {value:.3f} (ceiling {limit:g})")
    over = [name for name, value in readings.items() if not value <= limit]
    if over or not readings:
        print(f"gate FAILED: {metric} above {limit:g} on {over}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
