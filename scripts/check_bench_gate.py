#!/usr/bin/env python3
"""CI gate over one entry of a tracked ``BENCH_*.json``.

    python scripts/check_bench_gate.py BENCH_serving.json serving_prefilter_sharing

Run after the benchmark has regenerated the JSON: fails if the entry's
``speedup`` dropped below the ``ci_min_speedup`` floor recorded beside
it.  The floor lives in the JSON so the benchmark and the gate can't
drift apart.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list) -> int:
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


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
