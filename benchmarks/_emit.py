"""JSON emitter and timers for the throughput benchmarks.

Each test in ``test_throughput.py`` merges its measured numbers into the
flat ``{benchmark_name: payload}`` document ``BENCH_throughput.json`` at
the repo root, for trend tracking and the CI gate
(``scripts/check_bench_gate.py``).  Rewriting the whole document on every
merge keeps it valid JSON regardless of which subset of benchmarks ran.
(``BENCH_figures.json`` is written whole by ``python -m repro``.)
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.ledger.measure import Host

#: Default best-of rounds for wall-clock measurements.
ROUNDS = 3


def record_bench(out_path: str, name: str, payload: dict) -> None:
    """Merge one benchmark's numbers into the JSON document at *out_path*."""
    data = {}
    if os.path.exists(out_path):
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[name] = payload
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    label = os.path.basename(out_path).rsplit(".", 1)[0]
    print(f"\n{label}[{name}]:", json.dumps(payload, sort_keys=True))


def best_of(fn, rounds: int = ROUNDS) -> float:
    """Minimum wall-clock seconds over *rounds* runs of ``fn()``."""
    elapsed = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


def kernel_seconds(samples: int = 7) -> float:
    """Best-of cost of one run of the perf ledger's calibration kernel:
    interpreter-bound dictionary work that slows down with the host, so
    a cost counted in kernel runs travels between machines."""
    costs = []
    for _ in range(samples):
        host = Host()
        host.sample()
        costs.extend(host.costs)
    return min(costs)
