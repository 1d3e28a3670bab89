"""Command line of the perf ledger.

    python3 benchmarks/ledger/run.py --seed 20050614            # end to end
    python3 benchmarks/ledger/run.py --seed 20050614 --trace    # per layer
    python3 benchmarks/ledger/run.py --compare A.json B.json

Run from a checkout: the program under test is imported from ``src/``
next to ``benchmarks/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with a single
``--workload`` the metric names are bare, otherwise they are prefixed
with the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py", description=__doc__)
    parser.add_argument(
        "--workload", action="append", help="run only this workload (repeatable); default all six"
    )
    parser.add_argument("--seed", type=int, default=20050614, help="workload input seed")
    parser.add_argument(
        "--seconds", type=float, default=6.0, help="timed-round budget per workload"
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics, span file); 0: end-to-end metrics",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiply every workload's records per round"
    )
    parser.add_argument("--out", help="result file (default: out/ledger.json or out/layers.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser


def _print_report(result: Dict[str, Any]) -> None:
    stamp = result["stamp"]
    print(
        f"ledger {result['pass']} pass  commit {stamp['commit'][:12]}"
        f"{' (dirty)' if stamp['dirty'] else ''}  seed {stamp['seed']}  scale {stamp['scale']}"
        f"  python {stamp['python']} numpy {stamp['numpy']}  nproc {stamp['nproc']}"
    )
    for name, run in result["workloads"].items():
        wall, batch, slow = run["round_wall_s"], run["batch_ms"], run["round_slowdown"]
        print(
            f"\n{name}: {run['records']} records/round, {run['rounds']} rounds,"
            f" {'correct' if run['correct'] else 'FAILED'}"
            f" ({run['failed']} of {run['attempted']} records failed)"
        )
        print(
            f"  round wall s (uncalibrated): min {wall['min']:.4f} q1 {wall['q1']:.4f} median"
            f" {wall['median']:.4f} q3 {wall['q3']:.4f} n {wall['n']};"
            f" host slowdown: min {slow['min']:.2f} median {slow['median']:.2f}"
        )
        print(
            f"  batch ms (calibrated): q1 {batch['q1']:.3f} median {batch['median']:.3f}"
            f" q3 {batch['q3']:.3f} p99 {batch['p99']:.3f} n {batch['n']}"
        )
        for problem in run["problems"]:
            print(f"  PROBLEM {problem}")
        for metric, entry in run["metrics"].items():
            value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"  {metric:<52}{value:>14} {entry['unit']}")
        for layer, error in run.get("probe_errors", {}).items():
            print(f"  probe_error {layer}: {error}")
    calib = stamp["calib_ms"]
    print(
        f"\ncalibration kernel ms (nominal {stamp['calib_nominal_ms']}): min {calib['min']:.3f}"
        f" median {calib['median']:.3f} n {calib['n']}, p90/p10 spread {stamp['calib_spread']:.2f}"
    )
    if stamp["calib_spread"] > 1.25:
        print(
            "WARNING: the host changed speed during this run (calibration spread > 1.25);"
            " timings are calibrated against it, counts are unaffected"
        )


def _last_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The driver contract's result object."""
    runs = result["workloads"]
    metrics = {}
    for name, run in runs.items():
        for metric, entry in run["metrics"].items():
            if metric == "failed_share":
                continue  # carried by "attempted" and "failed"
            value = entry["value"]
            if value is None:
                print(f"probe failed, reporting 0: {name} {metric}", file=sys.stderr)
                value = 0.0
            key = metric if len(runs) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": all(run["correct"] for run in runs.values()),
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    if args.compare:
        from benchmarks.ledger.compare import compare

        lines, worse = compare(*args.compare)
        print("\n".join(lines))
        return 1 if worse else 0

    from benchmarks.ledger.ledger import OUT_DIR, run_ledger

    result = run_ledger(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
    )
    spans = result.pop("spans", None)
    if spans is not None:
        with open(os.path.join(OUT_DIR, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"stamp": result["stamp"], "spans": spans}, fh)
    out = args.out or os.path.join(OUT_DIR, "layers.json" if args.trace else "ledger.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    _print_report(result)
    print(f"result file: {out}")
    print(json.dumps(_last_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
