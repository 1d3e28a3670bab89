"""``python -m repro`` — reproduce the paper's §7 evaluation.

Runs every experiment EXPERIMENTS.md reports, at the size that file
records (about 20 s), and prints each table.  Rewrites
``BENCH_figures.json`` in the current directory, then checks the paper's
claims (:meth:`repro.bench.figures.Evaluation.verdicts`): exits 1, naming
each claim that no longer holds, and 0 when all hold.  Every run is
deterministic, so a second one leaves ``BENCH_figures.json`` unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import figures

RECORD_PATH = "BENCH_figures.json"


def main(argv=None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the SIGMOD 2005 sampling-operator evaluation.",
    ).parse_args(argv)

    evaluation = figures.evaluate()
    for title, table in evaluation.tables():
        print(f"=== {title} ===\n{table}\n")

    with open(RECORD_PATH, "w", encoding="utf-8") as fh:
        json.dump(evaluation.record(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    verdicts = evaluation.verdicts()
    print("=== Claims ===")
    for claim, holds in verdicts:
        print(f"{'holds' if holds else 'BROKEN':>6}  {claim}")
    broken = [claim for claim, holds in verdicts if not holds]
    for claim in broken:
        print(f"claim does not hold: {claim}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
