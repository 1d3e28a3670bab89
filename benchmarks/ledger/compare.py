"""``--compare A.json B.json``: did B get worse than A, by the ledger's bounds?

For every (workload, end-to-end metric) prints both values, the change
with its base, the bound, and a verdict:

* ``worse`` — B is worse than A by more than the bound;
* ``unresolved`` — the spread of either side's samples is wider than the
  bound and not every sample of B is better than every sample of A, so
  the two cannot be told apart;
* ``ok`` otherwise.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from benchmarks.ledger.measure import spread
from benchmarks.ledger.spec import END_TO_END


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # Worsening as a share of A's value; from an A of 0 any rise is unbounded.
    worsening = sign * (b["value"] - a["value"])
    if a["value"]:
        worsening /= abs(a["value"])
    elif worsening > 0:
        worsening = float("inf")
    if better == "lower":
        all_better = max(b["samples"]) < min(a["samples"])
    else:
        all_better = min(b["samples"]) > max(a["samples"])
    if max(spread(a["samples"]), spread(b["samples"])) > bound and not all_better:
        return "unresolved"
    return "worse" if worsening > bound else "ok"


def compare(path_a: str, path_b: str) -> Tuple[List[str], int]:
    """The report lines and the number of ``worse`` verdicts."""
    with open(path_a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    lines = [
        f"A: {path_a}  commit {doc_a['stamp']['commit'][:12]} seed {doc_a['stamp']['seed']}",
        f"B: {path_b}  commit {doc_b['stamp']['commit'][:12]} seed {doc_b['stamp']['seed']}",
        f"{'workload':<13}{'metric':<21}{'A':>14}{'B':>14}{'B vs A':>10}{'bound':>8}  verdict",
    ]
    worse = 0
    for name, run_a in doc_a["workloads"].items():
        run_b = doc_b["workloads"].get(name)
        if run_b is None:
            lines.append(f"{name:<13}missing from B")
            worse += 1
            continue
        for metric, (unit, better, bound, _) in END_TO_END.items():
            a, b = run_a["metrics"][metric], run_b["metrics"][metric]
            word = verdict(a, b, better, bound)
            worse += word == "worse"
            change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
            lines.append(
                f"{name:<13}{metric:<21}{a['value']:>14.6g}{b['value']:>14.6g}"
                f"{change:>+9.1%} {bound:>7.0%}  {word} ({unit}, {better} is better)"
            )
    return lines, worse
