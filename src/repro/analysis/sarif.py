"""Machine-readable lint output: SARIF 2.1.0 and plain JSON.

``repro lint --format sarif`` emits a `SARIF 2.1.0
<https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
log so CI systems (GitHub code scanning among them) can render the
diagnostics as inline annotations on the offending query lines;
``--format json`` is the same data in a small stable schema for ad-hoc
tooling.  Both formats serialize a list of
:class:`~repro.analysis.linter.LintResult` objects — one per linted
file — so a whole-corpus run lands in a single report.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.legality import RULES
from repro.analysis.linter import LintResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: One-line descriptions of every rule family member, keyed by rule id.
#: The SARIF ``rules`` array is built from the subset that actually
#: fired; docs/LINT_RULES.md is the human catalogue.
RULE_DESCRIPTIONS: Dict[str, str] = {
    "SA001": "unbounded group table",
    "SA002": "sampling SFUN re-evaluated outside WHERE",
    "SA003": "SUPERGROUP with nothing that uses it",
    "SA004": "constant CLEANING predicate",
    "SA005": "SFUN signature mismatch",
    "SA006": "non-deterministic group-by expression",
    "SA007": "constant division by zero",
    "SA008": "function arity mismatch",
    "SA009": "duplicate output column name",
    "SA010": "type mismatch",
    "SA011": "predicate is not boolean",
    "SA012": "SFUN argument below its least value",
    "SA020": "unknown stream",
    "SA021": "unknown function",
    "SA022": "unknown superaggregate",
    "SA023": "duplicate group-by variable",
    "SA024": "GROUP BY references an unknown column",
    "SA025": "GROUP BY expression uses calls it may not",
    "SA026": "SUPERGROUP variable is not a GROUP BY variable",
    "SA027": "clause references an unavailable column",
    "SA028": "clause uses a call kind it may not",
    "SA029": "clause requires a GROUP BY",
    "SA030": "CLEANING WHEN and CLEANING BY must appear together",
    "SA090": "lexer error",
    "SA091": "parse error",
    "SA101": "group table beyond the cardinality budget",
    "SA102": "prefilterable WHERE conjunct",
    "SA201": "non-linear aggregate over a sample",
    "SA202": "uncorrected linear aggregate",
    "SA203": "chained sampler families",
    "SA204": "grouping on a conditioned column",
    # SA3xx / SA401: the legality table names its own rows
    **{rule.id: rule.title for rule in RULES},
}

_SARIF_LEVELS: Dict[Severity, str] = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _diagnostic_json(diag: Diagnostic) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "rule": diag.rule,
        "severity": str(diag.severity),
        "message": diag.message,
    }
    if diag.span is not None and diag.span.line > 0:
        entry["line"] = diag.span.line
        entry["col"] = diag.span.col
        entry["length"] = diag.span.length
    if diag.hint:
        entry["hint"] = diag.hint
    return entry


def results_to_json(results: Iterable[LintResult]) -> Dict[str, Any]:
    """The plain-JSON report: one entry per file, diagnostics inline."""
    files: List[Dict[str, Any]] = []
    for result in results:
        files.append(
            {
                "filename": result.filename,
                "target": (
                    result.target.describe() if result.target is not None else None
                ),
                "ok": result.ok,
                "disabled": sorted(result.disabled),
                "diagnostics": [
                    _diagnostic_json(d) for d in result.diagnostics
                ],
            }
        )
    return {"version": 1, "files": files}


def _sarif_result(result: LintResult, diag: Diagnostic) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "ruleId": diag.rule,
        "level": _SARIF_LEVELS[diag.severity],
        "message": {
            "text": diag.message + (f" (hint: {diag.hint})" if diag.hint else "")
        },
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": result.filename},
                }
            }
        ],
    }
    if diag.span is not None and diag.span.line > 0:
        entry["locations"][0]["physicalLocation"]["region"] = {
            "startLine": diag.span.line,
            "startColumn": diag.span.col,
            "endColumn": diag.span.col + max(diag.span.length, 1),
        }
    return entry


def results_to_sarif(
    results: Iterable[LintResult], tool_version: Optional[str] = None
) -> Dict[str, Any]:
    """A SARIF 2.1.0 log of every diagnostic across ``results``."""
    materialized = list(results)
    fired = sorted(
        {d.rule for result in materialized for d in result.diagnostics}
    )
    driver: Dict[str, Any] = {
        "name": "repro-lint",
        "informationUri": "docs/LINT_RULES.md",
        "rules": [
            {
                "id": rule,
                "shortDescription": {
                    "text": RULE_DESCRIPTIONS.get(rule, rule)
                },
            }
            for rule in fired
        ],
    }
    if tool_version is not None:
        driver["version"] = tool_version
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": [
                    _sarif_result(result, diag)
                    for result in materialized
                    for diag in result.diagnostics
                ],
            }
        ],
    }


def render_report(results: Iterable[LintResult], fmt: str) -> str:
    """Serialize ``results`` in ``fmt`` (``json`` or ``sarif``)."""
    if fmt == "json":
        return json.dumps(results_to_json(results), indent=2, sort_keys=True)
    if fmt == "sarif":
        return json.dumps(results_to_sarif(results), indent=2, sort_keys=True)
    raise ValueError(f"unknown lint report format {fmt!r}")
