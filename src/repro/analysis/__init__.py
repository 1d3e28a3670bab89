"""Static query analysis: type inference, semantic lints, plan lints.

The package sits between the parser and the planner.  ``repro lint``
drives it directly; the runtime runs it before executing a query (see
``Gigascope.query(..., lint=...)``).

Only the diagnostic types are imported eagerly: the parser-level analyzer
imports :mod:`repro.analysis.diagnostics`, while the linter here imports
the analyzer — loading the heavy modules lazily keeps that loop open.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Severity,
    render_diagnostics,
)

if TYPE_CHECKING:
    from repro.analysis.legality import ExecTarget, parse_target
    from repro.analysis.linter import LintResult, lint_query, lint_source
    from repro.analysis.sampling_algebra import SamplingFact
    from repro.analysis.sarif import results_to_json, results_to_sarif
    from repro.analysis.signatures import GType
    from repro.analysis.types import TypeCheckResult, check_types

__all__ = [
    "Diagnostic",
    "DiagnosticCollector",
    "ExecTarget",
    "GType",
    "LintResult",
    "SamplingFact",
    "Severity",
    "TypeCheckResult",
    "check_types",
    "lint_query",
    "lint_source",
    "parse_target",
    "render_diagnostics",
    "results_to_json",
    "results_to_sarif",
]

_LAZY = {
    "LintResult": "repro.analysis.linter",
    "lint_query": "repro.analysis.linter",
    "lint_source": "repro.analysis.linter",
    "ExecTarget": "repro.analysis.legality",
    "parse_target": "repro.analysis.legality",
    "SamplingFact": "repro.analysis.sampling_algebra",
    "results_to_json": "repro.analysis.sarif",
    "results_to_sarif": "repro.analysis.sarif",
    "GType": "repro.analysis.signatures",
    "TypeCheckResult": "repro.analysis.types",
    "check_types": "repro.analysis.types",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
