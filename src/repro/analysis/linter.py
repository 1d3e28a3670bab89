"""The query linter: one entry point over all analysis passes.

:func:`lint_source` takes GSQL text and runs the full pipeline —

1. lex + parse (failures become ``SA090``/``SA091`` diagnostics instead
   of exceptions),
2. collect-mode semantic analysis (``SA020``–``SA030``),
3. type inference (``SA005``/``SA008``/``SA010``/``SA011``),
4. semantic lints (``SA001``–``SA009``),
5. plan lints (``SA101``/``SA102``),
6. dataflow passes over the *compiled* plan (only when stages 1–5 found
   no errors — the planner needs a well-formed query): sampling
   soundness (``SA201``–``SA204``) and, when an
   :class:`~repro.analysis.legality.ExecTarget` is given, every row of
   the legality table that deployment holds the plan to
   (``SA301``–``SA305``, ``SA401`` under a ``serve`` target)

— and returns every finding in one :class:`LintResult`.  Rules can be
suppressed per query with a pragma comment anywhere in the text::

    -- lint: disable=SA001,SA102

(the pragma filter runs after *all* stages collect, so it applies to
plan-stage and dataflow rules exactly as to lexer/semantic ones).

The CLI's ``repro lint`` subcommand and ``repro query``'s pre-execution
check (against the deployment's own target) both go through here: it is
the one lint gate, and the runtime compiles without it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    render_diagnostics,
)
from repro.analysis.execsafety import check_execsafety
from repro.analysis.legality import ExecTarget
from repro.analysis.plan_rules import check_plan
from repro.analysis.rules import check_semantics
from repro.analysis.sampling_algebra import check_sampling
from repro.analysis.types import TypeCheckResult, check_types
from repro.dsms.parser.analyzer import AnalyzedQuery, Registries, analyze
from repro.dsms.parser.planner import QueryPlan, plan as plan_query
from repro.dsms.parser.parser import parse_query
from repro.dsms.span import Span
from repro.errors import LexError, ParseError, PlanningError

#: ``-- lint: disable=SA001,SA102`` anywhere in the query text.
_PRAGMA_RE = re.compile(r"--\s*lint:\s*disable=([A-Za-z0-9_, \t]*)")


def parse_pragmas(source: str) -> FrozenSet[str]:
    """Rule ids disabled by ``-- lint: disable=...`` pragma comments."""
    disabled: List[str] = []
    for match in _PRAGMA_RE.finditer(source):
        for rule in match.group(1).split(","):
            rule = rule.strip()
            if rule:
                disabled.append(rule.upper())
    return frozenset(disabled)


@dataclass
class LintResult:
    """Everything one lint run found."""

    source: str
    filename: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    disabled: FrozenSet[str] = frozenset()
    analyzed: Optional[AnalyzedQuery] = None
    types: Optional[TypeCheckResult] = None
    #: the compiled plan the dataflow passes ran over (None when stages
    #: 1–5 reported errors); carries the exported ``plan.annotations``
    plan: Optional[QueryPlan] = None
    #: the deployment configuration the SA3xx rules linted against
    target: Optional[ExecTarget] = None

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def ok(self) -> bool:
        """No errors (warnings allowed)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """No diagnostics at all."""
        return not self.diagnostics

    def render(self) -> str:
        """Compiler-style report with source lines and carets."""
        return render_diagnostics(self.diagnostics, self.source, self.filename)


def _column_of(source: str, position: int) -> int:
    return position - source.rfind("\n", 0, position)


def lint_query(
    source: str,
    registries: Registries,
    filename: str = "<query>",
    target: Optional[ExecTarget] = None,
) -> LintResult:
    """Lint one query text against explicit registries.

    ``target`` (an :class:`ExecTarget`) additionally reports what that
    deployment would refuse the query for (SA3xx, SA401).
    """
    collector = DiagnosticCollector()
    analyzed: Optional[AnalyzedQuery] = None
    types_result: Optional[TypeCheckResult] = None
    compiled: Optional[QueryPlan] = None
    try:
        ast = parse_query(source)
    except LexError as exc:
        collector.error(
            "SA090", str(exc), Span(exc.line, _column_of(source, exc.position))
        )
    except ParseError as exc:
        span = Span(exc.line, exc.col) if exc.line > 0 else None
        collector.error("SA091", str(exc), span)
    else:
        analyzed = analyze(ast, registries, collector)
        if analyzed is not None:
            types_result = check_types(analyzed, registries, collector)
            check_semantics(analyzed, registries, collector)
            check_plan(analyzed, registries, collector)
            if not collector.has_errors:
                # The dataflow passes walk the *compiled* plan, which the
                # planner only produces for well-formed queries; an
                # erroneous query already has its diagnostics above.
                try:
                    compiled = plan_query(analyzed, registries)
                except PlanningError:
                    compiled = None
                if compiled is not None:
                    check_sampling(analyzed, compiled, registries, collector)
                    check_execsafety(compiled, registries, collector, target)
    disabled = parse_pragmas(source)
    diagnostics = [d for d in collector.sorted() if d.rule not in disabled]
    return LintResult(
        source=source,
        filename=filename,
        diagnostics=diagnostics,
        disabled=disabled,
        analyzed=analyzed,
        types=types_result,
        plan=compiled,
        target=target,
    )


def default_lint_registries() -> Registries:
    """Registries for standalone linting: a default deployment's
    (:func:`repro.deploy.deploy`: the TCP stream, built-in functions and
    every SFUN pack), plus the stock packet stream."""
    from repro.deploy import deploy
    from repro.streams.schema import PKT_SCHEMA

    registries: Registries = deploy().registries
    registries.schemas[PKT_SCHEMA.name] = PKT_SCHEMA
    return registries


def lint_source(
    source: str,
    registries: Optional[Registries] = None,
    filename: str = "<query>",
    target: Optional[ExecTarget] = None,
) -> LintResult:
    """Lint one query text (default registries when none are given)."""
    return lint_query(
        source, registries or default_lint_registries(), filename, target=target
    )
