"""Shared diagnostic types for the static query-analysis subsystem.

Every pass — clause-legality analysis, type inference, semantic lints,
plan lints — reports through the same :class:`Diagnostic` shape so the
CLI, the SARIF export and the tests all consume one format.

Diagnostics are *collected*, not raised: a :class:`DiagnosticCollector`
accumulates everything the passes find so a single ``repro lint`` run
shows every problem in the query, with source-line caret rendering via
:func:`render_diagnostics`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.dsms.span import Span


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR`` means the query cannot run correctly (or at all);
    ``WARNING`` means it runs but likely computes the wrong sample or
    wastes resources; ``INFO`` is advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the analyzer/linter.

    Parameters
    ----------
    rule:
        The stable rule identifier (``SA001`` ... ``SA1xx``); see
        ``docs/LINT_RULES.md`` for the catalogue.
    severity:
        :class:`Severity` of the finding.
    message:
        One-line human-readable description of the problem.
    span:
        Source location (``None`` when no position is known, e.g. for
        whole-query findings on programmatic ASTs).
    hint:
        Optional fix suggestion, rendered under the caret line.
    """

    rule: str
    severity: Severity
    message: str
    span: Optional[Span] = None
    hint: Optional[str] = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def location(self) -> str:
        """``line:col`` of the finding, or ``-`` when unknown."""
        if self.span is None or self.span.line <= 0:
            return "-"
        return f"{self.span.line}:{self.span.col}"

    def __str__(self) -> str:
        return f"{self.location()}: {self.rule} {self.severity}: {self.message}"


class DiagnosticCollector:
    """Accumulates diagnostics across analysis passes.

    The parser-level analyzer historically raised on the first problem;
    passing a collector switches it (and every lint pass) to
    collect-and-continue, so users see *all* violations in one run.
    """

    def __init__(self) -> None:
        self._diagnostics: List[Diagnostic] = []

    def add(self, diagnostic: Diagnostic) -> None:
        self._diagnostics.append(diagnostic)

    def report(
        self,
        rule: str,
        severity: Severity,
        message: str,
        span: Optional[Span] = None,
        hint: Optional[str] = None,
    ) -> None:
        self.add(Diagnostic(rule, severity, message, span, hint))

    def error(self, rule: str, message: str, span: Optional[Span] = None,
              hint: Optional[str] = None) -> None:
        self.report(rule, Severity.ERROR, message, span, hint)

    def warning(self, rule: str, message: str, span: Optional[Span] = None,
                hint: Optional[str] = None) -> None:
        self.report(rule, Severity.WARNING, message, span, hint)

    # -- accessors -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    def __bool__(self) -> bool:
        return bool(self._diagnostics)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return list(self._diagnostics)

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self._diagnostics)

    def sorted(self) -> List[Diagnostic]:
        """Diagnostics in source order (unknown positions last)."""
        def key(d: Diagnostic):
            if d.span is None or d.span.line <= 0:
                return (1, 0, 0, d.rule)
            return (0, d.span.line, d.span.col, d.rule)

        return sorted(self._diagnostics, key=key)


def render_diagnostics(
    diagnostics: Sequence[Diagnostic],
    source: Optional[str] = None,
    filename: str = "<query>",
) -> str:
    """Render diagnostics with source-line carets, compiler style::

        <query>:5:15: SA004 warning: CLEANING BY predicate is always TRUE ...
            CLEANING BY TRUE
                        ^^^^
          hint: make the predicate depend on group state

    ``source`` enables the caret lines; without it only the one-line
    headers are emitted.
    """
    lines: List[str] = []
    source_lines = source.splitlines() if source is not None else []
    for diag in diagnostics:
        lines.append(
            f"{filename}:{diag.location()}: {diag.rule}"
            f" {diag.severity}: {diag.message}"
        )
        span = diag.span
        if span is not None and 0 < span.line <= len(source_lines):
            text = source_lines[span.line - 1]
            lines.append(f"    {text}")
            indent = " " * (span.col - 1)
            lines.append(f"    {indent}{span.caret_line()}")
        if diag.hint:
            lines.append(f"  hint: {diag.hint}")
    return "\n".join(lines)
