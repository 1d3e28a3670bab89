"""Execution-safety analysis: the SA3xx rule family and SA401.

``repro lint --target shards=4,durable`` answers "would this query run
under that deployment?" before a single tuple is fed.  The answer is not
written here: :func:`check_execsafety` reads the rows of
:data:`repro.analysis.legality.RULES` — the table the runtimes raise
their refusals from — and gives each a ``(target ...)`` sentence and a
caret.  Without a target nothing fires: a query that never leaves the
serial runtime has no execution-safety obligations.

The plan-level verdicts are exported on ``plan.annotations["execsafety"]``
(and, under a ``serve`` target, the engine's sharing verdict on
``plan.annotations["serving"]``) for later layers, target or not.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.diagnostics import DiagnosticCollector, Severity
from repro.analysis.legality import ExecTarget, opted_out, parse_target, refusals
from repro.dsms.expr import StatefulCall, find_nodes
from repro.dsms.parser.analyzer import Registries
from repro.dsms.parser.planner import QueryPlan, partition_info
from repro.dsms.span import Span
from repro.serving.sharing import share_signature

__all__ = ["ExecTarget", "analyze_execsafety", "check_execsafety", "parse_target"]


def analyze_execsafety(plan: QueryPlan, target: Optional[ExecTarget] = None) -> None:
    """Export what a deployment would ask about ``plan``:
    ``plan.annotations["execsafety"]`` gets mergeability, the partition
    candidates and shardability, the SFUN states and whether all of them
    checkpoint; under a ``serve`` target ``plan.annotations["serving"]``
    gets ``{"shareable", "signature", "reason"}``.
    """
    info = partition_info(plan)
    plan.annotations["execsafety"] = {
        "target": target.to_json() if target is not None else None,
        "mergeable": bool(plan.output_schema.ordered_attributes()),
        "partition_candidates": (
            None if info.candidates is None else list(info.candidates)
        ),
        "shardable": info.candidates is None or bool(info.candidates),
        "checkpointable": not opted_out(plan, plan.registries),
        "states": list(plan.analyzed.state_names),
    }
    if target is not None and target.serve:
        signature, reason = share_signature(
            plan, plan.registries, shed_threshold=target.shed_threshold
        )
        plan.annotations["serving"] = {
            "shareable": signature is not None,
            "signature": signature.describe() if signature is not None else None,
            "reason": reason,
        }


def _span(plan: QueryPlan, clause: str, states: Sequence[str]) -> Optional[Span]:
    """Span of the query's first SFUN call on one of ``states``, else of
    the ``clause`` keyword, else of FROM."""
    ast = plan.analyzed.ast
    if states:
        exprs = (ast.where, *(item.expr for item in ast.select), ast.having,
                 ast.cleaning_when, ast.cleaning_by)
        for expr in exprs:
            for call in find_nodes(expr, StatefulCall) if expr is not None else ():
                assert isinstance(call, StatefulCall)
                if call.state_name in states:
                    return call.span
    return ast.clause_span(clause) or ast.clause_span("FROM")


def check_execsafety(
    plan: QueryPlan,
    registries: Registries,
    collector: DiagnosticCollector,
    target: Optional[ExecTarget],
) -> None:
    """Export the plan's execution facts and report every row of the
    legality table ``target`` holds the plan to and the plan fails."""
    analyze_execsafety(plan, target)
    if target is None:
        return
    for rule, reason in refusals(target, plan, registries):
        collector.report(
            rule.id,
            Severity.ERROR if rule.error else Severity.WARNING,
            rule.message.format(reason=reason, target=target.describe()),
            _span(plan, rule.clause, rule.culprits(plan, registries)),
            hint=rule.hint,
        )
