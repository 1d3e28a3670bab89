"""Semantic analysis: classification, validation, slot assignment.

The parser leaves every call as an unclassified
:class:`~repro.dsms.expr.FunctionCall`.  The analyzer rewrites each into
one of:

* :class:`ScalarCall` — name registered as a scalar function,
* :class:`StatefulCall` — name registered in the stateful library (SFUN),
* :class:`AggregateCall` — name registered as a group aggregate,
* :class:`SuperAggregateCall` — name ends with ``$`` and is registered as
  a superaggregate,

assigns *slots* (indices into the per-group aggregate vector and the
per-supergroup superaggregate vector, deduplicated across clauses), and
enforces the clause-legality rules of the operator semantics (paper §5):

==============  ========================================================
Clause          May reference
==============  ========================================================
WHERE           tuple columns, group-by variables, scalars, SFUNs,
                superaggregates (min-hash admits via ``Kth_smallest$``)
CLEANING WHEN   supergroup variables, scalars, SFUNs, superaggregates
CLEANING BY     group-by variables, aggregates, scalars, SFUNs,
                superaggregates
HAVING          same as CLEANING BY
SELECT          same as CLEANING BY (it is evaluated per surviving group)
==============  ========================================================

It also derives the *window* variables — group-by variables whose defining
expressions reference only ordered stream attributes — and folds them into
the supergroup per paper §6.1 ("all ordered group-by variables are part of
the supergroup").

Error handling has two modes.  Called bare, :func:`analyze` raises
:class:`~repro.errors.AnalysisError` at the first problem (the historical
behaviour the planner and runtime rely on).  Called with a
:class:`~repro.analysis.diagnostics.DiagnosticCollector`, every violation
is *collected* (rules ``SA020``–``SA030``, each with a source span) and
analysis keeps going, so ``repro lint`` can show all of them in one run;
only an unknown stream is fatal (returns ``None``) because nothing else
can be checked without a schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import DiagnosticCollector
from repro.errors import AnalysisError
from repro.dsms.aggregates import AggregateRegistry
from repro.dsms.expr import (
    AggregateCall,
    ColumnRef,
    Expr,
    FunctionCall,
    ScalarCall,
    Star,
    StatefulCall,
    SuperAggregateCall,
    column_names,
    find_nodes,
    rewrite,
)
from repro.dsms.functions import FunctionRegistry
from repro.dsms.parser.ast import GroupByItem, QueryAst, SelectItem
from repro.dsms.span import Span
from repro.dsms.stateful import StatefulLibrary
from repro.streams.schema import StreamSchema

if TYPE_CHECKING:  # deferred: repro.core imports this module at runtime
    from repro.core.superaggregates import SuperAggregateRegistry


@dataclass
class Registries:
    """Everything name resolution needs, bundled."""

    schemas: Dict[str, StreamSchema]
    scalars: FunctionRegistry
    aggregates: AggregateRegistry
    superaggregates: "SuperAggregateRegistry"
    stateful: StatefulLibrary


@dataclass
class AnalyzedQuery:
    """Output of :func:`analyze` — the validated, classified query."""

    ast: QueryAst
    schema: StreamSchema
    group_by: Tuple[GroupByItem, ...]
    ordered_names: Tuple[str, ...]
    supergroup_names: Tuple[str, ...]
    aggregates: Tuple[AggregateCall, ...]
    superaggregates: Tuple[SuperAggregateCall, ...]
    state_names: Tuple[str, ...]
    kind: str  # "sampling" | "aggregation" | "selection" | "stateful_selection"

    @property
    def group_by_names(self) -> Tuple[str, ...]:
        return tuple(item.name for item in self.group_by)


class _Report:
    """Routes violations: raise (legacy) or collect (lint mode)."""

    def __init__(self, collector: Optional[DiagnosticCollector]) -> None:
        self.collector = collector

    @property
    def collecting(self) -> bool:
        return self.collector is not None

    def error(
        self,
        rule: str,
        message: str,
        span: Optional[Span] = None,
        hint: Optional[str] = None,
    ) -> None:
        if self.collector is None:
            raise AnalysisError(message)
        self.collector.error(rule, message, span, hint)


def _free_column_nodes(expr: Expr) -> List[ColumnRef]:
    """Column reference *nodes* outside aggregate calls (span-bearing
    sibling of :func:`~repro.dsms.expr.free_column_names`)."""
    nodes: List[ColumnRef] = []

    def visit(node: Expr) -> None:
        if isinstance(node, AggregateCall):
            return
        if isinstance(node, ColumnRef):
            nodes.append(node)
        for child in node.children():
            visit(child)

    visit(expr)
    return nodes


class _Classifier:
    """Rewrites FunctionCall nodes and collects slotted aggregates."""

    def __init__(self, registries: Registries, report: _Report) -> None:
        self._registries = registries
        self._report = report
        self._agg_slots: Dict[Tuple[str, str], AggregateCall] = {}
        self._super_slots: Dict[Tuple[str, str], SuperAggregateCall] = {}

    # -- results ---------------------------------------------------------------

    @property
    def aggregates(self) -> Tuple[AggregateCall, ...]:
        return tuple(
            sorted(self._agg_slots.values(), key=lambda node: node.slot)
        )

    @property
    def superaggregates(self) -> Tuple[SuperAggregateCall, ...]:
        return tuple(
            sorted(self._super_slots.values(), key=lambda node: node.slot)
        )

    def state_names(self, *exprs: Optional[Expr]) -> Tuple[str, ...]:
        names: List[str] = []
        for expr in exprs:
            if expr is None:
                continue
            for node in find_nodes(expr, StatefulCall):
                if node.state_name not in names:
                    names.append(node.state_name)
        return tuple(names)

    # -- classification -----------------------------------------------------------

    def classify(self, expr: Optional[Expr]) -> Optional[Expr]:
        if expr is None:
            return None
        return rewrite(expr, self._classify_node)

    def _classify_node(self, node: Expr) -> Optional[Expr]:
        if not isinstance(node, FunctionCall):
            return None
        name, args = node.name, node.args
        registries = self._registries
        if name.endswith("$"):
            base = name[:-1]
            if base not in registries.superaggregates:
                self._report.error(
                    "SA022", f"unknown superaggregate {name!r}", node.span
                )
                return None  # collect mode: leave the call unclassified
            key = (base, "|".join(map(str, args)))
            if key not in self._super_slots:
                slotted = SuperAggregateCall(
                    base, args, slot=len(self._super_slots), span=node.span
                )
                self._super_slots[key] = slotted
            return self._super_slots[key]
        if name in registries.stateful:
            library = registries.stateful
            return StatefulCall(name, library.state_of(name), args, node.span, library.is_reader(name))
        if name in registries.aggregates:
            key = (name, "|".join(map(str, args)))
            if key not in self._agg_slots:
                slotted = AggregateCall(
                    name, args, slot=len(self._agg_slots), span=node.span
                )
                self._agg_slots[key] = slotted
            return self._agg_slots[key]
        if name in registries.scalars:
            return ScalarCall(name, args, span=node.span)
        self._report.error(
            "SA021",
            f"unknown function {name!r}: not a scalar, aggregate, superaggregate,"
            " or stateful function",
            node.span,
        )
        return None


def _check_clause(
    clause: str,
    expr: Optional[Expr],
    allowed_columns: Sequence[str],
    allow_aggregates: bool,
    report: _Report,
    allow_superaggregates: bool = True,
    allow_stateful: bool = True,
) -> None:
    if expr is None:
        return
    for node in _free_column_nodes(expr):
        if node.name not in allowed_columns:
            report.error(
                "SA027",
                f"{clause} references {node.name!r}, which is not available there"
                f" (available: {sorted(set(allowed_columns))})",
                node.span,
            )
    if not allow_aggregates:
        for bad in find_nodes(expr, AggregateCall):
            report.error(
                "SA028",
                f"{clause} may not reference group aggregates",
                bad.span,
            )
    if not allow_superaggregates:
        for bad in find_nodes(expr, SuperAggregateCall):
            report.error(
                "SA028",
                f"{clause} may not reference superaggregates",
                bad.span,
            )
    if not allow_stateful:
        for bad in find_nodes(expr, StatefulCall):
            report.error(
                "SA028",
                f"{clause} may not reference stateful functions",
                bad.span,
            )


def analyze(
    ast: QueryAst,
    registries: Registries,
    collector: Optional[DiagnosticCollector] = None,
) -> Optional[AnalyzedQuery]:
    """Validate and classify a parsed query.

    Without ``collector``, raises :class:`AnalysisError` at the first
    violation and always returns an :class:`AnalyzedQuery`.  With a
    collector, violations are reported as diagnostics and analysis
    continues; returns ``None`` only when the stream is unknown.
    """
    report = _Report(collector)
    try:
        schema = registries.schemas[ast.from_stream]
    except KeyError:
        report.error(
            "SA020",
            f"unknown stream {ast.from_stream!r};"
            f" known: {sorted(registries.schemas)}",
            ast.clause_span("FROM"),
        )
        return None  # nothing else is checkable without a schema

    classifier = _Classifier(registries, report)

    # -- group-by variables ---------------------------------------------------
    group_by: List[GroupByItem] = []
    seen_names: set = set()
    for item in ast.group_by:
        if item.name in seen_names:
            report.error(
                "SA023",
                f"duplicate group-by variable {item.name!r}",
                item.expr.span or ast.clause_span("GROUP BY"),
            )
            continue
        seen_names.add(item.name)
        classified = classifier.classify(item.expr)
        assert classified is not None
        for col_node in _free_column_nodes(classified):
            if col_node.name not in schema:
                report.error(
                    "SA024",
                    f"GROUP BY expression for {item.name!r} references unknown"
                    f" column {col_node.name!r}",
                    col_node.span,
                )
        bad = find_nodes(classified, AggregateCall) + find_nodes(
            classified, SuperAggregateCall
        ) + find_nodes(classified, StatefulCall)
        if bad:
            report.error(
                "SA025",
                f"GROUP BY expression for {item.name!r} may only use columns and"
                " scalar functions",
                bad[0].span or item.expr.span,
            )
        group_by.append(GroupByItem(classified, item.name))

    group_by_names = [item.name for item in group_by]

    # -- ordered (window) variables --------------------------------------------
    ordered_names: List[str] = []
    for item in group_by:
        cols = column_names(item.expr)
        if cols and all(
            c in schema and schema.attribute(c).ordering.is_ordered for c in cols
        ):
            ordered_names.append(item.name)

    # -- supergroup --------------------------------------------------------------
    supergroup: List[str] = []
    for name in ast.supergroup:
        if name not in group_by_names:
            report.error(
                "SA026",
                f"SUPERGROUP variable {name!r} is not a GROUP BY variable"
                " (supergroups are a specialization of grouping sets)",
                ast.clause_span("SUPERGROUP"),
            )
            continue
        supergroup.append(name)
    supergroup_names: List[str] = list(ordered_names)
    for name in supergroup:
        if name not in supergroup_names:
            supergroup_names.append(name)

    # -- clause classification -----------------------------------------------------
    where = classifier.classify(ast.where)
    having = classifier.classify(ast.having)
    cleaning_when = classifier.classify(ast.cleaning_when)
    cleaning_by = classifier.classify(ast.cleaning_by)
    select_items = tuple(
        SelectItem(classifier.classify(item.expr), item.alias) for item in ast.select
    )

    if (ast.cleaning_when is None) != (ast.cleaning_by is None):
        present = "CLEANING WHEN" if ast.cleaning_when is not None else "CLEANING BY"
        report.error(
            "SA030",
            "CLEANING WHEN and CLEANING BY must be used together",
            ast.clause_span(present),
        )

    has_sampling_features = (
        ast.has_cleaning
        or bool(ast.supergroup)
        or bool(classifier.superaggregates)
        or bool(classifier.state_names(where, having, cleaning_when, cleaning_by,
                                       *[s.expr for s in select_items]))
    )

    if not ast.group_by:
        if classifier.aggregates or classifier.superaggregates:
            offender = (classifier.aggregates + classifier.superaggregates)[0]
            report.error(
                "SA029",
                "aggregates require a GROUP BY clause",
                offender.span,
            )
        if ast.has_cleaning:
            report.error(
                "SA029",
                "CLEANING clauses require a GROUP BY clause",
                ast.clause_span("CLEANING WHEN") or ast.clause_span("CLEANING BY"),
            )
        _check_clause("WHERE", where, schema.names, False, report)
        for item in select_items:
            _check_clause("SELECT", item.expr, schema.names, False, report)
        state_names = classifier.state_names(
            where, *[s.expr for s in select_items]
        )
        kind = "stateful_selection" if state_names else "selection"
        analyzed_ast = QueryAst(
            select=select_items,
            from_stream=ast.from_stream,
            where=where,
            group_by=(),
            supergroup=(),
            having=None,
            cleaning_when=None,
            cleaning_by=None,
            clause_spans=ast.clause_spans,
        )
        return AnalyzedQuery(
            ast=analyzed_ast,
            schema=schema,
            group_by=(),
            ordered_names=(),
            supergroup_names=(),
            aggregates=(),
            superaggregates=(),
            state_names=state_names,
            kind=kind,
        )

    # -- grouped query: clause legality ---------------------------------------------
    where_columns = list(schema.names) + group_by_names
    _check_clause("WHERE", where, where_columns, False, report)
    _check_clause("CLEANING WHEN", cleaning_when, supergroup_names, False, report)
    group_context_columns = group_by_names
    _check_clause("CLEANING BY", cleaning_by, group_context_columns, True, report)
    _check_clause("HAVING", having, group_context_columns, True, report)
    for item in select_items:
        _check_clause("SELECT", item.expr, group_context_columns, True, report)

    state_names = classifier.state_names(
        where, having, cleaning_when, cleaning_by, *[s.expr for s in select_items]
    )

    analyzed_ast = QueryAst(
        select=select_items,
        from_stream=ast.from_stream,
        where=where,
        group_by=tuple(group_by),
        supergroup=ast.supergroup,
        having=having,
        cleaning_when=cleaning_when,
        cleaning_by=cleaning_by,
        clause_spans=ast.clause_spans,
    )
    return AnalyzedQuery(
        ast=analyzed_ast,
        schema=schema,
        group_by=tuple(group_by),
        ordered_names=tuple(ordered_names),
        supergroup_names=tuple(supergroup_names),
        aggregates=classifier.aggregates,
        superaggregates=classifier.superaggregates,
        state_names=state_names,
        kind="sampling" if has_sampling_features else "aggregation",
    )
