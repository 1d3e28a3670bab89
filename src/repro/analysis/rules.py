"""Pass 2 of the static analyzer: semantic lint rules over analyzed queries.

Each rule targets a mistake that parses, analyzes, and *runs* — but
computes the wrong sample or never releases memory.  They encode the
operational folklore of the paper's operator (§5–§6):

``SA001``
    A grouped query with no window variable and no CLEANING clauses keeps
    every group until end-of-stream: the group table is unbounded.
``SA002``
    A stateful function called in WHERE *and* in another clause runs its
    state transition more than once per tuple (WHERE admission is the
    transition; later clauses should read, not re-sample).
``SA003``
    A SUPERGROUP clause with no superaggregates, no stateful functions,
    and no CLEANING does nothing — the supergroup structure is allocated
    and maintained for no observable effect.
``SA004``
    A CLEANING predicate that constant-folds: CLEANING BY TRUE never
    evicts (the cleaning phase cannot shrink the table), CLEANING BY
    FALSE evicts everything, CLEANING WHEN FALSE never triggers.
``SA006``
    A non-deterministic scalar in a GROUP BY expression scatters equal
    tuples across groups (see ``FunctionRegistry.register``'s
    ``deterministic`` flag).
``SA007``
    Constant division or modulo by zero.
``SA009``
    Two SELECT items producing the same output column name (the planner
    silently renames the second to ``name_2``).
``SA012``
    A constant SFUN argument below the least value its library declares
    for it (``StatefulLibrary.sfun(least=...)``): the call refuses it at
    run time: ``local_count(0)`` (a heavy-hitters bucket of width 0),
    ``rsample(0)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import DiagnosticCollector
from repro.errors import ExecutionError
from repro.dsms.expr import (
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    ScalarCall,
    StatefulCall,
    UnaryOp,
    binary_function,
    find_nodes,
)
from repro.dsms.parser.analyzer import AnalyzedQuery, Registries

#: Sentinel returned by :func:`fold_constant` for non-constant expressions.
NOT_CONSTANT = object()


def fold_constant(expr: Expr) -> Any:
    """Fold ``expr`` to a Python value if it is compile-time constant.

    Returns the sentinel ``NOT_CONSTANT`` when any leaf is a column,
    call, or unfoldable operation.  AND/OR short-circuit, so
    ``FALSE AND f(x)`` folds even though ``f(x)`` does not.
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, UnaryOp):
        operand = fold_constant(expr.operand)
        if operand is NOT_CONSTANT:
            return NOT_CONSTANT
        if expr.op == "-":
            try:
                return -operand
            except TypeError:
                return NOT_CONSTANT
        if expr.op == "NOT":
            return not operand
        return NOT_CONSTANT
    if isinstance(expr, BinaryOp):
        return _fold_binary(expr)
    return NOT_CONSTANT


def _fold_binary(expr: BinaryOp) -> Any:
    left = fold_constant(expr.left)
    if expr.op in ("AND", "OR"):
        # short-circuit: one decided side decides the conjunction
        right = fold_constant(expr.right)
        values = [v for v in (left, right) if v is not NOT_CONSTANT]
        if expr.op == "AND":
            if any(not v for v in values):
                return False
            return True if len(values) == 2 else NOT_CONSTANT
        if any(bool(v) for v in values):
            return True
        return False if len(values) == 2 else NOT_CONSTANT
    right = fold_constant(expr.right)
    if left is NOT_CONSTANT or right is NOT_CONSTANT:
        return NOT_CONSTANT
    try:
        return binary_function(expr)(left, right)
    except ExecutionError:
        # a zero divisor (SA007 reports it), mixed types, an unknown operator
        return NOT_CONSTANT


def _all_exprs(analyzed: AnalyzedQuery) -> List[Tuple[str, Expr]]:
    ast = analyzed.ast
    pairs: List[Tuple[str, Expr]] = []
    for item in ast.select:
        if item.expr is not None:
            pairs.append(("SELECT", item.expr))
    for item in analyzed.group_by:
        pairs.append(("GROUP BY", item.expr))
    for clause, expr in (
        ("WHERE", ast.where),
        ("HAVING", ast.having),
        ("CLEANING WHEN", ast.cleaning_when),
        ("CLEANING BY", ast.cleaning_by),
    ):
        if expr is not None:
            pairs.append((clause, expr))
    return pairs


def _check_unbounded_group_table(
    analyzed: AnalyzedQuery, collector: DiagnosticCollector
) -> None:
    if not analyzed.group_by or analyzed.ast.has_cleaning:
        return
    if analyzed.ordered_names:
        return
    collector.warning(
        "SA001",
        "group table is unbounded: no window variable (ordered GROUP BY"
        " expression) and no CLEANING clauses — groups accumulate until"
        " end of stream",
        analyzed.ast.clause_span("GROUP BY"),
        hint="group on a window variable (e.g. time/60 AS tb) or add"
        " CLEANING WHEN/BY clauses",
    )


def _check_sfun_reevaluation(
    analyzed: AnalyzedQuery, collector: DiagnosticCollector
) -> None:
    where = analyzed.ast.where
    if where is None:
        return
    where_sfuns = {node.name for node in find_nodes(where, StatefulCall)}
    if not where_sfuns:
        return
    for clause, expr in _all_exprs(analyzed):
        if clause == "WHERE":
            continue
        for node in find_nodes(expr, StatefulCall):
            if node.name in where_sfuns:
                collector.warning(
                    "SA002",
                    f"stateful function {node.name!r} is called in WHERE and"
                    f" again in {clause}; each call runs the state"
                    " transition, so the tuple is sampled twice",
                    node.span,
                    hint="keep the sampling call in WHERE and read results"
                    " through a separate (read-only) SFUN",
                )


def _check_unused_supergroup(
    analyzed: AnalyzedQuery, collector: DiagnosticCollector
) -> None:
    if not analyzed.ast.supergroup:
        return
    if (
        analyzed.superaggregates
        or analyzed.state_names
        or analyzed.ast.has_cleaning
    ):
        return
    collector.warning(
        "SA003",
        "SUPERGROUP has no observable effect: the query uses no"
        " superaggregates, no stateful functions, and no CLEANING clauses",
        analyzed.ast.clause_span("SUPERGROUP"),
        hint="drop the SUPERGROUP clause or add the superaggregate /"
        " cleaning logic that needs it",
    )


def _check_constant_cleaning(
    analyzed: AnalyzedQuery, collector: DiagnosticCollector
) -> None:
    ast = analyzed.ast
    cases = {
        ("CLEANING BY", True): "the cleaning phase never evicts any group",
        ("CLEANING BY", False): "the cleaning phase evicts every group",
        ("CLEANING WHEN", True): "a cleaning phase is triggered for every"
        " tuple of the supergroup",
        ("CLEANING WHEN", False): "a cleaning phase is never triggered",
    }
    for clause, expr in (
        ("CLEANING WHEN", ast.cleaning_when),
        ("CLEANING BY", ast.cleaning_by),
    ):
        if expr is None:
            continue
        value = fold_constant(expr)
        if value is NOT_CONSTANT:
            continue
        truth = bool(value)
        collector.warning(
            "SA004",
            f"{clause} predicate is constant"
            f" {'TRUE' if truth else 'FALSE'}: {cases[(clause, truth)]}",
            expr.span or ast.clause_span(clause),
            hint="make the predicate depend on group or supergroup state",
        )


def _check_nondeterministic_group_by(
    analyzed: AnalyzedQuery,
    registries: Registries,
    collector: DiagnosticCollector,
) -> None:
    for item in analyzed.group_by:
        for node in find_nodes(item.expr, ScalarCall):
            if not registries.scalars.is_deterministic(node.name):
                collector.warning(
                    "SA006",
                    f"non-deterministic scalar {node.name!r} in the GROUP BY"
                    f" expression for {item.name!r}: equal tuples may land"
                    " in different groups",
                    node.span,
                    hint="compute the value in the SELECT list instead, or"
                    " register the function as deterministic",
                )


def _check_constant_zero_division(
    analyzed: AnalyzedQuery, collector: DiagnosticCollector
) -> None:
    for _clause, expr in _all_exprs(analyzed):
        for node in find_nodes(expr, BinaryOp):
            if node.op not in ("/", "%"):
                continue
            divisor = fold_constant(node.right)
            if divisor is NOT_CONSTANT or isinstance(divisor, bool):
                continue
            if divisor == 0:
                collector.error(
                    "SA007",
                    f"constant {'division' if node.op == '/' else 'modulo'}"
                    " by zero",
                    node.span,
                )


def _check_duplicate_output_names(
    analyzed: AnalyzedQuery, collector: DiagnosticCollector
) -> None:
    seen: Dict[str, int] = {}
    for index, item in enumerate(analyzed.ast.select):
        if item.alias:
            name: Optional[str] = item.alias
        elif isinstance(item.expr, ColumnRef):
            name = item.expr.name
        else:
            name = None  # planner invents col{index}; cannot collide
        if name is None:
            continue
        if name in seen:
            span = item.expr.span if item.expr is not None else None
            collector.warning(
                "SA009",
                f"duplicate output column {name!r} (also produced by SELECT"
                f" item {seen[name] + 1}); the planner will rename this one"
                f" to {name!r}_2",
                span,
                hint="give one of the items a distinct alias with AS",
            )
        else:
            seen[name] = index


def _check_sfun_argument_bounds(
    analyzed: AnalyzedQuery,
    registries: Registries,
    collector: DiagnosticCollector,
) -> None:
    for _clause, expr in _all_exprs(analyzed):
        for node in find_nodes(expr, StatefulCall):
            for index, (arg, least) in enumerate(zip(node.args, registries.stateful.least(node.name))):
                value = fold_constant(arg)
                if least is None or value is NOT_CONSTANT or type(value) not in (int, float):
                    continue
                if value < least:
                    collector.error(
                        "SA012",
                        f"{node.name}({value!r}): argument {index + 1} is below {least},"
                        f" the least {node.name!r} takes",
                        arg.span or node.span,
                        hint=f"the call refuses it at run time; pass at least {least}",
                    )


def check_semantics(
    analyzed: AnalyzedQuery,
    registries: Registries,
    collector: DiagnosticCollector,
) -> None:
    """Run every semantic lint rule over ``analyzed``."""
    _check_unbounded_group_table(analyzed, collector)
    _check_sfun_reevaluation(analyzed, collector)
    _check_unused_supergroup(analyzed, collector)
    _check_constant_cleaning(analyzed, collector)
    _check_nondeterministic_group_by(analyzed, registries, collector)
    _check_constant_zero_division(analyzed, collector)
    _check_duplicate_output_names(analyzed, collector)
    _check_sfun_argument_bounds(analyzed, registries, collector)
