"""A deliberately naive reference interpreter for scalar expressions.

This is the tree-walking ``evaluate`` the tuple engine shipped before
``compile_expr`` replaced it, kept as the oracle the compiler is tested
against (``test_expr_compile.py``): one ``isinstance`` ladder, every
column resolved by name through ``ctx.column``, every function, state
and aggregate read out of the context's five fields, nothing cached.  It
is verbatim except for the two error fixes that landed with the compiler
— ``%`` by zero and unary minus on a non-number raise span-carrying
``ExecutionError`` instead of leaking ``ZeroDivisionError`` /
``TypeError`` — and for calling through those fields where the context
used to offer a hook per kind of call, so the oracle defines the
intended semantics.
"""

from typing import Any

from repro.dsms.expr import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    EvalContext,
    Expr,
    FunctionCall,
    Literal,
    ScalarCall,
    Star,
    StatefulCall,
    SuperAggregateCall,
    UnaryOp,
)
from repro.errors import ExecutionError

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "%": lambda a, b: a % b,
}

_COMPARISON = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def naive_evaluate(expr: Expr, ctx: EvalContext) -> Any:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return ctx.column(expr.name)
    if isinstance(expr, Star):
        return 1
    if isinstance(expr, UnaryOp):
        value = naive_evaluate(expr.operand, ctx)
        if expr.op == "-":
            try:
                return -value
            except TypeError:
                raise ExecutionError(
                    f"cannot evaluate {expr}: unsupported operand type for"
                    f" '-' ({type(value).__name__})",
                    span=expr.span,
                ) from None
        if expr.op == "NOT":
            return not value
        raise ExecutionError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, ctx)
    if isinstance(expr, ScalarCall):
        args = [naive_evaluate(a, ctx) for a in expr.args]
        return ctx.scalars[expr.name](*args)
    if isinstance(expr, AggregateCall):
        return ctx.aggregates[expr.slot].value()
    if isinstance(expr, SuperAggregateCall):
        return ctx.superaggregates[expr.slot].value()
    if isinstance(expr, StatefulCall):
        args = [naive_evaluate(a, ctx) for a in expr.args]
        return ctx.sfuns[expr.name](ctx.states[expr.state_name], *args)
    if isinstance(expr, FunctionCall):
        raise ExecutionError(
            f"unclassified function call {expr.name!r} reached evaluation;"
            " run the analyzer before executing"
        )
    raise ExecutionError(f"unknown expression node {type(expr).__name__}")


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _evaluate_binary(expr: BinaryOp, ctx: EvalContext) -> Any:
    op = expr.op
    if op == "AND":
        return bool(naive_evaluate(expr.left, ctx)) and bool(
            naive_evaluate(expr.right, ctx)
        )
    if op == "OR":
        return bool(naive_evaluate(expr.left, ctx)) or bool(
            naive_evaluate(expr.right, ctx)
        )
    left = naive_evaluate(expr.left, ctx)
    right = naive_evaluate(expr.right, ctx)
    if op == "/":
        if _is_integer(left) and _is_integer(right):
            if right == 0:
                raise ExecutionError("integer division by zero", span=expr.span)
            return left // right
        if right == 0:
            raise ExecutionError("division by zero", span=expr.span)
        try:
            return left / right
        except TypeError:
            raise _type_error(op, left, right, expr) from None
    if op in _ARITHMETIC:
        try:
            return _ARITHMETIC[op](left, right)
        except TypeError:
            raise _type_error(op, left, right, expr) from None
        except ZeroDivisionError:
            raise ExecutionError("modulo by zero", span=expr.span) from None
    if op in _COMPARISON:
        try:
            return _COMPARISON[op](left, right)
        except TypeError:
            raise _type_error(op, left, right, expr) from None
    raise ExecutionError(f"unknown binary operator {op!r}")


def _type_error(op: str, left: Any, right: Any, expr: BinaryOp) -> ExecutionError:
    return ExecutionError(
        f"cannot evaluate {expr}: unsupported operand types for {op!r}"
        f" ({type(left).__name__} and {type(right).__name__})",
        span=expr.span,
    )
