"""Compile analyzed expression trees into whole-batch closures.

The tuple path calls a closure once per record; here each analyzed
per-tuple tree — WHERE, a selection's SELECT list, GROUP BY, aggregate
arguments — is compiled *once per query* into a closure that evaluates
an entire :class:`RecordBatch` with numpy ufuncs.  The closure takes an
:class:`Env` — column resolver, batch length, cost hook — and returns
either a column array or a Python scalar (constant subtrees stay
scalars and broadcast for free).  HAVING and an aggregation's SELECT
run per group, at window close, on the tuple engine's closures.

Semantics mirror ``repro.dsms.expr`` exactly where the data allows it:

* two integer operands floor-divide (``time/60`` buckets), while bool or
  float operands take true division, and zero divisors raise the same
  span-carrying :class:`ExecutionError`;
* mixed-type arithmetic/ordering comparisons raise span-carrying
  ``ExecutionError`` instead of a raw ``TypeError``;
* ``=`` / ``<>`` never type-error (Python equality semantics);
* object-dtype columns (heterogeneous or overflowed data) fall back to
  an element-wise loop that applies the scalar rules verbatim.

Two divergences are inherent to batch evaluation and documented in
DESIGN.md §11: AND/OR do not short-circuit (both sides are evaluated
over the batch), and a zero divisor anywhere in a batch aborts the whole
batch before any of its rows are emitted.

Anything that *requires* per-tuple state or ordering — SFUN calls,
superaggregates, nondeterministic scalar functions — raises
:class:`UnsupportedExpression` at compile time, which the operator
factory turns into a clean fallback to the tuple path.
"""

from __future__ import annotations

from typing import Any, Callable, List

import numpy as np

from repro.errors import ExecutionError
from repro.dsms.expr import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    Literal,
    ScalarCall,
    Star,
    StatefulCall,
    SuperAggregateCall,
    UnaryOp,
    binary_function,
)
from repro.dsms.functions import FunctionRegistry


class UnsupportedExpression(Exception):
    """Raised at compile time when an expression needs the tuple path."""


class Env:
    """Evaluation environment for one compiled-closure invocation.

    ``column`` resolves a name to an array of ``length`` rows.
    ``charge`` mirrors the tuple path's cost accounting as batch deltas.
    """

    __slots__ = ("column", "length", "charge")

    def __init__(
        self,
        column: Callable[[str], Any],
        length: int,
        charge: Callable[[str, int], None],
    ) -> None:
        self.column = column
        self.length = length
        self.charge = charge


def _no_charge(_op: str, _count: int) -> None:
    pass


def make_env(batch: Any, charge: Callable[[str, int], None] = _no_charge) -> Env:
    """Row env over a :class:`RecordBatch`."""
    return Env(batch.column, len(batch), charge)


# ---------------------------------------------------------------------------
# Runtime value helpers
# ---------------------------------------------------------------------------


def _is_object_array(value: Any) -> bool:
    return isinstance(value, np.ndarray) and value.dtype == object


def _is_integer_operand(value: Any) -> bool:
    """Batch analogue of expr._is_integer: int-kind, bool excluded."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iu"
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, (bool, np.bool_)
    )


def _type_name(value: Any) -> str:
    if isinstance(value, np.ndarray):
        if value.dtype == object and value.size:
            return type(value.flat[0]).__name__
        # The diagnostics name Python types, as the tuple path does.
        kind = value.dtype.kind
        if kind in "iu":
            return "int"
        if kind == "f":
            return "float"
        if kind == "b":
            return "bool"
        return value.dtype.name
    return type(value).__name__


def _type_error(op: str, left: Any, right: Any, expr: BinaryOp) -> ExecutionError:
    return ExecutionError(
        f"cannot evaluate {expr}: unsupported operand types for {op!r}"
        f" ({_type_name(left)} and {_type_name(right)})",
        span=expr.span,
    )


def _tighten(arr: Any) -> Any:
    """Recover a numeric dtype from an object array when possible.

    frompyfunc and the element-wise fallback produce object arrays even
    when every element is an int; re-inferring the dtype keeps the rest
    of the expression on the fast ufunc path.  Strings (and anything
    numpy would mangle) stay object.
    """
    if not isinstance(arr, np.ndarray) or arr.dtype != object or arr.size == 0:
        return arr
    try:
        cast = np.asarray(arr.tolist())
    except (TypeError, ValueError, OverflowError):
        return arr
    return cast if cast.dtype.kind in "iufb" else arr


def as_mask(value: Any, length: int) -> Any:
    """Coerce a predicate result to a full-length boolean mask."""
    if isinstance(value, np.ndarray):
        if value.dtype == np.bool_:
            return value
        if value.dtype == object:
            return np.asarray([bool(v) for v in value], dtype=np.bool_)
        return value.astype(np.bool_)
    return np.full(length, bool(value), dtype=np.bool_)


def as_column(value: Any, length: int) -> Any:
    """Coerce an expression result to a full-length column array."""
    if isinstance(value, np.ndarray):
        return value
    arr = np.empty(length, dtype=object)
    arr[:] = value
    return _tighten(arr)


# ---------------------------------------------------------------------------
# Binary operator application (runtime dispatch, once per batch)
# ---------------------------------------------------------------------------

_ARITH_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "%": np.mod}
_ORDER_UFUNCS = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _elementwise(expr: BinaryOp, left: Any, right: Any) -> Any:
    """Element-wise scalar-rule application for object-dtype operands."""
    n = len(left) if isinstance(left, np.ndarray) else len(right)
    lseq = left if isinstance(left, np.ndarray) else [left] * n
    rseq = right if isinstance(right, np.ndarray) else [right] * n
    out = np.empty(n, dtype=object)
    apply = binary_function(expr)
    for i in range(n):
        out[i] = apply(lseq[i], rseq[i])
    return _tighten(out)


def _check_divisor(right: Any, expr: BinaryOp, message: str) -> None:
    if isinstance(right, np.ndarray):
        if right.size and np.any(right == 0):
            raise ExecutionError(message, span=expr.span)
    elif right == 0:
        raise ExecutionError(message, span=expr.span)


def apply_binary(expr: BinaryOp, left: Any, right: Any) -> Any:
    op = expr.op
    if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
        return binary_function(expr)(left, right)
    if _is_object_array(left) or _is_object_array(right):
        return _elementwise(expr, left, right)
    if op == "/":
        if _is_integer_operand(left) and _is_integer_operand(right):
            _check_divisor(right, expr, "integer division by zero")
            return np.floor_divide(left, right)
        _check_divisor(right, expr, "division by zero")
        try:
            return np.true_divide(left, right)
        except TypeError:
            raise _type_error(op, left, right, expr) from None
    if op == "%":
        # numpy would emit 0 with a warning; the tuple path raises this.
        _check_divisor(right, expr, "modulo by zero")
    if op in _ARITH_UFUNCS:
        # Python bools are ints under arithmetic (True + True == 2);
        # numpy's bool ufuncs are logical (True + True == True).
        if isinstance(left, np.ndarray) and left.dtype == np.bool_:
            left = left.astype(np.int64)
        if isinstance(right, np.ndarray) and right.dtype == np.bool_:
            right = right.astype(np.int64)
        try:
            return _ARITH_UFUNCS[op](left, right)
        except TypeError:
            raise _type_error(op, left, right, expr) from None
    if op == "=":
        return _equality(left, right, negate=False)
    if op in ("<>", "!="):
        return _equality(left, right, negate=True)
    if op in _ORDER_UFUNCS:
        try:
            return _ORDER_UFUNCS[op](left, right)
        except TypeError:
            raise _type_error(op, left, right, expr) from None
    raise ExecutionError(f"unknown binary operator {op!r}")


def _equality(left: Any, right: Any, negate: bool) -> Any:
    # Python equality on mismatched types is False, never an error.
    try:
        result = np.not_equal(left, right) if negate else np.equal(left, right)
    except TypeError:
        result = np.bool_(negate)
    if not isinstance(result, np.ndarray):
        # Incomparable operand classes collapse to a scalar; broadcast.
        n = len(left) if isinstance(left, np.ndarray) else len(right)
        return np.full(n, bool(result), dtype=np.bool_)
    return result


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class BatchCompiler:
    """Compiles analyzed expression trees to ``Env -> value`` closures."""

    def __init__(self, functions: FunctionRegistry) -> None:
        self.functions = functions

    def compile_predicate(self, expr: Expr) -> Callable[[Env], Any]:
        """Like :meth:`compile` but coerces the result to a bool mask."""
        fn = self.compile(expr)

        def run(env: Env) -> Any:
            return as_mask(fn(env), env.length)

        return run

    def compile(self, expr: Expr) -> Callable[[Env], Any]:
        """Compile ``expr``; raises :class:`UnsupportedExpression` when the
        tree needs per-tuple state (SFUNs, superaggregates, nondeterministic
        scalar functions) or a group's (aggregates)."""
        if isinstance(expr, Literal):
            value = expr.value
            return lambda env: value
        if isinstance(expr, ColumnRef):
            name = expr.name
            return lambda env: env.column(name)
        if isinstance(expr, Star):
            return lambda env: 1
        if isinstance(expr, UnaryOp):
            return self._compile_unary(expr)
        if isinstance(expr, BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, ScalarCall):
            return self._compile_scalar_call(expr)
        if isinstance(expr, AggregateCall):
            raise UnsupportedExpression(
                f"aggregate {expr.name}(...) outside a group context"
            )
        if isinstance(expr, SuperAggregateCall):
            raise UnsupportedExpression(
                f"superaggregate {expr.name}$(...) requires supergroup state"
            )
        if isinstance(expr, StatefulCall):
            raise UnsupportedExpression(
                f"SFUN {expr.name}(...) requires ordered per-tuple state"
            )
        if isinstance(expr, FunctionCall):
            raise UnsupportedExpression(
                f"unclassified function call {expr.name!r}; run the analyzer first"
            )
        raise UnsupportedExpression(f"unknown expression node {type(expr).__name__}")

    def _compile_unary(self, expr: UnaryOp) -> Callable[[Env], Any]:
        operand = self.compile(expr.operand)
        if expr.op == "-":

            def run_neg(env: Env) -> Any:
                value = operand(env)
                if isinstance(value, np.ndarray) and value.dtype == np.bool_:
                    # numpy refuses unary minus on booleans; Python's
                    # -True is -1, so promote first.
                    return -value.astype(np.int64)
                try:
                    return -value
                except TypeError:
                    # Same diagnostic as the tuple path's compiled '-'.
                    raise ExecutionError(
                        f"cannot evaluate {expr}: unsupported operand type"
                        f" for '-' ({_type_name(value)})",
                        span=expr.span,
                    ) from None

            return run_neg
        if expr.op == "NOT":

            def run_not(env: Env) -> Any:
                return np.logical_not(as_mask(operand(env), env.length))

            return run_not
        raise UnsupportedExpression(f"unknown unary operator {expr.op!r}")

    def _compile_binary(self, expr: BinaryOp) -> Callable[[Env], Any]:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        op = expr.op
        if op == "AND":

            def run_and(env: Env) -> Any:
                # No short-circuit: both sides evaluate over the batch.
                return np.logical_and(
                    as_mask(left(env), env.length), as_mask(right(env), env.length)
                )

            return run_and
        if op == "OR":

            def run_or(env: Env) -> Any:
                return np.logical_or(
                    as_mask(left(env), env.length), as_mask(right(env), env.length)
                )

            return run_or

        def run(env: Env) -> Any:
            return apply_binary(expr, left(env), right(env))

        return run

    def _compile_scalar_call(self, expr: ScalarCall) -> Callable[[Env], Any]:
        fn = self.functions.get(expr.name)
        if not self.functions.is_deterministic(expr.name):
            raise UnsupportedExpression(
                f"scalar function {expr.name!r} is nondeterministic; batch"
                " re-evaluation could disagree with the tuple path"
            )
        arg_fns: List[Callable[[Env], Any]] = [self.compile(a) for a in expr.args]
        nargs = len(arg_fns)
        ufn = np.frompyfunc(fn, nargs, 1) if nargs else None

        def run(env: Env) -> Any:
            args = [f(env) for f in arg_fns]
            # The tuple path calls the function once per row.
            env.charge("function_call", env.length)
            if ufn is None or not any(isinstance(a, np.ndarray) for a in args):
                return fn(*args)
            # Registered functions must see Python scalars, as on the
            # tuple path: int64 elements would silently wrap where
            # Python ints grow (hash32-style bit mixing).
            boxed = [
                a.astype(object)
                if isinstance(a, np.ndarray) and a.dtype != object
                else a
                for a in args
            ]
            return _tighten(ufn(*boxed))

        return run
