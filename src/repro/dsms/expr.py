"""Expression AST and compiler for the GSQL subset.

The parser builds these nodes; the analyzer classifies function calls into
scalar functions, aggregates, superaggregates (``name$``-suffixed, paper
§6.3) and stateful functions (paper §6.2); the operators compile them.

Compile once, run per tuple: :func:`compile_expr` turns an analyzed tree
into nested closures when an operator is built, with every column name
resolved by a *binder* to the position it is read from (a record slot,
a group-by value) and every function name and aggregate slot captured.
It is the only implementation of scalar expression semantics;
:func:`evaluate` is its one-shot form for tests and ad-hoc callers.

The sampling operator evaluates its clauses in several phases (per-tuple
WHERE, per-supergroup CLEANING WHEN, per-group CLEANING BY / HAVING, and
output SELECT).  What differs between phases is the binder each clause
is compiled with (:func:`bind_input`, :func:`bind_tuple`,
:func:`bind_group`), not the evaluator: at run time a closure takes one
:class:`EvalContext`, reads the fields the binder pointed it at, and
calls the context's hooks for functions and aggregates — which is where
calls are counted for the cost model.  A context only needs the hooks for node kinds that
can legally appear in its clauses — the analyzer enforces legality, so a
hook that is missing at runtime is a bug, reported as
:class:`ExecutionError`.  Closures hold no operator state, so nothing
compiled is ever checkpointed and ``restore()`` needs no recompilation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.dsms.span import Span
from repro.errors import ExecutionError


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

#: Spans are carried for diagnostics only: they never participate in node
#: equality or hashing (the analyzer dedups aggregate slots by value) and
#: default to None for programmatically built trees.
def _span_field() -> Any:
    return field(default=None, compare=False, repr=False)


class Expr:
    """Base class for all expression nodes."""

    span: Optional[Span]

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any
    span: Optional[Span] = _span_field()

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    span: Optional[Span] = _span_field()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Star(Expr):
    """The ``*`` argument of ``count(*)`` / ``count_distinct$(*)``."""

    span: Optional[Span] = _span_field()

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # '-', 'NOT'
    operand: Expr
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # arithmetic: + - * / %   comparison: = <> < <= > >=   logic: AND OR
    left: Expr
    right: Expr
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """An unclassified call, as parsed.  The analyzer rewrites these."""

    name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class ScalarCall(Expr):
    """A call to a registered scalar function (H, UMAX, ...)."""

    name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class AggregateCall(Expr):
    """A group aggregate: sum(len), count(*), min(x)...

    ``slot`` is assigned by the planner: the index of this aggregate in the
    group's aggregate vector.
    """

    name: str
    args: Tuple[Expr, ...]
    slot: int = -1
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class SuperAggregateCall(Expr):
    """A supergroup aggregate, written ``name$(args)`` (paper §6.3)."""

    name: str
    args: Tuple[Expr, ...]
    slot: int = -1
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}$({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class StatefulCall(Expr):
    """A call to an SFUN sharing per-supergroup state (paper §6.2)."""

    name: str
    state_name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class EvalContext:
    """What compiled expressions read and call at evaluation time.

    A context carries the per-evaluation data (the operators add plain
    attributes such as ``record`` or ``gb_values`` that positional
    getters read) and the hooks below.  Subclasses override the hooks
    relevant to their phase; the defaults raise, which surfaces analyzer
    gaps as explicit errors instead of silent Nones.  ``column`` serves
    only :func:`by_name` binding — operators bind names to positions
    when they are built and never look a column up by name per tuple.

    An operator's context does not charge a ``function_call`` /
    ``sfun_call`` per hook call; it counts them here, and the operator
    settles the counts into its cost account when its run (or flush)
    ends — :meth:`settle_calls`.
    """

    function_calls = 0
    sfun_calls = 0

    def settle_calls(self, charge: Callable[..., None], account: str) -> None:
        """Charge, then zero, the hook calls counted since the last settle."""
        charge(account, "function_call", self.function_calls)
        charge(account, "sfun_call", self.sfun_calls)
        self.function_calls = self.sfun_calls = 0

    def column(self, name: str) -> Any:
        raise ExecutionError(f"column {name!r} not available in this context")

    def call_scalar(self, name: str, args: Sequence[Any]) -> Any:
        raise ExecutionError(f"scalar function {name!r} not available in this context")

    def aggregate_value(self, node: AggregateCall) -> Any:
        raise ExecutionError(f"aggregate {node.name!r} not available in this context")

    def superaggregate_value(self, node: SuperAggregateCall) -> Any:
        raise ExecutionError(
            f"superaggregate {node.name}$ not available in this context"
        )

    def call_stateful(self, node: StatefulCall, args: Sequence[Any]) -> Any:
        raise ExecutionError(
            f"stateful function {node.name!r} not available in this context"
        )


#: A compiled expression (or a bound column): context in, value out.
Compiled = Callable[[Any], Any]
#: Resolves a column name, once, to the getter that reads it.
Bind = Callable[[str], Compiled]


def by_name(name: str) -> Compiled:
    """The binder of last resort: ask the context's ``column`` hook."""
    return lambda ctx: ctx.column(name)


def _fails(message: str) -> Compiled:
    """What a node nothing can evaluate compiles to.

    The analyzer rejects such queries, so this only runs for trees built
    by hand; the error still belongs to the record that evaluates it,
    not to operator construction.
    """

    def fail(ctx: Any) -> Any:
        raise ExecutionError(message)

    return fail


def bind_input(schema: Any) -> Bind:
    """Names are columns of ``schema``, read from ``ctx.record`` by
    position.  GROUP BY expressions and selections bind this way."""

    def bind(name: str) -> Compiled:
        if name not in schema:
            return _fails(f"column {name!r} not available in this context")
        index = schema.index_of(name)
        return lambda ctx: ctx.record.values[index]

    return bind


def bind_group(group_by_names: Sequence[str]) -> Bind:
    """Group-time binding (CLEANING WHEN/BY, HAVING, SELECT, group-fed
    superaggregate values): only group-by names exist, read by position
    from ``ctx.key`` — the group-by values in scope."""
    positions = {name: i for i, name in enumerate(group_by_names)}

    def bind(name: str) -> Compiled:
        index = positions.get(name)
        if index is None:
            return _fails(f"column {name!r} is not a group-by variable")
        return lambda ctx: ctx.key[index]

    return bind


def bind_tuple(schema: Any, group_by_names: Sequence[str]) -> Bind:
    """Tuple-time binding once GROUP BY has run (WHERE, aggregate
    arguments, tuple-fed superaggregate values).

    The one shadowing rule: GROUP BY expressions see input columns
    (:func:`bind_input`); everywhere after, a group-by name wins over an
    input column of the same name (:func:`bind_group`, with ``ctx.key``
    holding the tuple's own group-by values).
    """
    bind_key = bind_group(group_by_names)
    bind_column = bind_input(schema)

    def bind(name: str) -> Compiled:
        if name in group_by_names:
            return bind_key(name)
        if name in schema:
            return bind_column(name)
        return _fails(f"column {name!r} not available at WHERE time")

    return bind


def evaluate(expr: Expr, ctx: EvalContext) -> Any:
    """Evaluate ``expr`` once against ``ctx``, resolving columns by name.

    The one-shot form of :func:`compile_expr`, for tests and ad-hoc
    callers; anything evaluating per tuple compiles once instead.
    """
    return compile_expr(expr, by_name)(ctx)


def compile_expr(expr: Expr, bind: Bind) -> Compiled:
    """Turn an analyzed tree into nested closures, once.

    ``bind`` resolves every :class:`ColumnRef`; function names and
    aggregate slots are captured, so evaluating the result touches no
    AST node and looks no name up.  Semantics: division is SQL/C integer
    division on two ints (``time/60`` must bucket, not produce floats)
    and float division otherwise, ``bool`` counting as a number rather
    than an int; AND/OR short-circuit; arguments evaluate left to right;
    scalar and stateful calls go through the context hooks (which charge
    them).  Every error is raised when the offending record is
    evaluated, never here.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: value
    if isinstance(expr, ColumnRef):
        return bind(expr.name)
    if isinstance(expr, Star):
        return lambda ctx: 1  # count(*) counts rows; the argument value is irrelevant
    if isinstance(expr, UnaryOp):
        return _compile_unary(expr, compile_expr(expr.operand, bind))
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, bind)
    if isinstance(expr, ScalarCall):
        name = expr.name
        scalar_args = _compile_args(expr.args, bind)
        return lambda ctx: ctx.call_scalar(name, scalar_args(ctx))
    if isinstance(expr, AggregateCall):
        return lambda ctx: ctx.aggregate_value(expr)
    if isinstance(expr, SuperAggregateCall):
        return lambda ctx: ctx.superaggregate_value(expr)
    if isinstance(expr, StatefulCall):
        sfun_args = _compile_args(expr.args, bind)
        return lambda ctx: ctx.call_stateful(expr, sfun_args(ctx))
    if isinstance(expr, FunctionCall):
        return _fails(
            f"unclassified function call {expr.name!r} reached evaluation;"
            " run the analyzer before executing"
        )
    return _fails(f"unknown expression node {type(expr).__name__}")


def compile_clause(expr: Optional[Expr], bind: Bind) -> Optional[Compiled]:
    """An optional clause (WHERE, HAVING, CLEANING ...): compiled, or
    None when the query has none."""
    return compile_expr(expr, bind) if expr is not None else None


def compile_tuple(exprs: Sequence[Expr], bind: Bind) -> Callable[[Any], Tuple[Any, ...]]:
    """Compile ``exprs`` into one closure returning their values, left
    to right, as a tuple (a group key, an output row)."""
    return _sequence([compile_expr(expr, bind) for expr in exprs], "(", ")")


def compile_update_value(node: AggregateCall, bind: Bind) -> Optional[Compiled]:
    """What one tuple feeds an aggregate: its first argument, compiled —
    or None when that is the constant 1 (``count(*)``, ``count()``)."""
    if not node.args or isinstance(node.args[0], Star):
        return None
    return compile_expr(node.args[0], bind)


def pick(indices: Sequence[int]) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """``values -> tuple(values[i] for i in indices)``, built once (a
    window id out of group-by values, bare columns out of a record).
    ``itemgetter`` takes no fewer than one index and returns a bare
    value for exactly one, hence the two cases before it."""
    if not indices:
        return lambda values: ()
    if len(indices) == 1:
        (index,) = indices
        return lambda values: (values[index],)
    return operator.itemgetter(*indices)


def _compile_args(args: Sequence[Expr], bind: Bind) -> Callable[[Any], List[Any]]:
    """Argument list of a call: a fresh list per evaluation."""
    return _sequence([compile_expr(arg, bind) for arg in args], "[", "]")


def _sequence(fns: Sequence[Compiled], opening: str, closing: str) -> Compiled:
    """``lambda ctx: (f0(ctx), f1(ctx), ...)`` for any number of ``fns``
    (or ``[...]``), written out as one display expression.

    The comprehension ``[fn(ctx) for fn in fns]`` means the same, but
    before Python 3.12 it runs in a frame of its own per evaluation, and
    group keys and call arguments are built for every record: on the
    ledger's ``ss_steady`` it reads 125k rec/s against 141k for this
    (80.2 against 77.2 calls/record).
    """
    names = {f"f{i}": fn for i, fn in enumerate(fns)}
    items = "".join(f"{name}(ctx), " for name in names)
    return eval(f"lambda ctx: {opening}{items}{closing}", names)


def _compile_unary(expr: UnaryOp, operand: Compiled) -> Compiled:
    if expr.op == "NOT":
        return lambda ctx: not operand(ctx)
    if expr.op == "-":

        def negate(ctx: Any) -> Any:
            value = operand(ctx)
            try:
                return -value
            except TypeError:
                raise ExecutionError(
                    f"cannot evaluate {expr}: unsupported operand type for"
                    f" '-' ({type(value).__name__})",
                    span=expr.span,
                ) from None

        return negate

    def unknown(ctx: Any) -> Any:
        operand(ctx)
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    return unknown


def _is_integer(value: Any) -> bool:
    """True for values that take SQL/C integer-division semantics.

    ``bool`` is excluded deliberately: it subclasses ``int`` in Python,
    but ``TRUE / 2`` floor-dividing to ``0`` is a silent wrong answer —
    booleans divide as ordinary numbers (``0.5``), matching the numpy
    batch engine, which promotes bool columns to float on division.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def _divider(expr: BinaryOp) -> Callable[[Any, Any], Any]:
    def divide(left: Any, right: Any) -> Any:
        # Exact ints first: the common case (``time/60``) without the
        # subclass-aware test below (ss_steady: 6.0 fewer calls/record,
        # 139k -> 144k rec/s).
        if (type(left) is int and type(right) is int) or (
            _is_integer(left) and _is_integer(right)
        ):
            if right == 0:
                raise ExecutionError("integer division by zero", span=expr.span)
            return left // right
        if right == 0:
            raise ExecutionError("division by zero", span=expr.span)
        return left / right

    return divide


def _modulo(expr: BinaryOp) -> Callable[[Any, Any], Any]:
    def modulo(left: Any, right: Any) -> Any:
        try:
            return left % right
        except ZeroDivisionError:
            raise ExecutionError("modulo by zero", span=expr.span) from None

    return modulo


#: Operators whose errors carry the node's span: built per node.
_SPANNED: dict = {"/": _divider, "%": _modulo}

#: Operators whose whole meaning is Python's ``fn(left, right)``.
_PLAIN: dict = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def binary_function(expr: BinaryOp) -> Callable[[Any, Any], Any]:
    """``(left, right) -> value`` of one arithmetic or comparison node:
    the scalar semantics, for whoever applies them outside a compiled
    tree — the columnar engine's object-dtype and constant fallback, the
    linter's constant folder.  A zero divisor, mixed operand types and an
    unknown operator raise the :class:`ExecutionError` the tuple path
    raises (AND/OR short-circuit, so they are not functions of values).
    """
    op = expr.op
    apply = _SPANNED[op](expr) if op in _SPANNED else _PLAIN.get(op)

    def run(left: Any, right: Any) -> Any:
        if apply is None:
            raise ExecutionError(f"unknown binary operator {op!r}")
        try:
            return apply(left, right)
        except TypeError:
            raise _type_error(op, left, right, expr) from None

    return run


def _compile_binary(expr: BinaryOp, bind: Bind) -> Compiled:
    op = expr.op
    left = compile_expr(expr.left, bind)
    right = compile_expr(expr.right, bind)
    if op == "AND":
        return lambda ctx: bool(left(ctx)) and bool(right(ctx))
    if op == "OR":
        return lambda ctx: bool(left(ctx)) or bool(right(ctx))
    apply = _SPANNED[op](expr) if op in _SPANNED else _PLAIN.get(op)
    if apply is None:

        def unknown(ctx: Any) -> Any:
            left(ctx)
            right(ctx)
            raise ExecutionError(f"unknown binary operator {op!r}")

        return unknown

    if isinstance(expr.right, Literal):
        # ``len > 100``, ``time / 60``: the literal is captured, not
        # called (ss_steady: 2.8 fewer calls/record, 138k -> 144k rec/s).
        const = expr.right.value

        def run_const(ctx: Any) -> Any:
            a = left(ctx)
            try:
                return apply(a, const)
            except TypeError:
                raise _type_error(op, a, const, expr) from None

        return run_const

    def run(ctx: Any) -> Any:
        a = left(ctx)
        b = right(ctx)
        try:
            return apply(a, b)
        except TypeError:
            raise _type_error(op, a, b, expr) from None

    return run


def _type_error(op: str, left: Any, right: Any, expr: BinaryOp) -> ExecutionError:
    """A mixed-type operand failure as a span-carrying ExecutionError.

    Without this, ``srcIP > 100`` on a string column escapes as a raw
    ``TypeError`` traceback from deep inside the operator instead of a
    diagnostic that names the expression and its source position.
    """
    return ExecutionError(
        f"cannot evaluate {expr}: unsupported operand types for {op!r}"
        f" ({type(left).__name__} and {type(right).__name__})",
        span=expr.span,
    )


# ---------------------------------------------------------------------------
# Tree utilities (used by the analyzer / planner)
# ---------------------------------------------------------------------------


def find_nodes(expr: Expr, node_type: type) -> List[Expr]:
    """All descendants of ``expr`` (inclusive) of the given node type."""
    return [node for node in expr.walk() if isinstance(node, node_type)]


def contains_node(expr: Expr, node_type: type) -> bool:
    return any(isinstance(node, node_type) for node in expr.walk())


def column_names(expr: Expr) -> List[str]:
    """Names of all column references in the tree, in encounter order."""
    return [node.name for node in expr.walk() if isinstance(node, ColumnRef)]


def free_column_names(expr: Expr) -> List[str]:
    """Column references *not* enclosed in an aggregate call.

    Aggregate arguments (``sum(len)``) are evaluated per tuple at update
    time, so the columns inside them are bound to the input stream rather
    than the clause's own context; clause-legality checks must skip them.
    """
    names: List[str] = []

    def visit(node: Expr) -> None:
        if isinstance(node, AggregateCall):
            return
        if isinstance(node, ColumnRef):
            names.append(node.name)
        for child in node.children():
            visit(child)

    visit(expr)
    return names


def rewrite(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rewrite: ``fn`` may return a replacement node or ``None``.

    Children are rewritten first, then ``fn`` is offered the (possibly
    rebuilt) node.  Dataclass frozen-ness means rebuilds create new nodes.
    """
    if isinstance(expr, UnaryOp):
        rebuilt: Expr = UnaryOp(expr.op, rewrite(expr.operand, fn), span=expr.span)
    elif isinstance(expr, BinaryOp):
        rebuilt = BinaryOp(
            expr.op, rewrite(expr.left, fn), rewrite(expr.right, fn), span=expr.span
        )
    elif isinstance(expr, FunctionCall):
        rebuilt = FunctionCall(
            expr.name, tuple(rewrite(a, fn) for a in expr.args), span=expr.span
        )
    elif isinstance(expr, ScalarCall):
        rebuilt = ScalarCall(
            expr.name, tuple(rewrite(a, fn) for a in expr.args), span=expr.span
        )
    elif isinstance(expr, AggregateCall):
        rebuilt = AggregateCall(
            expr.name, tuple(rewrite(a, fn) for a in expr.args), expr.slot,
            span=expr.span,
        )
    elif isinstance(expr, SuperAggregateCall):
        rebuilt = SuperAggregateCall(
            expr.name, tuple(rewrite(a, fn) for a in expr.args), expr.slot,
            span=expr.span,
        )
    elif isinstance(expr, StatefulCall):
        rebuilt = StatefulCall(
            expr.name, expr.state_name, tuple(rewrite(a, fn) for a in expr.args),
            span=expr.span,
        )
    else:
        rebuilt = expr
    replacement = fn(rebuilt)
    return replacement if replacement is not None else rebuilt
