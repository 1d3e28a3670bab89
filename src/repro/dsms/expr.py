"""Expression AST and compiler for the GSQL subset.

The parser builds these nodes; the analyzer classifies function calls into
scalar functions, aggregates, superaggregates (``name$``-suffixed, paper
§6.3) and stateful functions (paper §6.2); the operators compile them.

Compile once, run per tuple: when an operator is built, the clause
emitter writes an analyzed tree out as Python source (DESIGN.md §2) —
the statements of a node's generated run loop and window close
(:mod:`repro.dsms.node`), or one function (:func:`compile_expr`) — with
every column name resolved by a *binder* to the position it is read from
(a record slot, a group-by value) and every literal, function name and
aggregate node bound as an argument default.  It is the only
implementation of scalar expression semantics; :func:`evaluate` is its
one-shot form for tests.

The sampling operator evaluates its clauses in several phases (per-tuple
WHERE, per-supergroup CLEANING WHEN, per-group CLEANING BY / HAVING, and
output SELECT).  What differs between phases is the binder each clause
is compiled with (:func:`bind_input`, :func:`bind_tuple`,
:func:`bind_group`), not the evaluator: at run time a clause takes one
:class:`EvalContext`, reads the fields the binder pointed it at, and
calls what it names straight out of the context's function, state and
aggregate fields — counting each call there for the cost model.  The
analyzer enforces which node kinds a clause may hold, so a field missing
at run time is a bug, reported as :class:`ExecutionError`.  A clause
holds no operator state: nothing compiled is ever checkpointed and
``restore()`` needs no recompilation.
"""

from __future__ import annotations

import linecache
import operator
import threading
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.dsms.functions import unknown_function
from repro.dsms.span import Span
from repro.dsms.stateful import unallocated_state, unknown_sfun
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


class _Call(Expr):
    """``name(args)``: what every kind of call node shares."""

    name: str
    args: Tuple[Expr, ...]

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class FunctionCall(_Call):
    """An unclassified call, as parsed.  The analyzer rewrites these."""

    name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class ScalarCall(_Call):
    """A call to a registered scalar function (H, UMAX, ...)."""

    name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class AggregateCall(_Call):
    """A group aggregate: sum(len), count(*), min(x)...

    ``slot`` is assigned by the planner: the index of this aggregate in the
    group's aggregate vector.
    """

    name: str
    args: Tuple[Expr, ...]
    slot: int = -1
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class SuperAggregateCall(_Call):
    """A supergroup aggregate, written ``name$(args)`` (paper §6.3)."""

    name: str
    args: Tuple[Expr, ...]
    slot: int = -1
    span: Optional[Span] = _span_field()

    def __str__(self) -> str:
        return f"{self.name}$({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class StatefulCall(_Call):
    """A call to an SFUN sharing per-supergroup state (paper §6.2)."""

    name: str
    state_name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()
    reader: bool = field(default=False, compare=False, repr=False)  # StatefulLibrary.is_reader


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class EvalContext:
    """What compiled expressions read at evaluation time.

    A context carries the record a clause bound by :func:`bind_input`'s
    default reads (a generated node holds its record's values and keys
    in locals instead) and five fields a clause calls through directly:
    ``ctx.scalars[name](...)`` (the registry's own mapping, so a later
    ``register(..., replace=True)`` still binds), ``ctx.sfuns[name](
    ctx.states[state], ...)`` (the supergroup's state set, or a stateful
    selection's), ``ctx.aggregates[slot].value()`` (the group in scope)
    and ``ctx.superaggregates[slot].value()``.  A field this phase lacks
    stays None, and a clause reaching it raises what that analyzer gap
    means (:func:`_unavailable`).  ``column`` serves only :func:`by_name`
    binding — operators bind names to positions when they are built and
    never look a column up by name per tuple.

    A clause function does not charge a ``function_call`` / ``sfun_call``
    per call; it counts them here (``function_calls``, ``sfun_calls``) for
    whoever charges them — a scan's member, :func:`repro.dsms.node.take`.
    A generated node (DESIGN.md §2) counts and charges its own, and reads
    the ``sfuns`` and ``states`` it calls once per supergroup.
    """

    function_calls = 0
    sfun_calls = 0
    scalars: Optional[Mapping[str, Callable[..., Any]]] = None
    sfuns: Optional[Mapping[str, Callable[..., Any]]] = None
    states: Optional[Mapping[str, Any]] = None
    aggregates: Optional[Sequence[Any]] = None
    superaggregates: Optional[Sequence[Any]] = None

    def __init__(
        self,
        scalars: Optional[Mapping[str, Callable[..., Any]]] = None,
        sfuns: Optional[Mapping[str, Callable[..., Any]]] = None,
    ) -> None:
        # every field set here, in one order, so every context has one layout
        self.scalars, self.sfuns = scalars, sfuns
        self.states = self.aggregates = self.superaggregates = None
        self.record: Any = None

    def column(self, name: str) -> Any:
        raise ExecutionError(f"column {name!r} not available in this context")


def _unavailable(ctx: EvalContext, node: Expr) -> Exception:
    """What a clause raises when a call or an aggregate read finds nothing
    in the context: the field is None (this phase has no such thing) or
    lacks the key (a tree built by hand, or a state never allocated)."""
    if isinstance(node, ScalarCall) and ctx.scalars is not None:
        return unknown_function(node.name)
    if isinstance(node, StatefulCall) and ctx.sfuns is not None:
        if node.name not in ctx.sfuns:
            return unknown_sfun(node.name)
        return unallocated_state(node.state_name, node.name)
    kind = {
        ScalarCall: "scalar function",
        StatefulCall: "stateful function",
        AggregateCall: "aggregate",
    }.get(type(node))
    shown = f"{kind} {node.name!r}" if kind else f"superaggregate {node.name}$"
    return ExecutionError(f"{shown} not available in this context")


def _raise(error: Exception, *args: Any) -> Any:
    """What a node binds for an SFUN or state it lacks: :func:`_unavailable`'s error."""
    raise error


#: A compiled clause: context in, value out.
Compiled = Callable[[Any], Any]
#: Where a binder found a column: ``(base, index)`` — read ``base[index]``, ``base`` an attribute
#: path from ``ctx`` — or, for a name without a position, a callable of the context.
Where = Union[Tuple[str, int], Compiled]
#: Resolves a column name, once, to where it is read from.
Bind = Callable[[str], Where]


def by_name(name: str) -> Where:
    """The binder of last resort: ask the context's ``column`` hook."""
    return operator.methodcaller("column", name)


def _fails(message: str) -> Compiled:
    """What a node nothing can evaluate compiles to a call of (a tree
    built by hand: the analyzer rejects such queries).  The error belongs
    to the record that evaluates it, not to operator construction."""

    def fail(ctx: Any) -> Any:
        raise ExecutionError(message)

    return fail


def bind_input(schema: Any, values: str = "ctx.record.values") -> Bind:
    """Names are columns of ``schema``, read by position from ``values``
    (the record's; a generated node holds them in a local).  GROUP BY
    expressions and selections bind this way."""

    def bind(name: str) -> Where:
        if name not in schema:
            return _fails(f"column {name!r} not available in this context")
        return values, schema.index_of(name)

    return bind


def bind_group(group_by_names: Sequence[str], key: str) -> Bind:
    """Group-time binding (CLEANING WHEN/BY, HAVING, SELECT, group-fed
    superaggregate values): only group-by names exist, read by position
    from ``key`` — the group-by values in scope."""
    positions = {name: i for i, name in enumerate(group_by_names)}

    def bind(name: str) -> Where:
        index = positions.get(name)
        if index is None:
            return _fails(f"column {name!r} is not a group-by variable")
        return key, index

    return bind


def bind_tuple(schema: Any, group_by_names: Sequence[str], values: str, key: str) -> Bind:
    """Tuple-time binding once GROUP BY has run (WHERE, aggregate
    arguments, tuple-fed superaggregate values).

    The one shadowing rule: GROUP BY expressions see input columns
    (:func:`bind_input`); everywhere after, a group-by name wins over an
    input column of the same name (:func:`bind_group`, with ``key``
    holding the tuple's own group-by values).
    """
    bind_key = bind_group(group_by_names, key)
    bind_column = bind_input(schema, values)

    def bind(name: str) -> Where:
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


#: ``(field, slot)`` -> how a generated node updates an aggregate or a
#: built-in superaggregate (a statement over the value ``{v}``) and reads
#: it (an expression over its locals): :func:`repro.dsms.node.in_place`
InPlace = Mapping[Tuple[str, int], Tuple[str, str]]


def compile_expr(expr: Expr, bind: Bind, label: str = "expr") -> Compiled:
    """Turn an analyzed tree into one Python function, once.

    ``bind`` resolves every :class:`ColumnRef`, so evaluating the result
    walks no AST, looks no name up and runs in one frame; ``label``
    (query and clause) names it in tracebacks (:func:`_code`).
    Semantics: division is SQL/C integer division on two ints
    (``time/60`` must bucket, not produce floats) and float division
    otherwise, ``bool`` counting as a number rather than an int; AND/OR
    short-circuit; arguments evaluate left to right; scalar and stateful
    calls are looked up in the context's fields and counted there.  Every
    error is raised when the offending record is evaluated, never here.
    """
    emitter = _Emitter(bind)
    return emitter.function(emitter.emit(expr), label)


class _Emitter:
    """Writes one clause as the body of ``def run(ctx, k0=k0, ...)``.

    One statement per evaluation that can raise or call out — a column
    read, an operator, a call — in the order a tree walk makes them,
    each leaving a local (``t1``, ``t2`` ...): a ``try`` wraps one
    operator or one lookup in the context and nothing else, so a
    ``TypeError`` out of a called function propagates as it is.  Nothing
    from the query text is written into the source, only positions and
    the names made up here: literals, function names, slots and the
    nodes error messages want are the default arguments ``k0``, ``k1``
    ... (they load as locals).  In a node, fields are read from its locals.

    The one-read rule: in a per-record body (a node's record loop, a
    scan's), a column read written at the body's top level — not under an
    ``if``, an AND/OR arm or a nested loop — leaves a local that every
    later read of that column in the record reuses.  The record's values
    are a tuple, and the first read stays where it was, so what raises and
    what is counted do not move.
    """

    def __init__(self, bind: Bind, in_place: Optional[InPlace] = None) -> None:
        self.bind = bind
        self.in_place = in_place or {}
        self.lines: List[str] = []
        self.consts: List[Any] = []
        self.locals = 0
        self.depth = 1
        #: the base loaded into ``b`` on entry; None until the first read
        self.hoisted: Optional[str] = None
        #: where the context's fields are read ("" in a node); AND/OR arms open
        self.scope, self.arms = "ctx.", 0
        #: in a node holding its supergroup, ``(sfun, state)`` -> the line
        #: binding it to ``f0, s0`` ...; None: each call looks them up
        self.binds: Optional[Dict[Tuple[str, str], str]] = None
        #: the depth of the per-record body being written (None: none), and
        #: the locals its top-level column reads left, by ``(base, index)``
        self.body: Optional[int] = None
        self.held: Dict[Tuple[str, int], str] = {}
        #: in a walk no clause moves a reader: a quiet bound call's source -> its local, set once
        self.once: Optional[Dict[str, str]] = None

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def assign(self, source: str, error: Optional[str] = None, catch: str = "TypeError") -> str:
        """``tN = source`` as the next statement; with ``error``, alone
        under a ``try`` that raises it in place of ``catch``."""
        self.locals += 1
        name = f"t{self.locals}"
        if error is None:
            self.line(f"{name} = {source}")
        else:
            self.line("try:")
            self.line(f"    {name} = {source}")
            self.line(f"except {catch}:")
            self.line(f"    raise {error} from None")
        return name

    def lookup(self, source: str, node: str) -> str:
        """``source``, a context field indexed, alone under a ``try``: a
        field that is None or lacks the key raises what
        :func:`_unavailable` says for ``node`` (a bound node's name)."""
        return self.assign(source, f"_unavailable(ctx, {node})", "(LookupError, TypeError)")

    def count(self, name: str) -> None:
        """One more ``name``: in the context; in a node, a point it derives
        from its events (``@ name += 1``), or under an AND/OR arm a local
        bumped as it runs."""
        self.line(f"{'ctx.' if self.scope else '' if self.arms else '@ '}{name} += 1")

    def fail(self, message: str) -> str:
        return self.assign(f"{self.const(_fails(message))}(ctx)")

    def emit(self, expr: Expr) -> str:
        """Write what evaluates ``expr``; the name that then holds it."""
        if isinstance(expr, Literal):
            return self.const(expr.value)
        if isinstance(expr, Star):
            return self.const(1)  # count(*) counts rows; the argument value is irrelevant
        if isinstance(expr, ColumnRef):
            return self.read(self.bind(expr.name))
        if isinstance(expr, UnaryOp):
            return self.unary(expr)
        if isinstance(expr, BinaryOp):
            return self.logic(expr) if expr.op in ("AND", "OR") else self.binary(expr)
        if isinstance(expr, (ScalarCall, StatefulCall)):
            return self.call(expr)
        if isinstance(expr, (AggregateCall, SuperAggregateCall)):
            field = "aggregates" if isinstance(expr, AggregateCall) else "superaggregates"
            form = self.in_place.get((field, expr.slot))
            if form:  # a node's: read in place, from its locals
                return self.assign(form[1])
            slot = self.lookup(f"{self.scope}{field}[{self.const(expr.slot)}]", self.const(expr))
            return self.assign(f"{slot}.value()")
        if isinstance(expr, FunctionCall):
            return self.fail(
                f"unclassified function call {expr.name!r} reached evaluation;"
                " run the analyzer before executing"
            )
        return self.fail(f"unknown expression node {type(expr).__name__}")

    def row(self, exprs: Sequence[Expr]) -> str:
        """``exprs`` left to right, as the display of one tuple."""
        return f"({''.join(f'{self.emit(expr)}, ' for expr in exprs)})"

    def call(self, node: Union[ScalarCall, StatefulCall]) -> str:
        """Arguments left to right, the count, the lookups, then one call:
        an SFUN takes the state its node names ahead of its arguments (a
        node holding its supergroup binds both once per supergroup instead;
        one missing binds :func:`_raise`)."""
        items = [self.emit(arg) for arg in node.args]
        stateful = isinstance(node, StatefulCall)
        self.count("sfun_calls" if stateful else "function_calls")
        if stateful and self.binds is not None:
            key = (node.name, node.state_name)
            if key not in self.binds:
                name, state, bound = map(self.const, (node.name, node.state_name, node))
                self.binds[key] = (f"f{len(self.binds)}, s{len(self.binds)} = (sfuns[{name}], states[{state}])"
                                   f" if {name} in sfuns and {state} in states else (_raise, _unavailable(ctx, {bound}))")
            i = list(self.binds).index(key)
            source = f"f{i}({', '.join([f's{i}'] + items)})"
            if self.once is not None and self.quiet(node):
                return self.once.setdefault(source, f"r{len(self.once)}")
            return self.assign(source)
        bound, name = self.const(node), self.const(node.name)
        fn = self.lookup(f"{self.scope}{'sfuns' if stateful else 'scalars'}[{name}]", bound)
        if stateful:
            items.insert(0, self.lookup(f"{self.scope}states[{self.const(node.state_name)}]", bound))
        return self.assign(f"{fn}({', '.join(items)})")

    def quiet(self, expr: Expr) -> bool:
        """Evaluating ``expr`` writes nothing and raises nothing: a literal,
        a column read by position, or a reader call on literals."""
        if isinstance(expr, StatefulCall):
            return expr.reader and all(isinstance(arg, Literal) for arg in expr.args)
        return isinstance(expr, Literal) or isinstance(expr, ColumnRef) and type(self.bind(expr.name)) is tuple

    def read(self, where: Where) -> str:
        if not isinstance(where, tuple):
            return self.assign(f"{self.const(where)}(ctx)")
        if where in self.held:
            return self.held[where]
        base, index = where
        if self.hoisted is None:
            # Loading ``base`` on entry is the same AttributeError at the
            # same moment only when the clause's first evaluation reads
            # it: not from under an AND / OR arm, not after a hook call.
            self.hoisted = "" if self.lines else base
        name = self.assign(f"{'b' if base == self.hoisted else base}[{index}]")
        if self.depth == self.body and not self.arms:
            self.held[where] = name
        return name

    def unary(self, expr: UnaryOp) -> str:
        value = self.emit(expr.operand)
        if expr.op == "NOT":
            return self.assign(f"not {value}")
        if expr.op == "-":
            return self.assign(f"-{value}", f"_type_error({self.const(expr)}, {value})")
        return self.fail(f"unknown unary operator {expr.op!r}")

    def binary(self, expr: BinaryOp) -> str:
        op, left, right = expr.op, self.emit(expr.left), self.emit(expr.right)
        if op in _INFIX:
            source = f"{left} {_INFIX[op]} {right}"
        elif op in _SPANNED:
            source = f"{self.const(_SPANNED[op](expr))}({left}, {right})"
            divisor = expr.right.value if isinstance(expr.right, Literal) else None
            if op == "/" and type(divisor) is int and divisor != 0:
                # ``time / 60``: no call when the column holds an int.
                source = f"{left} // {right} if type({left}) is int else {source}"
        else:
            return self.fail(f"unknown binary operator {op!r}")
        return self.assign(source, f"_type_error({self.const(expr)}, {left}, {right})")

    def logic(self, expr: BinaryOp) -> str:
        """Short-circuit: the right operand's statements sit under an ``if``
        on the left's truth (``True if a else False``, not ``bool(a)``: no
        call).  ``a AND b AND c`` parses left-nested, so its blocks follow
        one another; operands parenthesised to the right do nest, and the
        parser's limit stops them inside the tokenizer's 100 levels."""
        result = self.emit(expr.left)
        if not (isinstance(expr.left, BinaryOp) and expr.left.op in ("AND", "OR")):
            result = self.assign(f"True if {result} else False")
        self.line(f"if {result}:" if expr.op == "AND" else f"if not {result}:")
        self.depth, self.arms = self.depth + 1, self.arms + 1
        value = self.emit(expr.right)
        self.line(f"{result} = True if {value} else False")
        self.depth, self.arms = self.depth - 1, self.arms - 1
        return result

    def function(self, result: str, label: str, name: str = "run", params: str = "ctx") -> Any:
        names = [f"k{i}" for i in range(len(self.consts))]
        head = [f"def {name}({params}{''.join(f', {k}={k}' for k in names)}):"]
        if self.hoisted:
            head.append(f"    b = {self.hoisted}")
        source = "\n".join(head + self.lines + [f"    return {result}", ""])
        namespace = dict(zip(names, self.consts), __name__=__name__)
        namespace.update(_type_error=_type_error, _unavailable=_unavailable, _raise=_raise)
        exec(_code(source, label), namespace)
        return namespace[name]


#: (file name, source) -> code object, oldest first: shards, replicas and
#: re-registrations compile the same text under the same name again.  Bounded,
#: so an unregistered query's source does not stay for the life of a server.
_CODE: Dict[Tuple[str, str], Any] = {}
_CODE_LIMIT = 512
_CODE_LOCK = threading.Lock()


def _code(source: str, label: str) -> Any:
    """``source`` compiled under the file name ``<gsql:LABEL:DIGEST>``,
    which ``linecache`` knows: a traceback through a generated clause
    shows the generated line, and ``inspect.getsource`` prints the
    clause.  The digest keeps two texts of one label apart."""
    filename = f"<gsql:{label}:{zlib.crc32(source.encode()):08x}>"
    key = (filename, source)
    with _CODE_LOCK:
        code = _CODE.get(key)
        if code is None:
            code = _CODE[key] = compile(source, filename, "exec")
            linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
            if len(_CODE) > _CODE_LIMIT:
                oldest = next(iter(_CODE))
                del _CODE[oldest]
                linecache.cache.pop(oldest[0], None)
    return code


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
        # Exact ints first: the common case, without the two calls of the
        # subclass-aware test.
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


#: The same operators as generated source spells them.
_INFIX: dict = {op: {"=": "==", "<>": "!="}.get(op, op) for op in _PLAIN}


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
            raise _type_error(expr, left, right) from None

    return run


def _type_error(expr: Any, *operands: Any) -> ExecutionError:
    """A mixed-type operand failure as a span-carrying ExecutionError.

    Without this, ``srcIP > 100`` on a string column escapes as a raw
    ``TypeError`` traceback from deep inside the operator instead of a
    diagnostic that names the expression and its source position.
    """
    types = " and ".join(type(value).__name__ for value in operands)
    kind = "types" if len(operands) > 1 else "type"
    return ExecutionError(
        f"cannot evaluate {expr}: unsupported operand {kind} for {expr.op!r} ({types})",
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
    if isinstance(expr, AggregateCall):
        return []
    if isinstance(expr, ColumnRef):
        return [expr.name]
    return [name for child in expr.children() for name in free_column_names(child)]


def rewrite(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rewrite: ``fn`` may return a replacement node or ``None``.

    Children are rewritten first, then ``fn`` is offered the (possibly
    rebuilt) node.  Dataclass frozen-ness means rebuilds create new nodes.
    """
    if isinstance(expr, UnaryOp):
        rebuilt: Expr = replace(expr, operand=rewrite(expr.operand, fn))
    elif isinstance(expr, BinaryOp):
        rebuilt = replace(expr, left=rewrite(expr.left, fn), right=rewrite(expr.right, fn))
    elif isinstance(expr, _Call):
        rebuilt = replace(expr, args=tuple(rewrite(arg, fn) for arg in expr.args))
    else:
        rebuilt = expr
    replacement = fn(rebuilt)
    return replacement if replacement is not None else rebuilt
