"""``compile_expr`` against the naive reference interpreter.

The interpreter in ``_naive_eval.py`` is the oracle: for any tree, the
compiled function must produce the same value of the same type after the
same sequence of function calls, or fail with the same error — under
each of the four binders, and item by item for a tuple or an argument
list.  The unit tests below pin what generating source adds on top: a
query's text never reaches it, and every tree the parser admits
compiles.
"""

import gc
import inspect
import linecache
import pickle
from dataclasses import replace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bindings import (
    HEAVY_HITTERS_QUERY,
    PREFILTER_QUERY,
    SUBSET_SUM_QUERY,
    basic_subset_sum_library,
    heavy_hitters_library,
    subset_sum_library,
)
from repro.dsms.expr import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    EvalContext,
    FunctionCall,
    Literal,
    ScalarCall,
    Star,
    StatefulCall,
    SuperAggregateCall,
    UnaryOp,
    bind_group,
    bind_input,
    bind_tuple,
    by_name,
    _Emitter,
    compile_expr,
    evaluate,
    find_nodes,
)
from repro.dsms.node import emit_node
from repro.dsms.parser.parser import MAX_EXPRESSION_DEPTH, parse_expression
from repro.dsms.runtime import Gigascope
from repro.dsms.span import Span
from repro.errors import (
    ExecutionError,
    ParseError,
    PlanningError,
    RegistryError,
    ReproError,
    StatefulFunctionError,
)
from repro.serving.server import StandingQueryEngine
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA, Attribute, StreamSchema
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed

from tests._calls import python_calls
from tests.dsms._naive_eval import naive_evaluate

# -- random trees -------------------------------------------------------------

SCHEMA = StreamSchema("R", [Attribute(name) for name in ("i", "z", "f", "b", "s", "n")])
#: one record per "row shape": ints, a zero, a float, a bool, a string, None
RECORDS = [
    Record(SCHEMA, (7, 0, 2.5, True, "abc", None)),
    Record(SCHEMA, (-3, 0, float("nan"), False, "", None)),
    Record(SCHEMA, (10**12, 0, -0.0, True, "7", None)),
    Record(SCHEMA, (1, 0, 0.5, False, "torn", None)),
]
# ... and one cut short behind the constructor's back, as an unvalidated
# source can deliver it: reading ``b``, ``s`` or ``n`` is an IndexError,
# which makes *when* a column is read part of the outcome.
RECORDS[-1].values = RECORDS[-1].values[:3]


#: group-by names in scope at group time; ``i`` shadows the input column
GROUP = ("g", "i")
KEY = ("grp", 42)


def _column_of_record(ctx, name):
    return ctx.record[name]


def _column_of_input(ctx, name):
    if name not in SCHEMA:
        raise ExecutionError(f"column {name!r} not available in this context")
    return ctx.record[name]


def _column_of_group(ctx, name):
    if name not in GROUP:
        raise ExecutionError(f"column {name!r} is not a group-by variable")
    return ctx.key[GROUP.index(name)]


def _column_of_tuple(ctx, name):
    if name in GROUP:
        return ctx.key[GROUP.index(name)]
    if name not in SCHEMA:
        raise ExecutionError(f"column {name!r} not available at WHERE time")
    return ctx.record[name]


#: (binder, what the oracle's by-name lookup must do to mean the same)
BINDERS = [
    (by_name, _column_of_record),
    (bind_input(SCHEMA), _column_of_input),
    (bind_group(GROUP, "ctx.key"), _column_of_group),
    (bind_tuple(SCHEMA, GROUP, "ctx.record.values", "ctx.key"), _column_of_tuple),
]


class _Stub:
    """An aggregate that holds one value."""

    def __init__(self, value):
        self._value = value

    def value(self):
        return self._value


class LoggingContext(EvalContext):
    """Stub functions that record every call, in order, with its arguments
    (as ``repr``: a computed NaN argument must equal itself), and stub
    aggregates, in the fields a compiled clause reads."""

    def __init__(self, record, column=_column_of_record):
        self.record = record
        self.key = KEY
        self.log = []
        self._column = column
        self.scalars = {name: self._scalar(name) for name in ("first", "boom")}
        self.sfuns = {"flip": self._flip}
        self.states = {"flip_state": object()}
        self.aggregates = [_Stub(value) for value in (3, 2.0, 0)]
        self.superaggregates = [_Stub(value) for value in (11, 0)]

    def column(self, name):
        return self._column(self, name)

    def _scalar(self, name):
        def call(*args):
            self.log.append(("scalar", name, repr(list(args))))
            if name == "boom":
                raise ExecutionError("boom")
            return args[0] if args else 0

        return call

    def _flip(self, state, *args):
        assert state is self.states["flip_state"]
        self.log.append(("sfun", "flip", repr(list(args))))
        return len(self.log) % 2 == 0


spans = st.one_of(
    st.none(), st.builds(Span, st.integers(1, 9), st.integers(1, 40), st.integers(1, 5))
)
literals = st.builds(
    Literal,
    st.one_of(
        st.integers(-5, 5),
        st.sampled_from([0, 0.0, 1.5, -2.0, float("inf"), True, False, "x", "", None]),
    ),
)
leaves = st.one_of(
    literals,
    st.builds(ColumnRef, st.sampled_from(SCHEMA.names + ("g", "missing"))),
    st.just(Star()),
    st.builds(AggregateCall, st.just("sum"), st.just(()), st.integers(0, 2)),
    st.builds(SuperAggregateCall, st.just("count_distinct"), st.just(()), st.integers(0, 1)),
    st.just(FunctionCall("unclassified", ())),
)
BINARY_OPS = ["+", "-", "*", "/", "%", "=", "<>", "!=", "<", "<=", ">", ">=", "AND", "OR", "^"]


def _nodes(children):
    args = st.lists(children, max_size=3).map(tuple)
    return st.one_of(
        st.builds(UnaryOp, st.sampled_from(["-", "NOT", "~"]), children, spans),
        st.builds(BinaryOp, st.sampled_from(BINARY_OPS), children, children, spans),
        st.builds(ScalarCall, st.sampled_from(["first", "boom"]), args),
        st.builds(StatefulCall, st.just("flip"), st.just("flip_state"), args),
    )


trees = st.recursive(leaves, _nodes, max_leaves=12)


def _outcome(run, ctx):
    """What evaluating did: the value and its type, or the error."""
    try:
        value = run(ctx)
    except ExecutionError as error:
        return ("error", str(error), error.span), ctx.log
    except Exception as error:  # e.g. OverflowError: must match too
        return (type(error).__name__, str(error)), ctx.log
    # repr, not ==: NaN equals itself here, and -0.0 differs from 0.0
    types = [type(item) for item in value] if type(value) is tuple else type(value)
    return ("value", types, repr(value)), ctx.log


@settings(max_examples=400, deadline=None)
@given(trees, st.sampled_from(RECORDS), st.sampled_from(BINDERS))
def test_compiled_equals_naive(tree, record, binder):
    bind, column = binder
    want = _outcome(
        lambda ctx: naive_evaluate(tree, ctx), LoggingContext(record, column)
    )
    compiled = compile_expr(tree, bind)
    assert _outcome(compiled, LoggingContext(record, column)) == want
    # a compiled function carries nothing over from one call to the next
    assert _outcome(compiled, LoggingContext(record, column)) == want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(trees, max_size=5),
    st.sampled_from(RECORDS),
    st.sampled_from(BINDERS),
)
def test_items_evaluate_left_to_right(items, record, binder):
    """A tuple and an argument list are their items, in order: an error
    in item *k* comes after the hook calls of the items before it."""
    bind, column = binder
    want = _outcome(
        lambda ctx: tuple([naive_evaluate(item, ctx) for item in items]),
        LoggingContext(record, column),
    )
    # No public function writes a row: the emitter's row, wrapped
    # in a function of its own, stands in for the SELECT row a window
    # close writes inline.
    emitter = _Emitter(bind)
    compiled = emitter.function(emitter.row(items), "row")
    assert _outcome(compiled, LoggingContext(record, column)) == want
    for call in (
        ScalarCall("first", tuple(items)),
        StatefulCall("flip", "flip_state", tuple(items)),
    ):
        want = _outcome(
            lambda ctx: naive_evaluate(call, ctx), LoggingContext(record, column)
        )
        compiled = compile_expr(call, bind)
        assert _outcome(compiled, LoggingContext(record, column)) == want


def test_errors_belong_to_evaluation_not_compilation():
    bombs = [
        BinaryOp("/", Literal(1), Literal(0)),
        BinaryOp("%", Literal(1), Literal(0)),
        UnaryOp("-", Literal("x")),
        UnaryOp("~", Literal(1)),
        BinaryOp("^", Literal(1), Literal(1)),
        FunctionCall("f", ()),
        ColumnRef("missing"),
    ]
    for bomb in bombs:
        guarded = BinaryOp("AND", Literal(False), bomb)
        assert compile_expr(guarded, bind_input(SCHEMA))(LoggingContext(RECORDS[0])) is False


def test_a_base_is_loaded_once_only_where_the_first_read_fails_alike():
    """``b = ctx.record.values`` ahead of everything is the same error at
    the same moment only when the first thing the clause evaluates reads
    a column: not under an AND / OR arm, not after a hook call."""
    bind = bind_input(SCHEMA)
    twice = BinaryOp("+", ColumnRef("i"), ColumnRef("i"))
    hoisted = compile_expr(twice, bind)
    assert "b = ctx.record.values" in inspect.getsource(hoisted)
    with pytest.raises(AttributeError):
        hoisted(LoggingContext(None))

    guarded = BinaryOp("AND", Literal(False), twice)
    assert compile_expr(guarded, bind)(LoggingContext(None)) is False

    late = BinaryOp("+", ScalarCall("first", (Literal(1),)), twice)
    ctx = LoggingContext(None)
    with pytest.raises(AttributeError):
        compile_expr(late, bind)(ctx)
    assert ctx.log == [("scalar", "first", "[1]")]


def test_a_context_without_what_a_call_needs_fails_as_the_hooks_did():
    """Error parity with the hook protocol this replaced: each message
    below is the one the hooks raised, type and text.  A bare context has
    no functions, states or aggregates; a plain selection's has scalars
    but no SFUNs; a sampling supergroup may miss its state, and a
    hand-built tree may name what no registry holds."""
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library())
    selection = gs.add_query("SELECT len FROM TCP", name="sel").operator._ctx
    sampling = gs.add_query(SUBSET_SUM_QUERY.format(window=2, target=1000), name="ss").operator
    (ssample,) = find_nodes(sampling.spec.where, StatefulCall)
    ssample = replace(ssample, args=(Literal(40), Literal(1000)))
    supergroup = sampling._ctx
    supergroup.states = {}  # a supergroup missing the state

    unallocated = (
        "state 'subsetsum_sampling_state' for SFUN 'ssample' was not allocated;"
        " this usually means the call appears outside a sampling query"
    )
    cases = [
        (EvalContext(), ScalarCall("f", ()), ExecutionError,
         "scalar function 'f' not available in this context"),
        (EvalContext(), AggregateCall("sum", (), 0), ExecutionError,
         "aggregate 'sum' not available in this context"),
        (EvalContext(), SuperAggregateCall("count_distinct", (), 0), ExecutionError,
         "superaggregate count_distinct$ not available in this context"),
        (EvalContext(), StatefulCall("f", "s", ()), ExecutionError,
         "stateful function 'f' not available in this context"),
        (selection, ssample, ExecutionError,
         "stateful function 'ssample' not available in this context"),
        (supergroup, ssample, StatefulFunctionError, unallocated),
        (supergroup, ScalarCall("nope", ()), RegistryError, "unknown scalar function 'nope'"),
        (supergroup, StatefulCall("nope", "s", ()), RegistryError,
         "unknown stateful function 'nope'"),
    ]
    for ctx, node, kind, message in cases:
        with pytest.raises(ReproError) as caught:
            evaluate(node, ctx)
        assert (type(caught.value), str(caught.value)) == (kind, message)


# -- source generation ---------------------------------------------------------

HOSTILE = [
    "'); import os; os._exit(9) #",
    '"""); raise SystemExit #',
    "\\",
    "a\\'; raise SystemExit('\\",
    "nul\x00byte",
    "{0} {ctx} %s",
]


def _generated_sources():
    return [
        "".join(entry[2])
        for name, entry in linecache.cache.items()
        if name.startswith("<gsql:")
    ]


@pytest.mark.parametrize("text", HOSTILE)
def test_query_text_is_data_never_source(text):
    """A literal from the network reaches the generated function through
    its arguments: it evaluates as data, comes back unchanged, and appears
    in no generated line.  An alias is an identifier, so the hostile ones
    are the emitter's own names."""
    quote = '"' if "'" in text else "'"
    sql = (
        f"SELECT len AS k0, {quote}{text}{quote} AS t1, srcIP AS ctx, time AS b"
        f" FROM TCP WHERE {quote}{text}{quote} = {quote}{text}{quote} AND len > 0"
    )
    packet = Record.from_mapping(TCP_SCHEMA, {"time": 3, "srcIP": 9, "len": 40})

    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.add_query(sql, name="hostile")
    gs.run([packet])
    assert _rows(gs, "hostile") == [(40, text, 9, 3)]

    def instance():
        served = Gigascope()
        served.register_stream(TCP_SCHEMA)
        return served

    engine = StandingQueryEngine(instance)
    sq = engine.register(sql, name="hostile")
    engine.feed([packet])
    assert [row.values for row in sq.results] == [(40, text, 9, 3)]

    sources = _generated_sources()
    assert sources and not any(text in source for source in sources)
    # ... and a hand-built tree may hold what the lexer refuses: a newline
    line_break = Literal("\n    raise SystemExit")
    compiled = compile_expr(BinaryOp("+", line_break, Literal(text)), by_name)
    assert compiled(LoggingContext(RECORDS[0])) == line_break.value + text
    assert "SystemExit" not in inspect.getsource(compiled)


def _nested(op, depth, side):
    """``x op (x op (...))`` or ``((...) op x) op x``, ``depth`` operators."""
    text = "i"
    for _ in range(depth):
        text = f"i {op} ({text})" if side == "right" else f"({text}) {op} i"
    return text


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("op", ["AND", "OR", "+", "-"])
def test_every_tree_the_parser_admits_compiles(op, side):
    """At the parser's nesting limit a chain compiles (the tokenizer's
    100 indentation levels are further out than the limit) and agrees
    with the oracle; one operator more is the parser's error."""
    tree = parse_expression(_nested(op, MAX_EXPRESSION_DEPTH, side))
    for record in RECORDS[:3]:
        want = _outcome(lambda ctx: naive_evaluate(tree, ctx), LoggingContext(record))
        for bind in (by_name, bind_input(SCHEMA)):
            assert _outcome(compile_expr(tree, bind), LoggingContext(record)) == want
    with pytest.raises(ParseError, match="nests deeper than 64 levels"):
        parse_expression(_nested(op, MAX_EXPRESSION_DEPTH + 1, side))


def test_alternating_operators_nest_to_the_limit():
    """AND under OR under AND ...: the one shape whose blocks do nest."""
    text = "i > 0"
    for level in range(MAX_EXPRESSION_DEPTH - 1):
        text = f"z = 0 {('AND', 'OR')[level % 2]} ({text})"
    tree = parse_expression(text)
    want = _outcome(lambda ctx: naive_evaluate(tree, ctx), LoggingContext(RECORDS[0]))
    compiled = compile_expr(tree, bind_input(SCHEMA))
    assert _outcome(compiled, LoggingContext(RECORDS[0])) == want


def test_group_clauses_nest_to_the_limit_inside_a_node():
    """A sampling node writes CLEANING BY inside its run loop's cleaning
    pass and HAVING inside its window close, blocks deep already; at the
    parser's limit both still compile, and the nested blocks run."""

    def deep(innermost, levels=MAX_EXPRESSION_DEPTH - 2):
        """``levels`` AND / OR over ``count(*) > n``: a tree at the limit."""
        text = innermost
        for level in range(levels):
            text = f"{('count(*) > 0 AND', 'count(*) < 0 OR')[level % 2]} ({text})"
        return text

    query = (
        "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/2 as tb, srcIP SUPERGROUP BY tb"
        " HAVING {0} CLEANING WHEN count_distinct$(*) > 5 CLEANING BY {1}"
    )
    rows = []
    for having, cleaning_by in (
        (deep("count(*) > 1"), deep("count(*) > 2")),
        ("count(*) > 1", "count(*) > 2"),
    ):
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.add_query(query.format(having, cleaning_by), name="q")
        gs.run(iter(_steady(400)))
        rows.append(_rows(gs, "q"))
    assert rows[0] and rows[0] == rows[1]
    with pytest.raises(ReproError, match="nests deeper than 64 levels"):
        Gigascope().add_query(query.format(deep("count(*) > 1", MAX_EXPRESSION_DEPTH - 1), "1 = 1"))


# -- binding by position --------------------------------------------------------


def _steady(records):
    config = TraceConfig(duration_seconds=10_000, rate_scale=0.1, seed=20050614)
    feed = data_center_feed(config)
    return [next(feed) for _ in range(records)]


def _rows(gs, name):
    return [record.values for record in gs.results(name)]


class TestBindingFollowsTheUpstreamSchema:
    """A high-level node binds against its upstream query's output
    schema, not the source stream's."""

    def test_reordered_and_renamed_columns(self):
        trace = _steady(600)
        direct = Gigascope()
        direct.register_stream(TCP_SCHEMA)
        direct.add_query(
            "SELECT tb, srcIP, sum(len), count(*) FROM TCP WHERE len > 100"
            " GROUP BY time/2 as tb, srcIP",
            name="q",
        )
        direct.run(iter(trace))

        stacked = Gigascope()
        stacked.register_stream(TCP_SCHEMA)
        stacked.add_query(
            "SELECT len as bytes, destIP, srcIP as src, time FROM TCP", name="up"
        )
        stacked.add_query(
            "SELECT tb, src, sum(bytes), count(*) FROM up WHERE bytes > 100"
            " GROUP BY time/2 as tb, src",
            name="q",
        )
        stacked.run(iter(trace))
        assert _rows(stacked, "q") == _rows(direct, "q")

    def test_prefilter_rewrites_len_under_the_same_name(self):
        # PREFILTER_QUERY forwards UMAX(len, z) *as len*: the sampling
        # query above it must read the prefilter's len, not the packet's.
        z = 600
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(basic_subset_sum_library())
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        gs.add_query(PREFILTER_QUERY.format(z=z), name="pre")
        # a target no window reaches, so every forwarded packet is emitted
        text = SUBSET_SUM_QUERY.format(window=2, target=10_000)
        gs.add_query(text.replace("FROM TCP", "FROM pre"), name="ss")
        trace = _steady(1500)
        gs.run(iter(trace))
        forwarded = _rows(gs, "pre")
        assert min(len_ for *_, len_, _, _, _ in forwarded) == z
        assert min(len_ for *_, len_, _, _, _ in (r.values for r in trace)) < z
        assert sorted(row[3] for row in _rows(gs, "ss")) == sorted(
            max(len_, z) for *_, len_, _, _, _ in forwarded
        )


# -- interpretive overhead --------------------------------------------------------


def _subset_sum_instance():
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.add_query(SUBSET_SUM_QUERY.format(window=2, target=1000), name="ss")
    return gs


def test_subset_sum_python_calls_per_record():
    """The paper's query costs a bounded number of Python-level calls
    per record.  The count is exact and repeats, so it moves only when
    the per-record code path does: 262 with the tree-walking evaluator,
    107.9 compiled but handed from node to node a record at a time, 76.5
    once operators took runs, 63.5 once admission, the ring and the
    pass-through feeder took them too, 43.1 once a clause was one
    generated function instead of a closure per AST node, 30.9 once a
    clause called SFUNs, scalars and aggregates straight out of the
    context's fields, the GROUP BY function returned the window id and
    supergroup key too, and the operator held its supergroup, 17.6 now
    that the node's whole run loop is one generated function with its
    clauses written in and built-in aggregates updated in place (these
    4 000 records are the insert-heavy head of the stream; the perf
    ledger's 24 000 read 7.7), 8.2, down from 10.7, once the cleaning
    walk was the SFUN itself, with no wrapper frame and no builtin max(),
    and 5.99 now that a group is one list built by a display, with no
    object, no constructor and no ``len()`` per new group (three calls
    for each of 0.74 new groups per record here).  One object per group
    coming back reads 6.73 and fails the bound, as does any one
    call per record more: a per-record
    admission hop (``_admit_payload``, a ``ring.push``) or the feeder
    re-wrapping each tuple in a new ``Record`` coming back, a hook frame
    between a clause and the SFUN it calls, GROUP BY and WHERE called
    as functions of their own again, a key ``pick`` or a
    supergroup lookup per record coming back — as well as a call per
    operand or per column read in the clauses, a per-record
    ``cost.charge`` or ``Counter.inc``, a dispatch hop between nodes, a
    tree walk or a by-name column lookup."""
    records = 4000
    trace = _steady(records)
    gs = _subset_sum_instance()
    calls = python_calls(lambda: gs.run(iter(trace)))
    assert gs.results("ss")
    assert calls / records <= 6.5


def test_heavy_hitters_python_calls_per_record():
    """The paper's heavy-hitters query on the bursty tap, where every
    tuple is admitted and a CLEANING BY walks the table each 100 records:
    1.35 calls per record on these 4 000 records, 2.68 while a new group
    built three aggregate objects and an entry and read ``len(groups)``
    (0.33 new groups per record here), 4.29 when ``current_bucket()`` was
    called on every update for ``first(current_bucket())`` and once per
    visited group.  One object per group coming back reads 1.62
    and fails the bound; so does either reader call coming back, the
    argument of ``first`` on every update or the call per visited
    group."""
    records = 4000
    feed = research_center_feed(TraceConfig(duration_seconds=10_000, rate_scale=0.1, seed=20050614))
    trace = [next(feed) for _ in range(records)]
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(heavy_hitters_library())
    gs.add_query(HEAVY_HITTERS_QUERY.format(window=20, bucket=100), name="hh")
    calls = python_calls(lambda: gs.run(iter(trace)))
    assert gs.results("hh")
    assert calls / records <= 1.6


def test_a_checkpoint_costs_no_call_per_group():
    """``checkpoint()`` hands out fresh containers over the live groups
    and the pickle that keeps them is the one copy, so its Python call
    count is the same at 100 open groups as at 2 000 (a deep copy made
    63 calls per group: 6 716 against 126 407)."""
    counts = []
    for records in (100, 2000):
        gs = _subset_sum_instance()
        gs.start()
        gs.feed(_steady(records))
        # the head of the steady tap: one window, one group per record
        assert len(gs.query("ss").operator.tables.groups) == records
        # a collection would run ``gc.callbacks`` (hypothesis registers one)
        gc.disable()
        try:
            counts.append(python_calls(gs.checkpoint))
        finally:
            gc.enable()
    assert counts[0] == counts[1]


def test_a_selection_row_costs_two_calls():
    """A selection node builds each row it keeps through ``Record``'s
    slots: one ``object.__new__`` and one append, no constructor and no
    arity check per row (that is made once, when the node is written).
    Over N records the node costs a constant plus 2 calls per kept row,
    and its rows are the rows ``Record(...)`` builds."""
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    op = gs.add_query("SELECT time, srcIP, len FROM TCP WHERE len > 500", name="q").operator
    trace = _steady(2000)
    expected = [
        Record(op.output_schema, (r["time"], r["srcIP"], r["len"])) for r in trace if r["len"] > 500
    ]
    assert 0 < len(expected) < len(trace)
    counts, rows = [], []
    # a collection would run ``gc.callbacks`` (hypothesis registers one)
    gc.disable()
    try:
        for records in ([], trace):
            counts.append(python_calls(lambda: rows.append(op.process_many(records))))
    finally:
        gc.enable()
    assert counts[1] - counts[0] <= 2 * len(expected)
    assert rows[1] == expected
    assert [hash(row) for row in rows[1]] == [hash(row) for row in expected]
    assert pickle.loads(pickle.dumps(rows[1])) == expected


@pytest.mark.parametrize("text", [
    "SELECT time, len FROM TCP WHERE len > 500",
    "SELECT tb, sum(len) FROM TCP GROUP BY time/2 as tb",
])
def test_a_select_list_that_misfits_its_schema_fails_when_the_node_is_written(text):
    """The per-row arity check ``Record(...)`` makes is made by
    ``emit_node``, once: an output schema one attribute wider than the
    SELECT list is a ``PlanningError``, and no entry is bound."""
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    op = gs.add_query(text, name="q").operator
    node = object.__new__(type(op))
    node.output_schema = StreamSchema("wide", [*op.output_schema, Attribute("extra")])
    with pytest.raises(PlanningError, match="SELECT lists 2 values for 3 attributes"):
        emit_node(node, "q", op.analyzed)
    assert "process_many" not in vars(node) and "_emit_window" not in vars(node)
