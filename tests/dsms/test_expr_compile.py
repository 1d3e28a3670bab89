"""``compile_expr`` against the naive reference interpreter.

The interpreter in ``_naive_eval.py`` is the oracle: for any tree, the
compiled closure must produce the same value of the same type after the
same sequence of function calls, or fail with the same error.  The unit
tests below it pin what binding by position adds on top.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bindings import (
    PREFILTER_QUERY,
    SUBSET_SUM_QUERY,
    basic_subset_sum_library,
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
    bind_input,
    by_name,
    compile_expr,
)
from repro.dsms.runtime import Gigascope
from repro.dsms.span import Span
from repro.errors import ExecutionError
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA, Attribute, StreamSchema
from repro.streams.traces import TraceConfig, data_center_feed

from tests.dsms._naive_eval import naive_evaluate

# -- random trees -------------------------------------------------------------

SCHEMA = StreamSchema("R", [Attribute(name) for name in ("i", "z", "f", "b", "s", "n")])
#: one record per "row shape": ints, a zero, a float, a bool, a string, None
RECORDS = [
    Record(SCHEMA, (7, 0, 2.5, True, "abc", None)),
    Record(SCHEMA, (-3, 0, float("nan"), False, "", None)),
    Record(SCHEMA, (10**12, 0, -0.0, True, "7", None)),
]


class LoggingContext(EvalContext):
    """Stub hooks that record every call, in order, with its arguments
    (as ``repr``: a computed NaN argument must equal itself)."""

    def __init__(self, record):
        self.record = record
        self.log = []

    def column(self, name):
        return self.record[name]

    def call_scalar(self, name, args):
        self.log.append(("scalar", name, repr(list(args))))
        if name == "boom":
            raise ExecutionError("boom")
        return args[0] if args else 0

    def call_stateful(self, node, args):
        self.log.append(("sfun", node.name, repr(list(args))))
        return len(self.log) % 2 == 0

    def aggregate_value(self, node):
        return (3, 2.0, 0)[node.slot]

    def superaggregate_value(self, node):
        return (11, 0)[node.slot]


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
    st.builds(ColumnRef, st.sampled_from(SCHEMA.names)),
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
    return ("value", type(value), repr(value)), ctx.log


@settings(max_examples=400, deadline=None)
@given(trees, st.sampled_from(RECORDS))
def test_compiled_equals_naive(tree, record):
    want = _outcome(lambda ctx: naive_evaluate(tree, ctx), LoggingContext(record))
    for bind in (by_name, bind_input(SCHEMA)):
        compiled = compile_expr(tree, bind)
        assert _outcome(compiled, LoggingContext(record)) == want
        # a compiled closure carries nothing over from one call to the next
        assert _outcome(compiled, LoggingContext(record)) == want


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


def test_subset_sum_python_calls_per_record():
    """The paper's query costs a bounded number of Python-level calls
    per record.  The count is exact and repeats, so it moves only when
    the per-record code path does: 262 with the tree-walking evaluator,
    107.9 compiled but handed from node to node a record at a time, 76.5
    once operators took runs, 63.5 now that admission, the ring and the
    pass-through feeder take them too (these 4 000 records are the
    insert-heavy head of the stream; the perf ledger's 24 000 read 36.8).
    What trips the bound now is two calls per record: a per-record
    admission hop (``_admit_payload``, a ``ring.push``) or the feeder
    re-wrapping each tuple in a new ``Record`` coming back — as well as
    a per-record ``cost.charge`` or ``Counter.inc``, a dispatch hop
    between nodes, a tree walk or a by-name column lookup."""
    records = 4000
    trace = _steady(records)
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.add_query(SUBSET_SUM_QUERY.format(window=2, target=1000), name="ss")
    calls = [0]

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        gs.run(iter(trace))
    finally:
        sys.setprofile(previous)
    assert gs.results("ss")
    assert calls[0] / records <= 65
