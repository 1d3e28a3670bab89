"""Expression AST evaluation and tree utilities."""

import pytest

from repro.errors import ExecutionError
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
    column_names,
    contains_node,
    evaluate,
    find_nodes,
    free_column_names,
    rewrite,
)


class DictContext(EvalContext):
    def __init__(self, columns=None, scalars=None):
        self.columns = columns or {}
        self.scalars = {name: self._logged(name, fn) for name, fn in (scalars or {}).items()}
        self.scalar_calls = []

    def column(self, name):
        return self.columns[name]

    def _logged(self, name, fn):
        def call(*args):
            self.scalar_calls.append(name)
            return fn(*args)

        return call


def lit(x):
    return Literal(x)


class TestArithmetic:
    def test_basic_ops(self):
        ctx = DictContext()
        assert evaluate(BinaryOp("+", lit(2), lit(3)), ctx) == 5
        assert evaluate(BinaryOp("-", lit(2), lit(3)), ctx) == -1
        assert evaluate(BinaryOp("*", lit(4), lit(3)), ctx) == 12
        assert evaluate(BinaryOp("%", lit(7), lit(3)), ctx) == 1

    def test_integer_division_buckets(self):
        # time/60 must bucket like SQL/C, not produce floats.
        ctx = DictContext({"time": 119})
        expr = BinaryOp("/", ColumnRef("time"), lit(60))
        assert evaluate(expr, ctx) == 1

    def test_float_division(self):
        assert evaluate(BinaryOp("/", lit(7.0), lit(2)), DictContext()) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate(BinaryOp("/", lit(1), lit(0)), DictContext())
        with pytest.raises(ExecutionError):
            evaluate(BinaryOp("/", lit(1.0), lit(0.0)), DictContext())

    def test_bool_divides_as_number_not_integer(self):
        # bool subclasses int, but TRUE/2 silently floor-dividing to 0 is
        # a wrong answer: booleans take true-division semantics.
        assert evaluate(BinaryOp("/", lit(True), lit(2)), DictContext()) == 0.5
        assert evaluate(BinaryOp("/", lit(3), lit(True)), DictContext()) == 3.0
        assert evaluate(BinaryOp("/", lit(False), lit(4)), DictContext()) == 0.0

    def test_bool_division_by_false_raises(self):
        with pytest.raises(ExecutionError):
            evaluate(BinaryOp("/", lit(1), lit(False)), DictContext())

    def test_mixed_type_comparison_wrapped(self):
        # `srcIP > 100` over a string column must surface as a
        # span-carrying ExecutionError, not a raw TypeError traceback.
        from repro.dsms.span import Span

        ctx = DictContext({"srcIP": "10.0.0.1"})
        expr = BinaryOp(">", ColumnRef("srcIP"), lit(100), span=Span(3, 7, 1))
        with pytest.raises(ExecutionError) as err:
            evaluate(expr, ctx)
        assert "str" in str(err.value) and "int" in str(err.value)
        assert "line 3, col 7" in str(err.value)
        assert err.value.span == Span(3, 7, 1)

    def test_mixed_type_arithmetic_wrapped(self):
        ctx = DictContext({"name": "alpha"})
        for op in ("+", "-", "/"):
            with pytest.raises(ExecutionError):
                evaluate(BinaryOp(op, ColumnRef("name"), lit(2)), ctx)

    def test_equality_comparison_never_type_errors(self):
        # Python == on mismatched types returns False; keep that.
        assert evaluate(BinaryOp("=", lit("a"), lit(1)), DictContext()) is False
        assert evaluate(BinaryOp("<>", lit("a"), lit(1)), DictContext()) is True

    def test_unary_minus(self):
        assert evaluate(UnaryOp("-", lit(5)), DictContext()) == -5


class TestComparisonAndLogic:
    def test_comparisons(self):
        ctx = DictContext()
        assert evaluate(BinaryOp("=", lit(1), lit(1)), ctx) is True
        assert evaluate(BinaryOp("<>", lit(1), lit(2)), ctx) is True
        assert evaluate(BinaryOp("!=", lit(1), lit(1)), ctx) is False
        assert evaluate(BinaryOp("<=", lit(1), lit(1)), ctx) is True
        assert evaluate(BinaryOp(">", lit(2), lit(1)), ctx) is True

    def test_logic(self):
        ctx = DictContext()
        t, f = lit(True), lit(False)
        assert evaluate(BinaryOp("AND", t, f), ctx) is False
        assert evaluate(BinaryOp("OR", t, f), ctx) is True
        assert evaluate(UnaryOp("NOT", f), ctx) is True

    def test_and_short_circuits(self):
        # The right side would divide by zero if evaluated.
        ctx = DictContext()
        bomb = BinaryOp("/", lit(1), lit(0))
        expr = BinaryOp("AND", lit(False), bomb)
        assert evaluate(expr, ctx) is False

    def test_or_short_circuits(self):
        ctx = DictContext()
        bomb = BinaryOp("/", lit(1), lit(0))
        expr = BinaryOp("OR", lit(True), bomb)
        assert evaluate(expr, ctx) is True


class TestCalls:
    def test_scalar_call(self):
        ctx = DictContext(scalars={"double": lambda x: 2 * x})
        assert evaluate(ScalarCall("double", (lit(21),)), ctx) == 42
        assert ctx.scalar_calls == ["double"]

    def test_star_evaluates_to_one(self):
        assert evaluate(Star(), DictContext()) == 1

    def test_unclassified_call_rejected(self):
        with pytest.raises(ExecutionError, match="unclassified"):
            evaluate(FunctionCall("f", ()), DictContext())

    def test_default_context_hooks_raise(self):
        """A bare context has no column hook and no fields: every read
        through them is an ExecutionError, not a silent None."""
        ctx = EvalContext()
        with pytest.raises(ExecutionError):
            ctx.column("x")
        for node in (
            ScalarCall("f", ()),
            AggregateCall("sum", (), 0),
            SuperAggregateCall("count_distinct", (), 0),
            StatefulCall("f", "s", ()),
        ):
            with pytest.raises(ExecutionError):
                evaluate(node, ctx)


class TestTreeUtilities:
    def expr(self):
        # UMAX(sum(len), ssthreshold()) = TRUE
        return BinaryOp(
            "=",
            ScalarCall(
                "UMAX",
                (
                    AggregateCall("sum", (ColumnRef("len"),), 0),
                    StatefulCall("ssthreshold", "ss_state", ()),
                ),
            ),
            Literal(True),
        )

    def test_find_nodes(self):
        assert len(find_nodes(self.expr(), AggregateCall)) == 1
        assert len(find_nodes(self.expr(), StatefulCall)) == 1

    def test_contains_node(self):
        assert contains_node(self.expr(), ScalarCall)
        assert not contains_node(self.expr(), SuperAggregateCall)

    def test_column_names_includes_aggregate_args(self):
        assert column_names(self.expr()) == ["len"]

    def test_free_column_names_excludes_aggregate_args(self):
        assert free_column_names(self.expr()) == []

    def test_free_column_names_keeps_bare_columns(self):
        expr = BinaryOp("<", ColumnRef("HX"), AggregateCall("sum", (ColumnRef("len"),), 0))
        assert free_column_names(expr) == ["HX"]

    def test_rewrite_replaces_nodes(self):
        expr = BinaryOp("+", ColumnRef("a"), ColumnRef("b"))

        def swap(node):
            if isinstance(node, ColumnRef):
                return Literal(1)
            return None

        rewritten = rewrite(expr, swap)
        assert evaluate(rewritten, DictContext()) == 2

    def test_rewrite_is_bottom_up(self):
        expr = FunctionCall("f", (FunctionCall("g", ()),))
        order = []

        def record(node):
            if isinstance(node, FunctionCall):
                order.append(node.name)
            return None

        rewrite(expr, record)
        assert order == ["g", "f"]

    def test_walk_preorder(self):
        expr = BinaryOp("+", ColumnRef("a"), Literal(1))
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds == ["BinaryOp", "ColumnRef", "Literal"]

    def test_str_roundtrippable_forms(self):
        assert str(SuperAggregateCall("count_distinct", (Star(),), 0)) == "count_distinct$(*)"
        assert "sum(len)" in str(self.expr())
