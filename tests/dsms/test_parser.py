"""Recursive-descent parser: clause structure and expressions."""

import pytest

from repro.errors import ParseError
from repro.dsms.expr import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Literal,
    Star,
    UnaryOp,
)
from repro.dsms.parser.parser import (
    MAX_EXPRESSION_DEPTH,
    parse_expression,
    parse_query,
)
from repro.algorithms.bindings import (
    HEAVY_HITTERS_QUERY,
    MIN_HASH_QUERY,
    RESERVOIR_QUERY,
    SUBSET_SUM_QUERY,
)


class TestClauses:
    def test_minimal_query(self):
        ast = parse_query("SELECT a FROM S")
        assert ast.from_stream == "S"
        assert len(ast.select) == 1
        assert ast.where is None and not ast.group_by

    def test_select_aliases(self):
        ast = parse_query("SELECT a AS x, b FROM S")
        assert ast.select[0].alias == "x"
        assert ast.select[1].alias is None

    def test_where(self):
        ast = parse_query("SELECT a FROM S WHERE a > 5")
        assert isinstance(ast.where, BinaryOp)

    def test_group_by_with_expression_alias(self):
        ast = parse_query("SELECT tb FROM S GROUP BY time/60 as tb, srcIP")
        assert [item.name for item in ast.group_by] == ["tb", "srcIP"]

    def test_group_by_expression_requires_alias(self):
        with pytest.raises(ParseError, match="needs an alias"):
            parse_query("SELECT a FROM S GROUP BY time/60")

    def test_group_by_underscore_spelling(self):
        ast = parse_query("SELECT srcIP FROM S GROUP_BY srcIP")
        assert ast.group_by[0].name == "srcIP"

    def test_supergroup_with_and_without_by(self):
        a = parse_query("SELECT a FROM S GROUP BY a, b SUPERGROUP a")
        b = parse_query("SELECT a FROM S GROUP BY a, b SUPERGROUP BY a")
        assert a.supergroup == b.supergroup == ("a",)

    def test_having(self):
        ast = parse_query("SELECT a FROM S GROUP BY a HAVING count(*) > 3")
        assert ast.having is not None

    def test_cleaning_clauses_either_order(self):
        q1 = parse_query(
            "SELECT a FROM S GROUP BY a CLEANING WHEN f() = TRUE CLEANING BY g() = TRUE"
        )
        q2 = parse_query(
            "SELECT a FROM S GROUP BY a CLEANING BY g() = TRUE CLEANING WHEN f() = TRUE"
        )
        assert str(q1.cleaning_when) == str(q2.cleaning_when)
        assert q1.has_cleaning and q2.has_cleaning

    def test_duplicate_cleaning_when_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_query(
                "SELECT a FROM S GROUP BY a"
                " CLEANING WHEN f() = TRUE CLEANING WHEN f() = TRUE"
            )

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_query("SELECT a FROM S extra")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT a WHERE a > 1")

    def test_str_round_trip(self):
        text = "SELECT a FROM S WHERE a > 5 GROUP BY a HAVING count(*) > 1"
        ast = parse_query(text)
        assert parse_query(str(ast)) == ast


class TestPaperQueries:
    """Every §6.6 / §6.1 example query must parse."""

    def test_subset_sum_query(self):
        ast = parse_query(SUBSET_SUM_QUERY.format(window=20, target=1000))
        assert [item.name for item in ast.group_by] == ["tb", "srcIP", "destIP", "uts"]
        assert ast.cleaning_when is not None and ast.cleaning_by is not None
        assert ast.having is not None

    def test_heavy_hitters_query(self):
        ast = parse_query(HEAVY_HITTERS_QUERY.format(window=60, bucket=100))
        assert ast.cleaning_when is not None

    def test_min_hash_query(self):
        ast = parse_query(MIN_HASH_QUERY.format(window=60, k=100))
        assert ast.supergroup == ("tb", "srcIP")

    def test_reservoir_query(self):
        ast = parse_query(RESERVOIR_QUERY.format(window=60, target=100))
        assert ast.where is not None


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "+"

    def test_precedence_comparison_over_and(self):
        expr = parse_expression("a > 1 AND b < 2")
        assert expr.op == "AND"

    def test_precedence_and_over_or(self):
        expr = parse_expression("a OR b AND c")
        assert expr.op == "OR"

    def test_not(self):
        expr = parse_expression("NOT a = b")
        assert isinstance(expr, UnaryOp) and expr.op == "NOT"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_unary_minus(self):
        expr = parse_expression("-x")
        assert isinstance(expr, UnaryOp)

    def test_function_call_empty_args(self):
        expr = parse_expression("ssthreshold()")
        assert isinstance(expr, FunctionCall) and expr.args == ()

    def test_star_argument(self):
        expr = parse_expression("count(*)")
        assert isinstance(expr.args[0], Star)

    def test_nested_calls(self):
        expr = parse_expression("UMAX(sum(len), ssthreshold())")
        assert isinstance(expr, FunctionCall)
        assert isinstance(expr.args[0], FunctionCall)

    def test_superaggregate_call(self):
        expr = parse_expression("Kth_smallest_value$(HX, 100)")
        assert expr.name == "Kth_smallest_value$"

    def test_bare_superaggregate_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("count_distinct$")

    def test_true_false_literals(self):
        assert parse_expression("TRUE") == Literal(True)
        assert parse_expression("FALSE") == Literal(False)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 3")

    def test_time_division_groups(self):
        expr = parse_expression("time/60")
        assert isinstance(expr, BinaryOp) and expr.op == "/"
        assert expr.left == ColumnRef("time")


class TestNestingLimit:
    """One limit, the parser's: its own recursion (parentheses, NOT,
    minus, call arguments) and the height of the tree it hands on."""

    SHAPES = {
        "parentheses": lambda n: "(" * n + "len" + ")" * n,
        "not": lambda n: "NOT " * n + "len",
        "minus": lambda n: "- " * n + "len",
        "calls": lambda n: "f(" * n + "len" + ")" * n,
        "and chain": lambda n: " AND ".join(["len"] * (n + 1)),
        "sum chain": lambda n: " + ".join(["1"] * (n + 1)),
        "right nested": lambda n: "len OR (" * n + "len" + ")" * n,
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_at_the_limit_and_one_over(self, shape):
        parse_expression(self.SHAPES[shape](MAX_EXPRESSION_DEPTH))
        with pytest.raises(ParseError, match="nests deeper than 64 levels") as info:
            parse_expression(self.SHAPES[shape](MAX_EXPRESSION_DEPTH + 1))
        assert info.value.line == 1 and info.value.col >= 1

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_far_over_is_the_same_error(self, shape):
        # 150 parentheses used to leave ``_parse_and`` as a RecursionError
        with pytest.raises(ParseError, match="nests deeper"):
            parse_expression(self.SHAPES[shape](3000))

    def test_the_error_points_at_the_level_that_is_one_too_many(self):
        text = "SELECT time FROM TCP\nWHERE " + "(" * 70 + "len" + ")" * 70 + " > 3"
        with pytest.raises(ParseError) as info:
            parse_query(text)
        assert (info.value.line, info.value.col) == (2, 7 + MAX_EXPRESSION_DEPTH)

    def test_each_clause_has_the_whole_budget(self):
        deep = self.SHAPES["parentheses"](MAX_EXPRESSION_DEPTH)
        parse_query(f"SELECT {deep} FROM TCP WHERE {deep} > 3 GROUP BY {deep} AS g")
