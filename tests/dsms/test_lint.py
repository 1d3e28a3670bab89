"""The static query analyzer / linter (``repro.analysis``).

One table-driven test pins every rule to a query, a rule id, and an exact
``line:col`` span; further tests cover multi-diagnostic collection, pragma
suppression, caret rendering, strict compilation, and that every query
this repository ships lints clean.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Severity,
    render_diagnostics,
)
from repro.analysis.linter import (
    default_lint_registries,
    lint_query,
    lint_source,
    parse_pragmas,
)
from repro.analysis.rules import NOT_CONSTANT, fold_constant
from repro.dsms.expr import BinaryOp, EvalContext, Literal, evaluate
from repro.dsms.parser.analyzer import Registries, analyze
from repro.dsms.parser.parser import parse_expression, parse_query
from repro.dsms.parser.planner import compile_query
from repro.dsms.span import Span
from repro.dsms.stateful import StatefulLibrary
from repro.dsms.vectorized.compiler import apply_binary
from repro.errors import AnalysisError, ExecutionError


@pytest.fixture(scope="module")
def registries() -> Registries:
    return default_lint_registries()


def diag_tuples(result):
    return {(d.rule, d.span.line, d.span.col) for d in result.diagnostics if d.span}


# ---------------------------------------------------------------------------
# The rule table: (query, rule id, line, col of the expected diagnostic)
# ---------------------------------------------------------------------------

RULE_TABLE = [
    # SA001: no window variable, no CLEANING -> unbounded group table
    ("SELECT srcIP FROM TCP GROUP BY srcIP", "SA001", 1, 23),
    # SA002: sampling SFUN re-evaluated outside WHERE
    (
        "SELECT tb, ssample(len, 10)\n"
        "FROM TCP\n"
        "WHERE ssample(len, 10) = TRUE\n"
        "GROUP BY time/20 as tb, uts",
        "SA002",
        1,
        12,
    ),
    # SA003: SUPERGROUP with nothing that uses it
    (
        "SELECT tb, srcIP, sum(len)\n"
        "FROM TCP\n"
        "GROUP BY time/20 as tb, srcIP\n"
        "SUPERGROUP BY tb, srcIP",
        "SA003",
        4,
        1,
    ),
    # SA004: constant CLEANING BY
    (
        "SELECT tb, srcIP, count(*)\n"
        "FROM TCP\n"
        "GROUP BY time/20 as tb, srcIP\n"
        "CLEANING WHEN count_distinct$(*) > 100\n"
        "CLEANING BY TRUE",
        "SA004",
        5,
        13,
    ),
    # SA005: SFUN arity mismatch (ssample takes measure + target)
    ("SELECT len FROM TCP WHERE ssample(len) = TRUE", "SA005", 1, 27),
    # SA007: constant division by zero
    ("SELECT len/0 FROM TCP", "SA007", 1, 11),
    # SA008: aggregate arity mismatch
    ("SELECT srcIP, count(len, 2) FROM TCP GROUP BY time/20 as tb, srcIP",
     "SA008", 1, 15),
    # SA009: duplicate output column name
    ("SELECT len, len FROM TCP", "SA009", 1, 13),
    # SA010: arithmetic on a string
    ("SELECT len + 'x' FROM TCP", "SA010", 1, 12),
    # SA011: non-boolean WHERE predicate
    ("SELECT len FROM TCP WHERE len + 1", "SA011", 1, 31),
    # SA020: unknown stream
    ("SELECT x FROM NOPE", "SA020", 1, 15),
    # SA021: unknown function
    ("SELECT foo(len) FROM TCP", "SA021", 1, 8),
    # SA022: unknown superaggregate
    ("SELECT srcIP, bogus$(*) FROM TCP GROUP BY time/20 as tb, srcIP",
     "SA022", 1, 15),
    # SA023: duplicate group-by variable
    ("SELECT tb FROM TCP GROUP BY time/20 as tb, len as tb", "SA023", 1, 44),
    # SA024: GROUP BY references an unknown column
    ("SELECT tb FROM TCP GROUP BY nope as tb", "SA024", 1, 29),
    # SA025: aggregate inside a GROUP BY expression
    ("SELECT g FROM TCP GROUP BY sum(len) as g", "SA025", 1, 28),
    # SA026: SUPERGROUP variable that is not a GROUP BY variable
    (
        "SELECT tb\nFROM TCP\nGROUP BY time/20 as tb\nSUPERGROUP BY nope",
        "SA026",
        4,
        1,
    ),
    # SA027: HAVING references a raw column
    (
        "SELECT tb, sum(len)\nFROM TCP\nGROUP BY time/20 as tb\nHAVING len > 5",
        "SA027",
        4,
        8,
    ),
    # SA028: aggregate in WHERE
    ("SELECT tb, sum(len) FROM TCP WHERE sum(len) > 5 GROUP BY time/20 as tb",
     "SA028", 1, 36),
    # SA029: aggregate without GROUP BY
    ("SELECT sum(len) FROM TCP", "SA029", 1, 8),
    # SA030: CLEANING WHEN without CLEANING BY
    (
        "SELECT tb, count(*)\n"
        "FROM TCP\n"
        "GROUP BY time/20 as tb\n"
        "CLEANING WHEN count_distinct$(*) > 10",
        "SA030",
        4,
        1,
    ),
    # SA090: lexer failure
    ("SELECT ? FROM TCP", "SA090", 1, 8),
    # SA091: parser failure
    ("SELECT FROM TCP", "SA091", 1, 8),
    # SA101: group table beyond the cardinality budget
    (
        "SELECT tb, srcIP, destIP\nFROM TCP\nGROUP BY time/20 as tb, srcIP, destIP",
        "SA101",
        3,
        1,
    ),
    # SA102: prefilterable WHERE conjunct on a grouped query
    (
        "SELECT tb, srcIP, sum(len)\n"
        "FROM TCP\n"
        "WHERE len > 100\n"
        "GROUP BY time/20 as tb, srcIP",
        "SA102",
        3,
        11,
    ),
]


class TestRuleTable:
    @pytest.mark.parametrize(
        "query, rule, line, col",
        RULE_TABLE,
        ids=[case[1] for case in RULE_TABLE],
    )
    def test_rule_fires_with_span(self, registries, query, rule, line, col):
        result = lint_source(query, registries)
        assert (rule, line, col) in diag_tuples(result), result.render()

    @pytest.mark.parametrize(
        "query, rule, line, col",
        RULE_TABLE,
        ids=[case[1] for case in RULE_TABLE],
    )
    def test_rule_suppressed_by_pragma(self, registries, query, rule, line, col):
        suppressed = f"-- lint: disable={rule}\n{query}"
        result = lint_source(suppressed, registries)
        fired = {d.rule for d in result.diagnostics}
        assert rule not in fired


class TestMultiDiagnostic:
    def test_three_rules_in_one_invocation(self, registries):
        # The acceptance scenario: one query violating three distinct
        # rules reports all three, each with its own line:col span.
        query = (
            "SELECT srcIP, len + 'x'\n"
            "FROM TCP\n"
            "WHERE foo(len) = TRUE\n"
            "GROUP BY srcIP"
        )
        result = lint_source(query, registries)
        found = diag_tuples(result)
        assert ("SA010", 1, 19) in found  # arithmetic on a string
        assert ("SA021", 3, 7) in found  # unknown function foo
        assert ("SA001", 4, 1) in found  # unbounded group table
        assert len({rule for rule, _, _ in found}) >= 3

    def test_analyzer_collects_rather_than_stops(self, registries):
        # Two independent legality violations in different clauses: the
        # raise-first analyzer would only ever show the first.
        query = (
            "SELECT tb, sum(len)\n"
            "FROM TCP\n"
            "WHERE sum(len) > 5\n"
            "GROUP BY time/20 as tb\n"
            "HAVING len > 5"
        )
        result = lint_source(query, registries)
        rules = {d.rule for d in result.diagnostics}
        assert {"SA028", "SA027"} <= rules

    def test_diagnostics_in_source_order(self, registries):
        query = (
            "SELECT len + 'x'\n"
            "FROM TCP\n"
            "WHERE foo(len) = TRUE"
        )
        result = lint_source(query, registries)
        positions = [
            (d.span.line, d.span.col) for d in result.diagnostics if d.span
        ]
        assert positions == sorted(positions)

    def test_raise_mode_unchanged(self, registries):
        # Without a collector the analyzer still raises at the first error.
        ast = parse_query("SELECT foo(len) FROM TCP")
        with pytest.raises(AnalysisError, match="unknown function 'foo'"):
            analyze(ast, registries)


class TestPragmas:
    def test_parse_single(self):
        assert parse_pragmas("-- lint: disable=SA001\nSELECT 1") == {"SA001"}

    def test_parse_many_and_case(self):
        source = "--lint:disable=sa001, SA102\nSELECT 1"
        assert parse_pragmas(source) == {"SA001", "SA102"}

    def test_pragma_does_not_hide_other_rules(self, registries):
        query = "-- lint: disable=SA009\nSELECT len, len, len/0 FROM TCP"
        result = lint_source(query, registries)
        rules = {d.rule for d in result.diagnostics}
        assert "SA009" not in rules
        assert "SA007" in rules

    def test_disabled_rules_recorded(self, registries):
        result = lint_source(
            "-- lint: disable=SA001,SA101\nSELECT srcIP FROM TCP GROUP BY srcIP",
            registries,
        )
        assert result.disabled == {"SA001", "SA101"}
        assert result.clean


class TestRendering:
    def test_caret_block(self, registries):
        result = lint_source("SELECT len/0 FROM TCP", registries,
                             filename="q.gsql")
        rendered = result.render()
        lines = rendered.splitlines()
        assert lines[0] == (
            "q.gsql:1:11: SA007 error: constant division by zero"
        )
        assert lines[1] == "    SELECT len/0 FROM TCP"
        assert lines[2] == "    " + " " * 10 + "^"

    def test_caret_length_covers_lexeme(self):
        diag = Diagnostic("SA999", Severity.WARNING, "msg", Span(1, 8, 4))
        rendered = render_diagnostics([diag], "SELECT abcd FROM TCP", "f")
        assert rendered.splitlines()[2] == "    " + " " * 7 + "^^^^"

    def test_hint_rendered(self, registries):
        result = lint_source(
            "SELECT srcIP FROM TCP GROUP BY srcIP", registries
        )
        assert "hint:" in result.render()

    def test_no_span_renders_dash(self):
        diag = Diagnostic("SA999", Severity.ERROR, "whole-query problem")
        rendered = render_diagnostics([diag], "SELECT 1", "f")
        assert rendered.startswith("f:-: SA999 error:")


class TestConstantFolding:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("TRUE", True),
            ("NOT TRUE", False),
            ("1 + 2 * 3", 7),
            ("10 / 4", 2),
            ("10.0 / 4", 2.5),
            ("7 % 4", 3),
            ("1 < 2", True),
            ("1 = 2 OR 3 >= 3", True),
            ("FALSE AND TRUE", False),
            ("-5", -5),
        ],
    )
    def test_folds(self, text, value):
        assert fold_constant(parse_expression(text)) == value

    def test_short_circuit_with_unknown_side(self):
        assert fold_constant(parse_expression("FALSE AND foo(x)")) is False
        assert fold_constant(parse_expression("TRUE OR foo(x)")) is True

    def test_non_constant(self):
        assert fold_constant(parse_expression("len + 1")) is NOT_CONSTANT

    OPERANDS = [0, 1, -3, 7, 2.5, 0.0, -1.5, True, False, "a", ""]

    @pytest.mark.parametrize(
        "op", ["+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">="]
    )
    def test_folds_what_both_engines_compute(self, op):
        """One scalar semantics (``expr.binary_function``): a constant
        folds to the value *and type* the tuple engine, the columnar
        engine's constant path and its object-dtype fallback compute —
        ``7 / TRUE`` is ``7.0`` (a bool is not an integer operand; the
        linter's own ladder said ``7``) — and not at all where they raise."""
        for left, right in itertools.product(self.OPERANDS, repeat=2):
            node = BinaryOp(op, Literal(left), Literal(right))
            boxed = np.empty(1, dtype=object)
            boxed[0] = left
            outcomes = []
            for run in (
                lambda: fold_constant(node),
                lambda: evaluate(node, EvalContext()),
                lambda: apply_binary(node, left, right),
                lambda: apply_binary(node, boxed, right).tolist()[0],
            ):
                try:
                    value = run()
                except ExecutionError:
                    value = NOT_CONSTANT
                outcomes.append((type(value), value))
            assert outcomes.count(outcomes[0]) == 4, (left, op, right, outcomes)


class TestCustomRegistries:
    def test_sa005_unregistered_state(self):
        registries = default_lint_registries()
        library = StatefulLibrary()
        library._sfuns["ghost"] = "missing_state"  # bypass: state never added
        library._callables["ghost"] = lambda state, x: bool(x)
        registries.stateful = registries.stateful.merge(library)
        result = lint_source(
            "SELECT len FROM TCP WHERE ghost(len) = TRUE", registries
        )
        messages = [d for d in result.diagnostics if d.rule == "SA005"]
        assert messages and "not registered" in messages[0].message

    def test_sa006_nondeterministic_scalar_in_group_by(self):
        import random

        registries = default_lint_registries()
        registries.scalars.register(
            "jitter", lambda x: x + random.random(), deterministic=False
        )
        result = lint_source(
            "SELECT g, count(*) FROM TCP GROUP BY time/20 as tb,"
            " jitter(len) as g",
            registries,
        )
        assert any(d.rule == "SA006" for d in result.diagnostics)

    def test_deterministic_survives_copy(self):
        registries = default_lint_registries()
        registries.scalars.register("noisy", lambda x: x, deterministic=False)
        clone = registries.scalars.copy()
        assert not clone.is_deterministic("noisy")
        assert clone.is_deterministic("H")


class TestStrictMode:
    """Strictness is one gate: ``lint_query`` against the deployment's
    target, which ``repro query --strict`` refuses on for any
    diagnostic.  The compiler itself never lints."""

    WARNING_QUERY = "SELECT srcIP FROM TCP GROUP BY srcIP"

    def test_lint_reports_what_strict_refuses(self, registries):
        result = lint_query(self.WARNING_QUERY, registries)
        assert "SA001" in {d.rule for d in result.diagnostics}
        assert not result.errors  # a warning: only --strict refuses it

    def test_compile_query_default_still_compiles(self, registries):
        plan = compile_query(self.WARNING_QUERY, registries)
        assert plan.kind == "aggregation"

    def test_strict_accepts_clean_query(self, registries):
        result = lint_query(
            "SELECT tb, sum(len) FROM TCP GROUP BY time/20 as tb", registries
        )
        assert not result.diagnostics

    def test_strict_accepts_pragma_suppressed_query(self, registries):
        result = lint_query(
            "-- lint: disable=SA001,SA101\n" + self.WARNING_QUERY, registries
        )
        assert not result.diagnostics


class TestCorpusClean:
    """Every query this repository ships lints clean (or carries an
    explicit pragma) — the ISSUE's acceptance criterion."""

    def test_bindings_templates(self, registries):
        from repro.algorithms import bindings

        templates = [
            bindings.SUBSET_SUM_QUERY.format(target=1000, window=20),
            bindings.BASIC_SUBSET_SUM_QUERY.format(z=500, window=20),
            bindings.PREFILTER_QUERY.format(z=500),
            bindings.RESERVOIR_QUERY.format(target=100, window=20),
            bindings.HEAVY_HITTERS_QUERY.format(window=60, bucket=5),
            bindings.DISTINCT_SAMPLING_QUERY.format(window=60, capacity=500),
            bindings.MIN_HASH_QUERY.format(k=50, window=60),
        ]
        for template in templates:
            result = lint_source(template, registries)
            assert result.clean, result.render()

    def test_bench_harness_template(self, registries):
        query = "SELECT tb, sum(len) FROM TCP GROUP BY time/20 as tb"
        assert lint_source(query, registries).clean

    def test_prototype_sticky_query(self):
        # examples/prototype_new_algorithm.py defines its own SFUN pack;
        # lint its query against registries that include that pack.
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / (
            "examples/prototype_new_algorithm.py"
        )
        spec = importlib.util.spec_from_file_location("prototype", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        registries = default_lint_registries()
        registries.stateful = registries.stateful.merge(module.sticky_library())
        result = lint_source(module.STICKY_QUERY, registries)
        assert result.clean, result.render()

    #: Shipped counterexamples for the SA2xx/SA3xx rule docs: expected to
    #: warn (never error) under the default lint.
    UNSOUND = {"unsound_biased_avg.gsql", "unsound_unshardable.gsql"}

    def test_example_query_files(self, registries):
        from pathlib import Path

        files = sorted(
            (Path(__file__).resolve().parents[2] / "examples/queries").glob(
                "*.gsql"
            )
        )
        assert files, "examples/queries/*.gsql missing"
        for path in files:
            result = lint_source(path.read_text(), registries, str(path))
            assert result.ok, result.render()
            if path.name not in self.UNSOUND:
                assert result.clean, result.render()

    def test_unsound_examples_warn_as_documented(self, registries):
        from pathlib import Path

        from repro.analysis.execsafety import parse_target

        base = Path(__file__).resolve().parents[2] / "examples/queries"
        biased = lint_source(
            (base / "unsound_biased_avg.gsql").read_text(), registries
        )
        assert {d.rule for d in biased.diagnostics} == {
            "SA201",
            "SA202",
            "SA203",
            "SA204",
        }, biased.render()
        assert biased.ok  # warnings only: the query still runs serially

        text = (base / "unsound_unshardable.gsql").read_text()
        assert lint_source(text, registries).clean  # sound as a serial query
        deployed = lint_source(
            text, registries, target=parse_target("shards=4,durable")
        )
        assert {d.rule for d in deployed.diagnostics} == {
            "SA301",
            "SA302",
        }, deployed.render()
        assert not deployed.ok  # the runtimes refuse this deployment


class TestCollector:
    def test_len_iter_bool(self):
        collector = DiagnosticCollector()
        assert not collector and len(collector) == 0
        collector.warning("SA001", "w", Span(2, 1))
        collector.error("SA007", "e", Span(1, 5))
        assert bool(collector) and len(collector) == 2
        assert collector.has_errors
        assert [d.rule for d in collector.sorted()] == ["SA007", "SA001"]

    def test_unknown_positions_sort_last(self):
        collector = DiagnosticCollector()
        collector.error("SA030", "no span")
        collector.warning("SA001", "spanned", Span(9, 9))
        assert [d.rule for d in collector.sorted()] == ["SA001", "SA030"]
