"""Batch-compiler unit tests: exact tuple semantics over arrays.

These drive compiled closures directly (no runtime) against the
reference ``repro.dsms.expr.evaluate`` semantics, including the error
paths that motivated this engine's satellite bugfixes: int/int floor
division, bool/float true division, zero divisors, and mixed-type
diagnostics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.dsms.expr import evaluate, EvalContext
from repro.dsms.functions import default_function_registry
from repro.dsms.parser import parse_query
from repro.dsms.parser.analyzer import analyze
from repro.dsms.vectorized import BatchCompiler, UnsupportedExpression, make_env
from repro.dsms.vectorized import RecordBatch

from tests.vectorized.conftest import VAL_SCHEMA, make_val_records

from repro.dsms.aggregates import default_aggregate_registry
from repro.dsms.parser import Registries
from repro.dsms.stateful import StatefulLibrary
from repro.core.superaggregates import default_superaggregate_registry


def _registries():
    return Registries(
        schemas={"VAL": VAL_SCHEMA},
        scalars=default_function_registry(),
        aggregates=default_aggregate_registry(),
        superaggregates=default_superaggregate_registry(),
        stateful=StatefulLibrary(),
    )


class _RowCtx(EvalContext):
    def __init__(self, record, scalars):
        self.record = record
        self.scalars = scalars.functions

    def column(self, name):
        return self.record[name]


def _compile_select(sql):
    """First SELECT item of ``sql`` compiled, plus its analyzed tree."""
    registries = _registries()
    analyzed = analyze(parse_query(sql), registries)
    compiler = BatchCompiler(registries.scalars)
    return [compiler.compile(item.expr) for item in analyzed.ast.select], analyzed


def _eval_both(sql, rows):
    """Each compiled SELECT item vs evaluate() row-by-row."""
    registries = _registries()
    analyzed = analyze(parse_query(sql), registries)
    compiler = BatchCompiler(registries.scalars)
    fns = [compiler.compile(item.expr) for item in analyzed.ast.select]
    records = make_val_records(rows)
    batch = RecordBatch.from_records(VAL_SCHEMA, records)
    env = make_env(batch)
    for item, fn in zip(analyzed.ast.select, fns):
        batched = fn(env)
        if isinstance(batched, np.ndarray):
            batched = batched.tolist()
        else:
            batched = [batched] * len(records)
        reference = [
            evaluate(item.expr, _RowCtx(r, registries.scalars)) for r in records
        ]
        assert batched == reference
        assert [type(v) for v in batched] == [type(v) for v in reference]


ROWS = [(0, 7, 1.5, True), (10, -3, 2.0, False), (20, 8, 0.25, True)]


def test_arithmetic_matches_tuple_path():
    _eval_both("SELECT x + 1, x - t, x * 2, x % 3 FROM VAL", ROWS)


def test_integer_division_floors():
    _eval_both("SELECT x / 2, t / 7 FROM VAL", ROWS)


def test_float_division_is_true_division():
    _eval_both("SELECT f / 2, x / 0.5 FROM VAL", ROWS)


def test_bool_arithmetic_is_python_int_arithmetic():
    _eval_both("SELECT b + b, -b, b * 3 FROM VAL", ROWS)


def test_comparisons_and_logic():
    _eval_both(
        "SELECT x < 5, x >= 7, f <= 1.5, x = 7, x <> 7, NOT b = TRUE FROM VAL",
        ROWS,
    )


def test_scalar_calls_receive_python_ints():
    # H() multiplies by 32-bit constants; on int64 inputs that overflows
    # (or wraps) — the boxing in _compile_scalar_call must hand the
    # registered Python function plain ints.
    _eval_both("SELECT H(x, 3), HU(t, 1) FROM VAL", ROWS)


def test_integer_division_by_zero_message_and_span():
    fns, analyzed = _compile_select("SELECT x / 0 FROM VAL")
    batch = RecordBatch.from_records(VAL_SCHEMA, make_val_records(ROWS))
    with pytest.raises(ExecutionError) as exc_info:
        fns[0](make_env(batch))
    assert "integer division by zero" in str(exc_info.value)
    assert exc_info.value.span is not None


def test_true_division_by_zero_message():
    fns, _ = _compile_select("SELECT f / 0 FROM VAL")
    batch = RecordBatch.from_records(VAL_SCHEMA, make_val_records(ROWS))
    with pytest.raises(ExecutionError, match="division by zero"):
        fns[0](make_env(batch))


def test_modulo_by_zero_raises_execution_error():
    fns, _ = _compile_select("SELECT x % 0 FROM VAL")
    batch = RecordBatch.from_records(VAL_SCHEMA, make_val_records(ROWS))
    with pytest.raises(ExecutionError, match="modulo by zero"):
        fns[0](make_env(batch))


def test_mixed_type_order_comparison_names_python_types():
    fns, _ = _compile_select("SELECT x < 'zzz' FROM VAL")
    batch = RecordBatch.from_records(VAL_SCHEMA, make_val_records(ROWS))
    with pytest.raises(ExecutionError, match=r"int and str"):
        fns[0](make_env(batch))


def test_equality_never_type_errors():
    _eval_both("SELECT x = 'zzz', x <> 'zzz' FROM VAL", ROWS)


def test_unsupported_nodes_raise_at_compile_time():
    registries = _registries()
    registries.scalars.register("jitter", lambda x: x, deterministic=False)
    analyzed = analyze(parse_query("SELECT jitter(x) FROM VAL"), registries)
    compiler = BatchCompiler(registries.scalars)
    with pytest.raises(UnsupportedExpression, match="nondeterministic"):
        compiler.compile(analyzed.ast.select[0].expr)


def test_aggregate_outside_group_context_is_unsupported():
    registries = _registries()
    analyzed = analyze(
        parse_query("SELECT tb, sum(x) FROM VAL GROUP BY t/10 AS tb"), registries
    )
    compiler = BatchCompiler(registries.scalars)
    agg_item = analyzed.ast.select[1].expr
    with pytest.raises(UnsupportedExpression):
        compiler.compile(agg_item)
