"""Engine-equivalence parity tests.

Every shipped example query (and a battery of targeted shapes) must
produce byte-identical rows, metric series, and cost accounts on the
tuple and vectorized engines; plans the batch compiler cannot express
must fall back cleanly — same results, tuple execution — rather than
erroring or silently diverging.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.cli import _standard_instance
from repro.dsms.cost import CostModel
from repro.errors import ExecutionError
from repro.streams.records import Record
from repro.streams.schema import Attribute, Ordering, StreamSchema

from tests.vectorized.conftest import (
    make_val_records,
    metric_state,
    run_both,
    run_engine,
)

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples" / "queries"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.gsql"))


def _run_example(sql: str, trace, vectorize: bool):
    gs = _standard_instance(relax_factor=10.0, vectorize=vectorize)
    handle = gs.add_query(sql, name="q")
    gs.run(iter(trace))
    return gs, handle


def test_example_inventory():
    assert [path.name for path in EXAMPLES] == sorted(
        path.name for path in EXAMPLES
    )
    assert any(path.name == "big_flows.gsql" for path in EXAMPLES)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_queries_byte_identical(path, packet_trace):
    sql = path.read_text()
    gs_t, h_t = _run_example(sql, packet_trace, vectorize=False)
    gs_v, h_v = _run_example(sql, packet_trace, vectorize=True)
    rows_t = [tuple(r.values) for r in h_t.results]
    rows_v = [tuple(r.values) for r in h_v.results]
    assert rows_t == rows_v
    assert [tuple(type(v) for v in row) for row in rows_t] == [
        tuple(type(v) for v in row) for row in rows_v
    ]
    assert metric_state(gs_t) == metric_state(gs_v)


def test_selection_vectorizes(packet_trace):
    sql = (EXAMPLES_DIR / "big_flows.gsql").read_text()
    gs = _standard_instance(relax_factor=10.0, vectorize=True)
    handle = gs.add_query(sql, name="q")
    assert handle.operator.execution_mode == "vectorized"
    assert handle.operator.vectorize_fallback is None


def test_plain_aggregation_vectorizes(packet_trace):
    gs = _standard_instance(relax_factor=10.0, vectorize=True)
    handle = gs.add_query(
        "SELECT tb, sum(len), count(*) FROM TCP GROUP BY time/20 AS tb",
        name="q",
    )
    assert handle.operator.execution_mode == "vectorized"


def test_sfun_plan_falls_back_cleanly(packet_trace):
    """SFUN-bearing sampling plans run on the tuple path under
    vectorize=True with identical results."""
    sql = (EXAMPLES_DIR / "subset_sum.gsql").read_text()
    gs = _standard_instance(relax_factor=10.0, vectorize=True)
    handle = gs.add_query(sql, name="q")
    assert getattr(handle.operator, "execution_mode", "tuple") == "tuple"
    gs.run(iter(packet_trace))
    gs_t = _standard_instance(relax_factor=10.0, vectorize=False)
    h_t = gs_t.add_query(sql, name="q")
    gs_t.run(iter(packet_trace))
    assert [tuple(r.values) for r in handle.results] == [
        tuple(r.values) for r in h_t.results
    ]


def test_custom_aggregate_forces_fallback():
    """An aggregate with no batched fold takes the whole operator back to
    the tuple path, and the reason is recorded on the operator."""
    from repro.dsms.aggregates import Aggregate

    class Median(Aggregate):
        def __init__(self):
            self._values = []

        def update(self, value):
            self._values.append(value)

        def value(self):
            ordered = sorted(self._values)
            return ordered[len(ordered) // 2] if ordered else None

    gs = _standard_instance(relax_factor=10.0, vectorize=True)
    gs.registries.aggregates.register("median", Median)
    handle = gs.add_query(
        "SELECT tb, median(len) FROM TCP GROUP BY time/20 AS tb", name="q"
    )
    assert handle.operator.execution_mode == "tuple"
    assert "no batched fold" in handle.operator.vectorize_fallback


def test_nondeterministic_scalar_forces_fallback():
    gs = _standard_instance(relax_factor=10.0, vectorize=True)
    gs.registries.scalars.register("wobble", lambda x: x, deterministic=False)
    handle = gs.add_query("SELECT time FROM TCP WHERE wobble(len) > 0", name="q")
    assert handle.operator.execution_mode == "tuple"
    assert "nondeterministic" in handle.operator.vectorize_fallback


def test_only_per_tuple_clauses_decide_the_fallback(packet_trace):
    """HAVING and an aggregation's SELECT run per group in the window
    close both engines share, so what they hold — a nondeterministic
    scalar, say — keeps no plan off the columnar engine."""

    def setup(gs):
        gs.registries.scalars.register("wobble", lambda x: x, deterministic=False)

    _, handle = run_both(
        "SELECT tb, srcIP, wobble(sum(len)) FROM TCP GROUP BY time/10 AS tb, srcIP"
        " HAVING wobble(count(*)) > 1",
        packet_trace,
        schema=packet_trace[0].schema,
        setup=setup,
    )
    assert handle.operator.execution_mode == "vectorized"
    assert len(handle.results) > 10


def test_scalar_functions_match(packet_trace):
    """H() runs through frompyfunc with object-boxed args: hash values
    (which overflow int64 intermediates when computed on numpy ints)
    must equal the tuple path's Python-int arithmetic."""
    run_both(
        "SELECT time, H(srcIP, 7) FROM TCP WHERE H(srcIP, 7) % 3 = 0",
        packet_trace,
        schema=packet_trace[0].schema,
    )


def test_having_and_full_aggregate_battery(packet_trace):
    run_both(
        "SELECT tb, srcIP, sum(len), count(*), avg(len), min(len), max(len),"
        " first(len), last(len), count_distinct(destIP)"
        " FROM TCP WHERE len > 100"
        " GROUP BY time/10 AS tb, srcIP HAVING count(*) > 2",
        packet_trace,
        schema=packet_trace[0].schema,
    )


def test_group_by_expression_shadowing(packet_trace):
    """Group-by aliases shadow stream columns in WHERE, as on the tuple
    path (``expr.bind_tuple``'s rule)."""
    run_both(
        "SELECT tb, count(*) FROM TCP WHERE tb % 2 = 0 GROUP BY time/5 AS tb",
        packet_trace,
        schema=packet_trace[0].schema,
    )


# -- targeted value-domain parity -------------------------------------------


def test_nan_values_in_aggregates():
    nan = float("nan")
    rows = [
        (0, 1, 1.5, True),
        (0, 2, nan, False),
        (0, 3, 2.5, True),
        (11, 4, nan, False),
        (11, 5, 0.5, True),
    ]
    out, _ = run_both(
        "SELECT tb, min(f), max(f), count_distinct(f) FROM VAL"
        " GROUP BY t/10 AS tb",
        make_val_records(rows),
    )
    assert len(out) == 2
    # Python's comparison chain keeps the first value it saw, so the
    # first window's min is the non-NaN 1.5 while the second window's
    # min *is* NaN (it arrived first there) — on both engines.
    assert out[0][1] == 1.5
    assert math.isnan(out[1][1])


def test_nan_group_keys():
    # Distinct NaN objects: each is its own dict key on both paths
    # (degenerate, but equal).  A *shared* NaN object would collapse on
    # the tuple path only — dict keys compare by identity first, which
    # no value-based engine can reproduce; DESIGN.md §11 documents that
    # divergence and Record.from_mapping rejects NaN keys outright.
    rows = [
        (0, 1, float("nan"), True),
        (0, 2, float("nan"), False),
        (0, 3, 1.0, True),
    ]
    out, _ = run_both(
        "SELECT tb, f, count(*) FROM VAL GROUP BY t/10 AS tb, f",
        make_val_records(rows),
    )
    assert len(out) == 3


def test_bool_columns_everywhere():
    rows = [(0, 1, 1.0, True), (0, 2, 2.0, False), (1, 3, 3.0, True)]
    run_both(
        "SELECT t, b, x FROM VAL WHERE b = TRUE",
        make_val_records(rows),
    )
    run_both(
        "SELECT tb, sum(b), min(b), max(b) FROM VAL GROUP BY t/10 AS tb",
        make_val_records(rows),
    )


def test_bool_arithmetic_promotes_like_python():
    rows = [(0, 1, 1.0, True), (0, 2, 2.0, False)]
    run_both(
        "SELECT t, b + b, -b, b / 2.0 FROM VAL",
        make_val_records(rows),
    )


def test_empty_stream():
    run_both("SELECT t, x FROM VAL WHERE x > 0", [])


def test_single_record_stream():
    run_both(
        "SELECT tb, sum(x), avg(x) FROM VAL GROUP BY t/10 AS tb",
        make_val_records([(3, 7, 1.0, True)]),
    )


def test_where_rejects_everything():
    rows = [(0, 1, 1.0, True), (1, 2, 2.0, False)]
    run_both("SELECT t, x FROM VAL WHERE x > 100", make_val_records(rows))
    run_both(
        "SELECT tb, sum(x) FROM VAL WHERE x > 100 GROUP BY t/10 AS tb",
        make_val_records(rows),
    )


def test_integer_division_buckets():
    rows = [(i, i * 3, float(i), i % 2 == 0) for i in range(25)]
    run_both(
        "SELECT tb, sum(x) FROM VAL GROUP BY t/7 AS tb",
        make_val_records(rows),
    )


def test_division_by_zero_raises_same_error():
    rows = make_val_records([(0, 1, 1.0, True)])
    errors = []
    for vectorize in (False, True):
        with pytest.raises(ExecutionError) as exc_info:
            run_engine("SELECT t, x / 0 FROM VAL", rows, vectorize=vectorize)
        errors.append(str(exc_info.value))
    assert "integer division by zero" in errors[0]
    assert errors[0] == errors[1]


def test_mixed_type_comparison_raises_same_error():
    schema_rows = make_val_records([(0, 1, 1.0, True)])
    errors = []
    for vectorize in (False, True):
        with pytest.raises(ExecutionError) as exc_info:
            run_engine(
                "SELECT t FROM VAL WHERE x < 'zzz'", schema_rows, vectorize=vectorize
            )
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1]


_STR_SCHEMA = StreamSchema(
    "S",
    [
        Attribute("t", "int", Ordering.INCREASING),
        Attribute("x", "int"),
        Attribute("f", "float"),
        Attribute("name", "str"),
    ],
)


@pytest.mark.parametrize(
    "select, message",
    [
        ("x % 0", "modulo by zero"),
        ("x % (x - x)", "modulo by zero"),
        ("f % 0.0", "modulo by zero"),
        ("5 % (f - f)", "modulo by zero"),
        ("-name", "cannot evaluate (- name): unsupported operand type for '-' (str)"),
        ("x + (-name)", "cannot evaluate (- name): unsupported operand type for '-' (str)"),
    ],
)
def test_modulo_and_negation_errors_match_across_engines(select, message):
    """Both used to escape the tuple engine raw (ZeroDivisionError,
    TypeError); DESIGN.md §11 promises one span-carrying ExecutionError
    on either engine."""
    records = [Record(_STR_SCHEMA, [0, 7, 2.5, "alpha"]), Record(_STR_SCHEMA, [1, 9, 0.5, "b"])]
    errors = []
    for vectorize in (False, True):
        with pytest.raises(ExecutionError) as exc_info:
            run_engine(f"SELECT t, {select} FROM S", records, _STR_SCHEMA, vectorize)
        assert exc_info.value.span is not None
        errors.append(str(exc_info.value))
    assert message in errors[0]
    assert errors[0] == errors[1]


def test_columnar_child_of_a_per_tuple_parent_reads_what_the_rows_carry():
    """A query's output schema types every attribute ``int``; the rows a
    per-tuple parent emits carry floats and bools all the same.  The
    columnar child wraps them untyped, so nothing is truncated."""

    def setup(gs):
        gs.registries.scalars.register("wobble", lambda v: v, deterministic=False)
        gs.add_query("SELECT t, wobble(f) AS f, b, x FROM VAL", name="up")

    rows = [(t, t % 3, t + 0.5, t % 2 == 0) for t in range(12)]
    got, handle = run_both(
        "SELECT tb, sum(f), max(f), sum(b), first(b), sum(x / 2) FROM up"
        " WHERE f > 1.0 GROUP BY t/4 AS tb",
        make_val_records(rows),
        setup=setup,
    )
    assert handle.operator.execution_mode == "vectorized"
    assert got[0] == (0, 1.5 + 2.5 + 3.5, 3.5, 1, False, 1)
    run_both("SELECT t, f, b FROM up WHERE f > 1.0", make_val_records(rows), setup=setup)


def test_checkpoints_interchangeable_between_engines(packet_trace):
    """A vectorized aggregation checkpoint restores onto a tuple operator
    and vice versa: the group-table format is shared."""
    from repro.dsms.parser import compile_query
    from repro.dsms.operators.factory import build_operator
    from repro.dsms.vectorized import RecordBatch

    gs = _standard_instance(relax_factor=10.0)
    sql = "SELECT tb, srcIP, sum(len) FROM TCP GROUP BY time/20 AS tb, srcIP"
    plan = compile_query(sql, gs.registries, query_name="q")
    vec = build_operator(plan, vectorize=True)
    tup = build_operator(plan, vectorize=False)
    half = len(packet_trace) // 2
    emitted = vec.process_batch(
        RecordBatch.from_records(packet_trace[0].schema, packet_trace[:half])
    )
    tup.restore(vec.checkpoint())
    out_t = list(emitted)
    for record in packet_trace[half:]:
        out_t.extend(tup.process(record))
    out_t.extend(tup.flush())

    ref = build_operator(plan, vectorize=False)
    out_ref = []
    for record in packet_trace:
        out_ref.extend(ref.process(record))
    out_ref.extend(ref.flush())
    assert [tuple(r.values) for r in out_t] == [tuple(r.values) for r in out_ref]


def test_fallbacks_surface_in_run_report(packet_trace):
    """Fallback reasons reach run_report()/metrics; the section is
    strictly conditional so plain report consumers never see it."""
    gs = _standard_instance(relax_factor=10.0, vectorize=True)
    gs.registries.scalars.register("wobble", lambda x: x, deterministic=False)
    gs.add_query(
        "SELECT time, len FROM TCP WHERE len > 200", name="fast",
        keep_results=False,
    )
    gs.add_query(
        "SELECT time FROM TCP WHERE wobble(len) > 0", name="slow",
        keep_results=False,
    )
    gs.run(iter(packet_trace))
    report = gs.run_report()
    assert "vectorize" in report
    fallbacks = report["vectorize"]["fallbacks"]
    assert set(fallbacks) == {"slow"}
    assert fallbacks["slow"]
    assert int(gs.metrics.value("vectorize_fallback_total", query="slow")) == 1

    # Fully vectorized run: no section at all (the {streams, queries}
    # shape pin in tests/obs/test_report_compat.py stays intact).
    gs = _standard_instance(relax_factor=10.0, vectorize=True)
    gs.add_query("SELECT time, len FROM TCP WHERE len > 200", name="fast",
                 keep_results=False)
    gs.run(iter(packet_trace))
    assert set(gs.run_report()) == {"streams", "queries"}
