"""The columnar engine against the oracle, plus what only it has.

Every shipped example query and a battery of targeted shapes run with
``vectorize=True`` and are held to the oracle's rows, value types
included, and to the tuple engine's one-run series and cost accounts
(``tests/test_oracle.py::agree``); an error must carry the oracle's
message.  Plans the batch compiler cannot express must fall back
cleanly — the same held rows, tuple execution, the reason recorded —
and the group table is one format, so checkpoints cross engines.
"""

from __future__ import annotations

import pytest

from repro.cli import _standard_instance
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA, Attribute, Ordering, StreamSchema

from tests.test_oracle import EXAMPLES, FAMILIES, TRACES, Case, Family, agree, stream
from tests.vectorized.conftest import VAL_SCHEMA, make_val_records

EXAMPLE_PATHS = sorted(EXAMPLES.glob("*.gsql"))


def columnar(texts, records, schema=VAL_SCHEMA, setup=None, names=("q", "r")):
    """``texts`` on the columnar engine, held to the oracle."""
    family = Family(tuple(texts) if isinstance(texts, (list, tuple)) else (texts,), schema)
    return agree(Case(family, stream(records), names=names, vectorize=True, setup=setup))


def tcp(text, setup=None):
    return columnar(text, TRACES["bursty"], TCP_SCHEMA, setup)


def wobble(gs):
    gs.register_scalar("wobble", lambda x: x, deterministic=False)


def test_example_inventory():
    assert [path.name for path in EXAMPLE_PATHS] == sorted(path.name for path in EXAMPLE_PATHS)
    assert any(path.name == "big_flows.gsql" for path in EXAMPLE_PATHS)


@pytest.mark.parametrize("path", EXAMPLE_PATHS, ids=lambda p: p.stem)
def test_example_queries_byte_identical(path):
    agree(Case(FAMILIES[path.stem], stream(TRACES["sparse"]), vectorize=True))


def test_selection_vectorizes(packet_trace):
    sql = (EXAMPLES / "big_flows.gsql").read_text()
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


def test_sfun_plan_falls_back_cleanly():
    """SFUN-bearing sampling plans run on the tuple path under
    vectorize=True, held to the same rows."""
    seen = agree(Case(FAMILIES["subset_sum"], stream(TRACES["bursty"]), vectorize=True))
    assert seen.deployment.query("q").operator.execution_mode == "tuple"


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


def test_only_per_tuple_clauses_decide_the_fallback():
    """HAVING and an aggregation's SELECT run per group in the window
    close both engines share, so what they hold — a nondeterministic
    scalar, say — keeps no plan off the columnar engine."""
    seen = tcp(
        "SELECT tb, srcIP, wobble(sum(len)) FROM TCP GROUP BY time/1 AS tb, srcIP"
        " HAVING wobble(count(*)) > 1",
        setup=wobble,
    )
    assert seen.deployment.query("q").operator.execution_mode == "vectorized"
    assert len(seen.rows["q"]) > 10


def test_scalar_functions_match():
    """H() runs through frompyfunc with object-boxed args: hash values
    (which overflow int64 intermediates when computed on numpy ints)
    must equal the oracle's Python-int arithmetic."""
    tcp("SELECT time, H(srcIP, 7) FROM TCP WHERE H(srcIP, 7) % 3 = 0")


def test_having_and_full_aggregate_battery():
    tcp(
        "SELECT tb, srcIP, sum(len), count(*), avg(len), min(len), max(len),"
        " first(len), last(len), count_distinct(destIP)"
        " FROM TCP WHERE len > 100"
        " GROUP BY time/1 AS tb, srcIP HAVING count(*) > 2"
    )


def test_group_by_expression_shadowing():
    """Group-by aliases shadow stream columns in WHERE."""
    tcp("SELECT tb, count(*) FROM TCP WHERE tb % 2 = 0 GROUP BY time/1 AS tb")
    tcp("SELECT time, count(*), sum(len) FROM TCP WHERE len > 1 GROUP BY time/2 AS time, len/500 AS len")


# -- targeted value-domain cases ---------------------------------------------


def test_nan_values_in_aggregates():
    nan = float("nan")
    rows = [(0, 1, 1.5, True), (0, 2, nan, False), (0, 3, 2.5, True), (11, 4, nan, False), (11, 5, 0.5, True)]
    out = columnar(
        "SELECT tb, min(f), max(f), count_distinct(f) FROM VAL GROUP BY t/10 AS tb", make_val_records(rows)
    ).rows["q"]
    assert len(out) == 2
    # Python's comparison chain keeps the first value it saw, so the
    # first window's min is the non-NaN 1.5 while the second window's
    # min *is* NaN (it arrived first there).
    assert out[0][1] == ("float", 1.5)
    assert out[1][1] == ("float", "NaN")


def test_nan_group_keys():
    # Distinct NaN objects: each is its own dict key (degenerate, but the
    # oracle's semantics too).  A *shared* NaN object would collapse on the
    # tuple path only — dict keys compare by identity first, which no
    # value-based engine can reproduce; DESIGN.md §11 documents that
    # divergence and Record.from_mapping rejects NaN keys outright.
    rows = [(0, 1, float("nan"), True), (0, 2, float("nan"), False), (0, 3, 1.0, True)]
    assert len(columnar("SELECT tb, f, count(*) FROM VAL GROUP BY t/10 AS tb, f", make_val_records(rows)).rows["q"]) == 3


def test_bool_columns_everywhere():
    rows = [(0, 1, 1.0, True), (0, 2, 2.0, False), (1, 3, 3.0, True)]
    columnar("SELECT t, b, x FROM VAL WHERE b = TRUE", make_val_records(rows))
    columnar("SELECT tb, sum(b), min(b), max(b) FROM VAL GROUP BY t/10 AS tb", make_val_records(rows))


def test_bool_arithmetic_promotes_like_python():
    columnar("SELECT t, b + b, -b, b / 2.0 FROM VAL", make_val_records([(0, 1, 1.0, True), (0, 2, 2.0, False)]))


def test_empty_stream():
    columnar("SELECT t, x FROM VAL WHERE x > 0", [])


def test_single_record_stream():
    columnar("SELECT tb, sum(x), avg(x) FROM VAL GROUP BY t/10 AS tb", make_val_records([(3, 7, 1.0, True)]))


def test_where_rejects_everything():
    rows = [(0, 1, 1.0, True), (1, 2, 2.0, False)]
    columnar("SELECT t, x FROM VAL WHERE x > 100", make_val_records(rows))
    columnar("SELECT tb, sum(x) FROM VAL WHERE x > 100 GROUP BY t/10 AS tb", make_val_records(rows))


def test_integer_division_buckets():
    columnar("SELECT tb, sum(x) FROM VAL GROUP BY t/7 AS tb", make_val_records([(i, i * 3, float(i), i % 2 == 0) for i in range(25)]))


def test_division_by_zero_raises_same_error():
    seen = columnar("SELECT t, x / 0 FROM VAL", make_val_records([(0, 1, 1.0, True)]))
    assert "integer division by zero" in seen.error


def test_mixed_type_comparison_raises_same_error():
    assert "unsupported operand types" in columnar("SELECT t FROM VAL WHERE x < 'zzz'", make_val_records([(0, 1, 1.0, True)])).error


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
    on either engine — the oracle's."""
    records = [Record(_STR_SCHEMA, [0, 7, 2.5, "alpha"]), Record(_STR_SCHEMA, [1, 9, 0.5, "b"])]
    for vectorize in (False, True):
        family = Family((f"SELECT t, {select} FROM S",), _STR_SCHEMA)
        error = agree(Case(family, stream(records), vectorize=vectorize)).error
        assert message in error and "(at line 1, col " in error


def test_columnar_child_of_a_per_tuple_parent_reads_what_the_rows_carry():
    """A query's output schema types every attribute ``int``; the rows a
    per-tuple parent emits carry floats and bools all the same.  The
    columnar child wraps them untyped, so nothing is truncated."""
    rows = make_val_records([(t, t % 3, t + 0.5, t % 2 == 0) for t in range(12)])
    parent = "SELECT t, wobble(f) AS f, b, x FROM VAL"
    child = "SELECT tb, sum(f), max(f), sum(b), first(b), sum(x / 2) FROM {0} WHERE f > 1.0 GROUP BY t/4 AS tb"
    seen = columnar([parent, child], rows, setup=wobble, names=("up", "q"))
    assert seen.deployment.query("q").operator.execution_mode == "vectorized"
    assert seen.rows["q"][0] == tuple(
        ("bool" if v is False else type(v).__name__, v) for v in (0, 1.5 + 2.5 + 3.5, 3.5, 1, False, 1)
    )
    columnar([parent, "SELECT t, f, b FROM {0} WHERE f > 1.0"], rows, setup=wobble, names=("up", "q"))


def test_checkpoints_interchangeable_between_engines(packet_trace):
    """A vectorized aggregation checkpoint restores onto a tuple operator
    and vice versa: the group-table format is shared, and so are its
    bytes (a distinct-value set pickles in insertion order)."""
    import pickle

    from repro.dsms.parser import compile_query
    from repro.dsms.operators.factory import build_operator
    from repro.dsms.vectorized import RecordBatch

    gs = _standard_instance(relax_factor=10.0)
    sql = "SELECT tb, srcIP, sum(len), count_distinct(destIP) FROM TCP GROUP BY time/20 AS tb, srcIP"
    plan = compile_query(sql, gs.registries, query_name="q")
    vec = build_operator(plan, vectorize=True)
    tup = build_operator(plan, vectorize=False)
    half = len(packet_trace) // 2
    emitted = vec.process_batch(
        RecordBatch.from_records(packet_trace[0].schema, packet_trace[:half])
    )
    tup.process_many(packet_trace[:half])
    assert pickle.dumps(vec.checkpoint()) == pickle.dumps(tup.checkpoint())
    tup = build_operator(plan, vectorize=False)
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
