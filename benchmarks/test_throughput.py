"""Real wall-clock throughput of the Python operators.

The paper's line-rate numbers come from compiled C; these benchmarks
measure what this pure-Python reproduction actually sustains, so readers
can relate the cost-model figures to wall-clock reality.  Reported as
records/second via pytest-benchmark's ops/sec, and every benchmark also
lands its measured numbers in ``BENCH_throughput.json`` at the repo root
(one key per benchmark) for trend tracking and the CI throughput gate.

The vectorized benchmarks carry the hard gates for the columnar batch
engine (DESIGN.md §11).  They gate on what the tuple engine's speed
cannot move: the columnar cost per record, measured in runs of the perf
ledger's calibration kernel (``benchmarks.ledger.measure.Host`` —
interpreter-bound dictionary work that slows down with the host, so the
unit travels between machines), must stay under a recorded ceiling, and
the columnar engine must beat the tuple engine on the same data.  The
tuple-to-columnar ratio is reported, not asserted: compiling the tuple
engine's expressions (PR 13) cut it from 18x to 6x on the selection hot
path without the columnar engine getting any slower.
"""

import os
import time

import pytest

from benchmarks._emit import ROUNDS, best_of, kernel_seconds
from benchmarks._emit import record_bench as _record_bench
from repro.dsms.runtime import Gigascope
from repro.dsms.vectorized import RecordBatch
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, data_center_feed
from repro.algorithms.bindings import (
    BASIC_SUBSET_SUM_QUERY,
    SUBSET_SUM_QUERY,
    basic_subset_sum_library,
    subset_sum_library,
)

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_throughput.json")
BATCH_SIZE = 4096

#: Ceilings on the columnar engine's cost, in calibration-kernel runs per
#: 1000 records — about 2.5x what the development host measures
#: (BENCH_throughput.json, ``vectorized_kernels_per_krecord``), which is
#: past its run-to-run spread and short of any real regression.
CEILING_KERNELS_PER_KRECORD = {
    "vectorized_selection_hot_path": 1.0,
    "vectorized_aggregation_hot_path": 1.0,
    "vectorized_grouped_aggregation": 5.0,
    "vectorized_selection_end_to_end": 7.0,
}


def record_bench(name, payload):
    """Merge one benchmark's numbers into BENCH_throughput.json
    (shared emitter: ``benchmarks/_emit.py``)."""
    _record_bench(OUT_PATH, name, payload)


@pytest.fixture(scope="module")
def packets():
    config = TraceConfig(duration_seconds=10, rate_scale=0.01, seed=1)
    return list(data_center_feed(config))


@pytest.fixture(scope="module")
def batches(packets):
    return [
        RecordBatch.from_records(TCP_SCHEMA, packets[i : i + BATCH_SIZE])
        for i in range(0, len(packets), BATCH_SIZE)
    ]


# ---------------------------------------------------------------------------
# End-to-end engine throughput (ring buffers, runtime, sinks included)
# ---------------------------------------------------------------------------


def test_throughput_selection(benchmark, packets):
    def run():
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.add_query("SELECT time, len FROM TCP WHERE len > 200",
                     name="sel", keep_results=False)
        return gs.run(iter(packets))

    processed = benchmark(run)
    assert processed == len(packets)
    seconds = best_of(run)
    record_bench("selection_end_to_end", {
        "records": len(packets),
        "rounds": ROUNDS,
        "seconds": round(seconds, 4),
        "records_per_second": round(len(packets) / seconds),
    })


def test_throughput_basic_subset_sum(benchmark, packets):
    def run():
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(basic_subset_sum_library())
        gs.add_query(BASIC_SUBSET_SUM_QUERY.format(z=50_000),
                     name="basic", keep_results=False)
        return gs.run(iter(packets))

    processed = benchmark(run)
    assert processed == len(packets)
    seconds = best_of(run)
    record_bench("basic_subset_sum_end_to_end", {
        "records": len(packets),
        "rounds": ROUNDS,
        "seconds": round(seconds, 4),
        "records_per_second": round(len(packets) / seconds),
    })


def test_throughput_sampling_operator(benchmark, packets):
    def run():
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        gs.add_query(SUBSET_SUM_QUERY.format(window=2, target=100),
                     name="ss", keep_results=False)
        return gs.run(iter(packets))

    processed = benchmark(run)
    assert processed == len(packets)
    seconds = best_of(run)
    record_bench("sampling_operator_end_to_end", {
        "records": len(packets),
        "rounds": ROUNDS,
        "seconds": round(seconds, 4),
        "records_per_second": round(len(packets) / seconds),
    })


def test_throughput_sharded_vs_serial(benchmark, packets):
    """Sharded-vs-serial wall-clock comparison on one partitionable query.

    Python shards pay interpreter overhead per shard, so the point is not
    a speedup claim but a recorded comparison — plus the hard assertion
    that the sharded runtime's output is identical to the serial one.
    """
    from repro.dsms.sharded import ShardedGigascope, canonical_rows

    text = (
        "SELECT tb, srcIP, sum(len), count(*)"
        " FROM TCP GROUP BY time/2 as tb, srcIP"
    )

    def serial():
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        handle = gs.add_query(text, name="agg")
        gs.run(iter(packets))
        return handle.results

    def sharded():
        sh = ShardedGigascope(shards=2)
        sh.register_stream(TCP_SCHEMA)
        handle = sh.add_query(text, name="agg")
        sh.run(iter(packets))
        return handle.results

    start = time.perf_counter()
    serial_results = serial()
    serial_seconds = time.perf_counter() - start

    sharded_results = benchmark(sharded)

    assert canonical_rows(sharded_results) == canonical_rows(serial_results)
    # benchmark.stats is unset under --benchmark-disable, and a mean of
    # zero (clock granularity on a degenerate run) would divide by zero:
    # fall back to an explicit timing rather than crash the comparison.
    stats = getattr(benchmark, "stats", None)
    sharded_seconds = stats.stats.mean if stats is not None else 0.0
    if not sharded_seconds > 0.0:
        sharded_seconds = best_of(sharded, rounds=1)
    print(
        f"\nserial {serial_seconds:.3f}s vs sharded(2) {sharded_seconds:.3f}s"
        f" ({serial_seconds / sharded_seconds:.2f}x)"
    )
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["sharded_shards"] = 2
    record_bench("sharded_vs_serial", {
        "records": len(packets),
        "serial_seconds": round(serial_seconds, 4),
        "sharded_seconds": round(sharded_seconds, 4),
        "shards": 2,
        "serial_over_sharded": round(serial_seconds / sharded_seconds, 2),
    })


# ---------------------------------------------------------------------------
# Vectorized engine: operator-level hot paths and the whole engine
# ---------------------------------------------------------------------------


def _operator_pair(sql):
    """(tuple_operator, vectorized_operator) for one query text."""
    operators = []
    for vectorize in (False, True):
        gs = Gigascope(vectorize=vectorize)
        gs.register_stream(TCP_SCHEMA)
        operators.append(gs.add_query(sql, name="bench").operator)
    return operators


def _hot_path_seconds(sql, packets, batches):
    """(tuple seconds, vectorized seconds, kernel seconds, run_vec)."""
    tup, vec = _operator_pair(sql)
    assert vec.execution_mode == "vectorized", vec.vectorize_fallback

    def run_tuple():
        for record in packets:
            tup.process(record)
        tup.flush()

    def run_vec():
        for batch in batches:
            vec.process_batch(batch)
        vec.flush()

    kernel = kernel_seconds()
    tuple_seconds, vec_seconds = best_of(run_tuple), best_of(run_vec)
    return tuple_seconds, vec_seconds, min(kernel, kernel_seconds()), run_vec


def gate_vectorized(name, n, tuple_seconds, vec_seconds, kernel, **extra):
    """Record one tuple-vs-columnar comparison and hold the columnar
    side to its ceiling; the ratio rides along as a reported number."""
    ceiling = CEILING_KERNELS_PER_KRECORD[name]
    cost = vec_seconds / n * 1000 / kernel
    record_bench(name, {
        "records": n,
        "rounds": ROUNDS,
        "tuple_us_per_record": round(tuple_seconds / n * 1e6, 3),
        "vectorized_us_per_record": round(vec_seconds / n * 1e6, 3),
        "kernel_us": round(kernel * 1e6, 1),
        "vectorized_kernels_per_krecord": round(cost, 3),
        "ceiling_kernels_per_krecord": ceiling,
        "speedup": round(tuple_seconds / vec_seconds, 1),
        **extra,
    })
    assert cost <= ceiling, (vec_seconds, kernel)
    assert vec_seconds < tuple_seconds, (tuple_seconds, vec_seconds)


def test_throughput_vectorized_selection_hot_path(benchmark, packets, batches):
    """Operator-level selection: the batch engine's headline number."""
    sql = "SELECT time, srcIP, len FROM TCP WHERE len > 200"
    tuple_seconds, vec_seconds, kernel, run_vec = _hot_path_seconds(
        sql, packets, batches
    )
    gate_vectorized(
        "vectorized_selection_hot_path", len(packets), tuple_seconds,
        vec_seconds, kernel, batch_size=BATCH_SIZE,
        # scripts/check_bench_gate.py: columnar beats tuple, in CI too
        ci_min_speedup=1.0,
    )
    benchmark.pedantic(run_vec, rounds=1, iterations=1)


def test_throughput_vectorized_aggregation_hot_path(benchmark, packets, batches):
    """Operator-level windowed aggregation (the paper's per-time-bucket
    ``sum(len)`` shape): batched folds plus the columnar window close."""
    sql = "SELECT tb, sum(len), count(*) FROM TCP GROUP BY time/2 AS tb"
    tuple_seconds, vec_seconds, kernel, run_vec = _hot_path_seconds(
        sql, packets, batches
    )
    gate_vectorized(
        "vectorized_aggregation_hot_path", len(packets), tuple_seconds,
        vec_seconds, kernel, batch_size=BATCH_SIZE,
    )
    benchmark.pedantic(run_vec, rounds=1, iterations=1)


def test_throughput_vectorized_grouped_aggregation(packets, batches):
    """High-cardinality GROUP BY (a group per handful of rows): the
    per-group work both engines share — aggregate instances, output
    records — bounds the win, hence the higher ceiling."""
    sql = (
        "SELECT tb, srcIP, sum(len), count(*)"
        " FROM TCP WHERE len > 100 GROUP BY time/2 AS tb, srcIP"
    )
    tuple_seconds, vec_seconds, kernel, _ = _hot_path_seconds(sql, packets, batches)
    gate_vectorized(
        "vectorized_grouped_aggregation", len(packets), tuple_seconds,
        vec_seconds, kernel, batch_size=BATCH_SIZE,
    )


def test_throughput_vectorized_end_to_end(packets):
    """Whole-engine comparison: ring buffers, runtime batching, and the
    record/batch conversion edges included."""

    def run(vectorize):
        gs = Gigascope(vectorize=vectorize)
        gs.register_stream(TCP_SCHEMA)
        gs.add_query("SELECT time, srcIP, len FROM TCP WHERE len > 200",
                     name="sel", keep_results=False)
        return gs.run(iter(packets))

    assert run(False) == len(packets)
    assert run(True) == len(packets)
    kernel = kernel_seconds()
    tuple_seconds = best_of(lambda: run(False))
    vec_seconds = best_of(lambda: run(True))
    n = len(packets)
    gate_vectorized(
        "vectorized_selection_end_to_end", n, tuple_seconds, vec_seconds,
        min(kernel, kernel_seconds()),
        tuple_records_per_second=round(n / tuple_seconds),
        vectorized_records_per_second=round(n / vec_seconds),
    )
