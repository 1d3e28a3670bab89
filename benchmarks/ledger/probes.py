"""Per-layer attribution from outside the program (traced pass only).

Timing probes call one layer's public functions in isolation on the
workload's own records, slice by slice, and report calibrated time
(:func:`measure.steady_seconds`) in ns per *feed* record.  Counts come from
the metric registries of the last timed round and repeat exactly.  A
layer the workload never enters reports 0 for that workload; a probe
whose API is gone reports ``None`` plus an entry in the error map instead
of aborting the run.
"""

from __future__ import annotations

import os
import pickle
import statistics
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from benchmarks.ledger.measure import (
    Host,
    Timed,
    percentile,
    steady_seconds,
    timed_call,
)
from benchmarks.ledger.spec import PER_LAYER
from repro.dsms.ring_buffer import RingBuffer
from repro.dsms.runtime import Gigascope
from repro.dsms.vectorized import RecordBatch
from repro.streams.persistence import iter_trace, save_trace
from repro.streams.schema import TCP_SCHEMA
from repro.streams.sources import QuarantineStream, ResilientSource, RetryPolicy, replayable

Values = Dict[str, float]


@dataclass
class Context:
    run: Any  # ledger.WorkloadRun
    host: Host
    scratch: str
    repeats: int
    #: filled by the probes as they go; later probes read earlier layers
    values: Optional[Values] = None
    detail: Optional[Dict[str, Any]] = None

    def ns(self, seconds: float) -> float:
        return seconds / self.run.n * 1e9

    def steady(self, variant: str) -> float:
        """Calibrated seconds of one variant's interleaved rounds."""
        return steady_seconds(self.run.passes[variant])

    def total(self, name: str, **labels: Any) -> float:
        """A counter summed over every registry behind the last round."""
        accounts = self.run.workload.accounts(self.run.drivers["plain"])
        return sum(registry.total(name, **labels) for registry, _ in accounts)


def sliced(
    ctx: Context,
    setup: Callable[[], Any],
    step: Callable[[Any, Any], None],
    chunks: Sequence[Any],
    finish: Optional[Callable[[Any], None]] = None,
) -> float:
    """Calibrated seconds of ``step`` over the chunks (+ ``finish``),
    each repeat on a fresh ``setup()`` state."""
    passes = []
    for _ in range(ctx.repeats):
        state = setup()
        timed = Timed(ctx.host)
        for chunk in chunks:
            timed.open()
            step(state, chunk)
            timed.close()
        timed.open()
        if finish is not None:
            finish(state)
        passes.append(timed.end(None))
    return steady_seconds(passes)


# -- generic layers: measured on every workload's own records ---------------


def probe_traces(ctx: Context) -> Values:
    run = ctx.run
    return {
        "streams.traces.gen_ns_per_record": ctx.ns(steady_seconds(run.gen)),
        "dsms.parser.plan_ms": steady_seconds(run.build) * 1e3,
    }


def probe_persistence(ctx: Context) -> Values:
    path = os.path.join(ctx.scratch, "probe.trace")
    save_trace(ctx.run.trace, path)
    try:
        size = os.path.getsize(path)
        seconds = sliced(
            ctx,
            lambda: iter_trace(path),
            lambda records, chunk: deque(islice(records, len(chunk)), maxlen=0),
            ctx.run.chunks,
        )
    finally:
        os.remove(path)
    return {
        "streams.persistence.decode_ns_per_record": ctx.ns(seconds),
        "streams.persistence.bytes_per_record": size / ctx.run.n,
    }


def probe_sources(ctx: Context) -> Values:
    sources = []

    def connect() -> Any:
        sources.append(
            ResilientSource(
                replayable(ctx.run.trace),
                RetryPolicy(),
                schema=TCP_SCHEMA,
                quarantine=QuarantineStream(),
            )
        )
        return iter(sources[-1])

    seconds = sliced(
        ctx,
        connect,
        lambda records, chunk: deque(islice(records, len(chunk)), maxlen=0),
        ctx.run.chunks,
    )
    return {
        "streams.sources.resilient_ns_per_record": ctx.ns(seconds),
        "streams.sources.quarantined": sources[-1].stats.quarantined,
    }


def probe_ring(ctx: Context) -> Values:
    backlog = [0]

    def setup() -> Tuple[RingBuffer, int]:
        ring = RingBuffer()
        return ring, ring.subscribe()

    def step(state: Tuple[RingBuffer, int], chunk: Sequence[Any]) -> None:
        ring, subscriber = state
        for record in chunk:
            ring.push(record)
        backlog[0] = max(backlog[0], ring.max_backlog())
        ring.poll(subscriber)

    seconds = sliced(ctx, setup, step, ctx.run.chunks)
    accounts = ctx.run.workload.accounts(ctx.run.drivers["plain"])
    return {
        "dsms.ring_buffer.ns_per_record": ctx.ns(seconds),
        "dsms.ring_buffer.drops": sum(
            stream["drops"] for _, report in accounts for stream in report["streams"].values()
        ),
        "dsms.ring_buffer.max_backlog": backlog[0],
    }


def probe_admit(ctx: Context) -> Values:
    """Admission alone: a zero-query instance fed the same batches."""

    def setup() -> Gigascope:
        gs = Gigascope()
        gs.register_stream(TCP_SCHEMA)
        gs.start()
        return gs

    seconds = sliced(
        ctx, setup, lambda gs, chunk: gs.feed(chunk), ctx.run.chunks, lambda gs: gs.finish()
    )
    return {"dsms.runtime.admit_ns_per_record": ctx.ns(seconds)}


# -- operators --------------------------------------------------------------


def _layer(operator: Any) -> str:
    if operator.kind_label == "sampling":
        return "core.sampling_operator"
    kind = "aggregation" if operator.kind_label == "aggregation" else "selection"
    if hasattr(operator, "process_batch"):
        return f"dsms.vectorized.operators.{kind}"
    return f"dsms.operators.{kind}"


def _drive(
    operator: Any, inputs: Sequence[Any], schema: Any, lazy: bool, host: Host
) -> Tuple[Timed, List[Any]]:
    """Push per-slice inputs through one operator, then flush it.

    Returns the timing and the per-slice outputs (flush output last),
    which are the next operator's inputs.  A vectorized operator gets
    column batches: converted before the clock starts, or — ``lazy`` —
    wrapped inside the timed slice the way the runtime does it, so the
    difference is the record-to-batch conversion the operator triggers.
    """
    vectorized = hasattr(operator, "process_batch")
    if vectorized and not lazy:
        inputs = [_as_batch(chunk, schema, convert=True) for chunk in inputs]
    outputs: List[Any] = []
    timed = Timed(host)
    for chunk in inputs:
        timed.open()
        if not len(chunk):
            outputs.append([])
        elif vectorized:
            out = operator.process_batch(_as_batch(chunk, schema, convert=False))
            outputs.append(out if out is not None else [])
        else:
            out = []
            process = operator.process
            for record in chunk.to_records() if isinstance(chunk, RecordBatch) else chunk:
                emitted = process(record)
                if emitted:
                    out.extend(emitted)
            outputs.append(out)
        timed.close()
    timed.open()
    outputs.append(operator.flush())
    return timed.end(None), outputs


def _as_batch(chunk: Any, schema: Any, convert: bool) -> RecordBatch:
    if isinstance(chunk, RecordBatch):
        return chunk
    batch = RecordBatch.from_records(schema, list(chunk))
    if convert:
        batch.materialized()
    return batch


def _operator_passes(ctx: Context, lazy: bool) -> Dict[Tuple[int, str, str], List[Timed]]:
    """``repeats`` passes over every operator of the workload's probe
    instances, in topological order, keyed (instance, query node, layer)."""
    passes: Dict[Tuple[int, str, str], List[Timed]] = defaultdict(list)
    for _ in range(ctx.repeats):
        for index, gs in enumerate(ctx.run.workload.probe_instances()):
            outputs: Dict[str, List[Any]] = {}
            for handle in gs.query_handles():
                timed, outputs[handle.name] = _drive(
                    handle.operator,
                    outputs.get(handle.source, ctx.run.chunks),
                    gs.registries.schemas[handle.source],
                    lazy,
                    ctx.host,
                )
                passes[index, handle.name, _layer(handle.operator)].append(timed)
    return passes


def probe_operators(ctx: Context) -> Values:
    by_layer: Values = defaultdict(float)
    nodes: Dict[str, float] = defaultdict(float)
    flush = 0.0
    eager = _operator_passes(ctx, lazy=False)
    for (_, node, layer), passes in eager.items():
        seconds = steady_seconds(passes)
        by_layer[layer] += seconds
        nodes[node] += ctx.ns(seconds)
        if layer == "core.sampling_operator":
            flush += statistics.median(timed.calibrated()[-1] for timed in passes)
    conversion = 0.0
    if any(layer.startswith("dsms.vectorized") for _, _, layer in eager):
        lazy = _operator_passes(ctx, lazy=True)
        conversion = sum(steady_seconds(lazy[key]) - steady_seconds(eager[key]) for key in eager)
    ctx.detail["operator_ns_per_record"] = dict(nodes)
    return {
        "dsms.operators.selection.ns_per_record": ctx.ns(by_layer["dsms.operators.selection"]),
        "dsms.operators.aggregation.ns_per_record": ctx.ns(
            by_layer["dsms.operators.aggregation"]
        ),
        "core.sampling_operator.ns_per_record": ctx.ns(by_layer["core.sampling_operator"]),
        "core.sampling_operator.flush_ms": flush * 1e3,
        "dsms.vectorized.operators.selection_ns_per_record": ctx.ns(
            by_layer["dsms.vectorized.operators.selection"]
        ),
        "dsms.vectorized.operators.aggregation_ns_per_record": ctx.ns(
            by_layer["dsms.vectorized.operators.aggregation"]
        ),
        "dsms.vectorized.batch.from_records_ns_per_record": ctx.ns(max(0.0, conversion)),
    }


def probe_operator_counts(ctx: Context) -> Values:
    def sampling(name: str) -> float:
        return ctx.total(name, operator="sampling")

    sampled = sampling("operator_tuples_in_total")
    return {
        "dsms.operators.selection.records_in": ctx.total(
            "operator_tuples_in_total", operator="selection"
        ),
        "dsms.operators.selection.records_out": ctx.total(
            "operator_rows_out_total", operator="selection"
        ),
        "dsms.operators.aggregation.groups_out": ctx.total(
            "operator_rows_out_total", operator="aggregation"
        ),
        "core.sampling_operator.admitted_share": (
            sampling("operator_tuples_admitted_total") / sampled if sampled else 0.0
        ),
        "core.sampling_operator.cleaning_phases": sampling("operator_cleaning_phases_total"),
        "core.sampling_operator.groups_created": sampling("operator_groups_created_total"),
        "core.sampling_operator.groups_evicted": sampling("operator_groups_evicted_total"),
        "core.sampling_operator.rows_out": sampling("operator_rows_out_total"),
        "core.group_tables.peak_groups": sampling("operator_peak_groups"),
        "dsms.vectorized.fallbacks": ctx.total("vectorize_fallback_total"),
    }


def probe_quality(ctx: Context) -> Values:
    quality = ctx.run.workload.quality(ctx.run.trace, ctx.run.rows)
    return {
        name: quality.get(name, 0.0)
        for name in (
            "algorithms.subset_sum.estimate_rel_err",
            "algorithms.subset_sum.sample_fill",
            "algorithms.heavy_hitters.rows_per_window",
        )
    }


# -- deployment layers ------------------------------------------------------


# Each of these runs only for the workload whose ``reference_metric`` it
# computes (see PROBES); every other workload reports 0 for the layer.


def _over_reference_ns(ctx: Context) -> float:
    """End-to-end minus the reference deployment, rounds interleaved."""
    return ctx.ns(ctx.steady("plain") - ctx.steady("reference"))


def probe_sharded(ctx: Context) -> Values:
    shards = ctx.run.drivers["plain"].shards
    loads = [ctx.total("stream_ingested_total", shard=shard) for shard in range(shards)]
    size = [0]

    def ship(state: None, chunk: Sequence[Any]) -> None:
        size[0] += len(pickle.dumps(list(chunk), pickle.HIGHEST_PROTOCOL))

    seconds = sliced(ctx, lambda: None, ship, ctx.run.chunks)
    return {
        "dsms.sharded.split_merge_ns_per_record": _over_reference_ns(ctx),
        "dsms.sharded.skew": max(loads) / (sum(loads) / shards),
        # What process transport would move; inline shards move nothing.
        "dsms.sharded.pickle_bytes_per_record": size[0] / ctx.repeats / ctx.run.n,
        "dsms.sharded.pickle_ns_per_record": ctx.ns(seconds),
    }


def probe_durability(ctx: Context) -> Values:
    driver = ctx.run.drivers["plain"]
    times = driver.commit_times
    gaps = [ctx.host.calibrated(a, b) * 1e3 for a, b in zip(times, times[1:])]
    return {
        "dsms.durability.overhead_ns_per_record": _over_reference_ns(ctx),
        "dsms.durability.commits": len(times),
        "dsms.durability.journal_bytes": driver.journal_bytes,
        "dsms.durability.commit_ms_p50": percentile(gaps, 0.5) if gaps else 0.0,
    }


def probe_serving(ctx: Context) -> Values:
    queries = ctx.run.workload.queries
    replays = ctx.run.drivers["plain"].metrics.value("serving_shared_replays_total")
    solo_runs = ctx.run.workload.reference.queries
    return {
        "serving.server.solo_ns_per_record": ctx.ns(ctx.steady("reference")) / solo_runs,
        "serving.server.ns_per_record_query": ctx.ns(ctx.steady("plain")) / queries,
        "serving.sharing.shared_replays": replays,
        "serving.sharing.replay_share": replays / (queries * len(ctx.run.chunks)),
    }


# -- runtime: what is left after the probed layers ---------------------------


def probe_runtime(ctx: Context) -> Values:
    run, values = ctx.run, ctx.values
    probed = sum(
        values.get(name) or 0.0
        for name in (
            "dsms.operators.selection.ns_per_record",
            "dsms.operators.aggregation.ns_per_record",
            "core.sampling_operator.ns_per_record",
            "dsms.vectorized.operators.selection_ns_per_record",
            "dsms.vectorized.operators.aggregation_ns_per_record",
            "dsms.vectorized.batch.from_records_ns_per_record",
            "dsms.sharded.split_merge_ns_per_record",
            "dsms.durability.overhead_ns_per_record",
        )
    )
    rounds, gaps = run.rounds, run.batch_gaps_ms()
    instances = run.workload.instances(run.drivers["plain"])
    checkpoint = timed_call(lambda: [pickle.dumps(gs.checkpoint()) for gs in instances], ctx.host)
    cpu = [t.cpu / ctx.host.slowdown(t.slices[0][0], t.slices[-1][1]) for t in rounds]
    ctx.detail["batch_gap_samples"] = len(gaps)
    return {
        "dsms.runtime.self_ns_per_record": ctx.ns(ctx.steady("plain")) - probed,
        "dsms.runtime.batch_ms_p50": percentile(gaps, 0.5),
        "dsms.runtime.batch_ms_p99": percentile(gaps, 0.99),
        "dsms.runtime.cpu_us_per_record": statistics.median(cpu) / run.n * 1e6,
        "dsms.runtime.checkpoint_ms": sum(checkpoint.calibrated()) * 1e3,
        "dsms.runtime.checkpoint_bytes": sum(len(blob) for blob in checkpoint.result),
    }


def probe_cost(ctx: Context) -> Values:
    base = ctx.steady("plain")
    accounts: Dict[str, int] = defaultdict(int)
    for model in ctx.run.workload.cost_models(ctx.run.drivers["cost"]):
        for account, cycles in model.accounts().items():
            accounts[account] += cycles
    cycles = sum(accounts.values()) / ctx.run.n
    measured = ctx.detail.get("operator_ns_per_record", {})
    ctx.detail["cost_nodes"] = {
        account: {
            "model_cycles_per_record": charged / ctx.run.n,
            "probe_ns_per_record": measured.get(account),
            "ns_per_model_kcycle": (
                measured[account] / (charged / ctx.run.n) * 1e3
                if measured.get(account) and charged
                else None
            ),
        }
        for account, charged in sorted(accounts.items())
    }
    return {
        "dsms.cost.model_cycles_per_record": cycles,
        "dsms.cost.ns_per_model_kcycle": ctx.ns(base) / cycles * 1e3,
        "dsms.cost.charge_overhead_pct": (ctx.steady("cost") / base - 1.0) * 100.0,
    }


def probe_profile(ctx: Context) -> Values:
    overhead = 0.0  # a deployment without ``profile=True`` pays nothing for it
    if "profile" in ctx.run.passes:
        overhead = (ctx.steady("profile") / ctx.steady("plain") - 1.0) * 100.0
    return {"obs.metrics.profile_overhead_pct": overhead}


def probe_ledger(ctx: Context) -> Values:
    return {
        "ledger.calib_ms": statistics.median(ctx.host.costs) * 1e3,
        "ledger.calib_spread": ctx.host.spread(),
        "ledger.trace_overhead_pct": (ctx.steady("traced") / ctx.steady("plain") - 1.0) * 100.0,
    }


class Probe(NamedTuple):
    layer: str  # names the span, ``probe.<layer>``
    fn: Callable[[Context], Values]
    #: the probe owns every per-layer metric that starts with one of these
    prefixes: Tuple[str, ...]
    #: set: run only for the workload that names this as its reference metric
    only: Optional[str] = None

    @property
    def owned(self) -> List[str]:
        return [name for name in PER_LAYER if name.startswith(self.prefixes)]


#: in run order: ``probe_runtime`` and ``probe_cost`` read what the operator
#: and deployment probes found
PROBES = [
    Probe("streams.traces", probe_traces, ("streams.traces.", "dsms.parser.")),
    Probe("streams.persistence", probe_persistence, ("streams.persistence.",)),
    Probe("streams.sources", probe_sources, ("streams.sources.",)),
    Probe("dsms.ring_buffer", probe_ring, ("dsms.ring_buffer.",)),
    Probe("dsms.runtime.admit", probe_admit, ("dsms.runtime.admit",)),
    Probe(
        "operators",
        probe_operators,
        (
            "dsms.operators.selection.ns",
            "dsms.operators.aggregation.ns",
            "core.sampling_operator.ns",
            "core.sampling_operator.flush",
            "dsms.vectorized.operators.",
            "dsms.vectorized.batch.",
        ),
    ),
    Probe(
        "operators.counts",
        probe_operator_counts,
        (
            "dsms.operators.selection.records",
            "dsms.operators.aggregation.groups",
            "core.sampling_operator.admitted",
            "core.sampling_operator.cleaning",
            "core.sampling_operator.groups",
            "core.sampling_operator.rows",
            "core.group_tables.",
            "dsms.vectorized.fallbacks",
        ),
    ),
    Probe("algorithms", probe_quality, ("algorithms.",)),
    Probe(
        "dsms.sharded", probe_sharded, ("dsms.sharded.",),
        only="dsms.sharded.split_merge_ns_per_record",
    ),
    Probe(
        "dsms.durability", probe_durability, ("dsms.durability.",),
        only="dsms.durability.overhead_ns_per_record",
    ),
    Probe("serving", probe_serving, ("serving.",), only="serving.server.solo_ns_per_record"),
    Probe(
        "dsms.runtime",
        probe_runtime,
        ("dsms.runtime.self", "dsms.runtime.batch", "dsms.runtime.cpu", "dsms.runtime.checkpoint"),
    ),
    Probe("dsms.cost", probe_cost, ("dsms.cost.",)),
    Probe("obs.metrics", probe_profile, ("obs.metrics.",)),
    Probe("ledger", probe_ledger, ("ledger.",)),
]


def run_all(ctx: Context) -> Tuple[Values, Dict[str, str], Dict[str, Any]]:
    """Every probe under its own span; a probe that raises nulls only
    the metrics it owns."""
    ctx.values, ctx.detail = {}, {}
    errors: Dict[str, str] = {}
    run = ctx.run
    for probe in PROBES:
        with run.spans.span(f"probe.{probe.layer}", run.root, run.workload.name):
            if probe.only not in (None, run.workload.reference_metric):
                found = dict.fromkeys(probe.owned, 0.0)
            else:
                try:
                    found = probe.fn(ctx)
                except Exception as exc:  # a probe must never abort the ledger
                    found = dict.fromkeys(probe.owned)
                    errors[probe.layer] = f"{type(exc).__name__}: {exc}"
        if set(found) != set(probe.owned):
            raise AssertionError(
                f"probe {probe.layer} reported {sorted(found)}, owns {probe.owned}"
            )
        ctx.values.update(found)
    return ctx.values, errors, ctx.detail
