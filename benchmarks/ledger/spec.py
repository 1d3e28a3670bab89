"""Names, units and directions of every ledger metric.

``BENCHMARK.json`` at the repo root carries the same names; the self-test
checks that the two agree.  ``moves`` says which end-to-end metric, on
which workload, a per-layer metric is expected to move (README.md has
the full interaction rules).
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class Metric(NamedTuple):
    unit: str
    better: str
    #: end-to-end: share of the parent's median it may worsen by;
    #: per-layer metrics carry no bound
    bound: float = 0.0
    moves: str = ""


END_TO_END: Dict[str, Metric] = {
    "records_per_s": Metric("rec/s", "higher", 0.15),
    "py_calls_per_record": Metric("count", "lower", 0.06),
    "peak_alloc_mb": Metric("MiB", "lower", 0.15),
    "setup_s": Metric("s", "lower", 0.25),
    "failed_share": Metric("fraction", "lower", 0.0),
}

_SAMPLING = "records_per_s, py_calls_per_record on ss_steady, ss_durable, hh_bursty"
_SCAN = "records_per_s on scan_vec"
_SHARDS = "records_per_s on agg_shards"
_DURABLE = "records_per_s on ss_durable"
_SERVE = "records_per_s on serve_shared"
_QUALITY = "failed_share (feeds the output check)"
_INFO = "informational"

PER_LAYER: Dict[str, Metric] = {
    "streams.traces.gen_ns_per_record": Metric("ns", "lower", moves="setup_s on all"),
    "streams.persistence.decode_ns_per_record": Metric("ns", "lower", moves=_INFO),
    "streams.persistence.bytes_per_record": Metric("B", "lower", moves=_INFO),
    "streams.sources.resilient_ns_per_record": Metric("ns", "lower", moves=_INFO),
    "streams.sources.quarantined": Metric("count", "lower", moves=_INFO),
    "dsms.parser.plan_ms": Metric("ms", "lower", moves="setup_s on all"),
    "dsms.ring_buffer.ns_per_record": Metric("ns", "lower", moves=_SCAN),
    "dsms.ring_buffer.drops": Metric("count", "lower", moves="failed_share on all"),
    "dsms.ring_buffer.max_backlog": Metric("count", "lower", moves=_SCAN),
    "dsms.runtime.admit_ns_per_record": Metric("ns", "lower", moves=_SCAN),
    "dsms.runtime.self_ns_per_record": Metric(
        "ns", "lower", moves="records_per_s on scan_vec, ~25% of ss_steady"
    ),
    "dsms.runtime.batch_ms_p50": Metric("ms", "lower", moves="records_per_s on all"),
    "dsms.runtime.batch_ms_p99": Metric("ms", "lower", moves="window-close stall"),
    "dsms.runtime.cpu_us_per_record": Metric("us", "lower", moves="records_per_s on all"),
    "dsms.runtime.checkpoint_ms": Metric("ms", "lower", moves=_DURABLE),
    "dsms.runtime.checkpoint_bytes": Metric("B", "lower", moves=_DURABLE),
    "dsms.operators.selection.ns_per_record": Metric(
        "ns", "lower", moves="records_per_s on ss_steady (~22%), serve_shared"
    ),
    "dsms.operators.selection.records_in": Metric("count", "lower", moves=_INFO),
    "dsms.operators.selection.records_out": Metric("count", "lower", moves=_INFO),
    "dsms.operators.aggregation.ns_per_record": Metric("ns", "lower", moves=_SHARDS),
    "dsms.operators.aggregation.groups_out": Metric("count", "lower", moves=_INFO),
    "core.sampling_operator.ns_per_record": Metric("ns", "lower", moves=_SAMPLING),
    "core.sampling_operator.flush_ms": Metric("ms", "lower", moves=_SAMPLING),
    "core.sampling_operator.admitted_share": Metric("fraction", "lower", moves=_INFO),
    "core.sampling_operator.cleaning_phases": Metric("count", "lower", moves=_SAMPLING),
    "core.sampling_operator.groups_created": Metric("count", "lower", moves=_SAMPLING),
    "core.sampling_operator.groups_evicted": Metric("count", "lower", moves=_SAMPLING),
    "core.sampling_operator.rows_out": Metric("count", "higher", moves=_QUALITY),
    "core.group_tables.peak_groups": Metric(
        "count", "lower", moves="peak_alloc_mb on ss_steady, ss_durable, hh_bursty"
    ),
    "algorithms.subset_sum.estimate_rel_err": Metric("fraction", "lower", moves=_QUALITY),
    "algorithms.subset_sum.sample_fill": Metric("fraction", "higher", moves=_QUALITY),
    "algorithms.heavy_hitters.rows_per_window": Metric("count", "lower", moves=_QUALITY),
    "dsms.vectorized.batch.from_records_ns_per_record": Metric("ns", "lower", moves=_SCAN),
    "dsms.vectorized.operators.selection_ns_per_record": Metric("ns", "lower", moves=_SCAN),
    "dsms.vectorized.operators.aggregation_ns_per_record": Metric("ns", "lower", moves=_SCAN),
    "dsms.vectorized.fallbacks": Metric("count", "lower", moves=_SCAN),
    "dsms.sharded.split_merge_ns_per_record": Metric("ns", "lower", moves=_SHARDS),
    "dsms.sharded.skew": Metric("ratio", "lower", moves=_SHARDS),
    "dsms.sharded.pickle_bytes_per_record": Metric("B", "lower", moves=_INFO),
    "dsms.sharded.pickle_ns_per_record": Metric("ns", "lower", moves=_INFO),
    "dsms.durability.overhead_ns_per_record": Metric("ns", "lower", moves=_DURABLE),
    "dsms.durability.commits": Metric("count", "lower", moves=_DURABLE),
    "dsms.durability.journal_bytes": Metric("B", "lower", moves=_DURABLE),
    "dsms.durability.commit_ms_p50": Metric("ms", "lower", moves=_DURABLE),
    "serving.server.ns_per_record_query": Metric("ns", "lower", moves=_SERVE),
    "serving.server.solo_ns_per_record": Metric("ns", "lower", moves=_INFO),
    "serving.sharing.shared_replays": Metric("count", "higher", moves=_SERVE),
    "serving.sharing.replay_share": Metric("fraction", "higher", moves=_SERVE),
    "dsms.cost.model_cycles_per_record": Metric("cycles", "lower", moves=_INFO),
    "dsms.cost.ns_per_model_kcycle": Metric("ns", "lower", moves="model-vs-measured drift"),
    "dsms.cost.charge_overhead_pct": Metric("%", "lower", moves=_INFO),
    "obs.metrics.profile_overhead_pct": Metric("%", "lower", moves="ROADMAP item 5 budget"),
    "ledger.calib_ms": Metric("ms", "lower", moves="host speed, not the program"),
    "ledger.calib_spread": Metric("ratio", "lower", moves="host speed, not the program"),
    "ledger.trace_overhead_pct": Metric("%", "lower", moves="harness overhead"),
}
