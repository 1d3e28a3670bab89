"""Elastic rebalancing under adversarial skew: cost and honesty.

The paper's DDoS workload concentrates most traffic on one victim key.
Static hash sharding sends all of it to one shard; the elastic
rebalancer pins the hot key, migrates the cold tail's slots away, and —
when one key is simply too hot to migrate away from — degrades
gracefully by deterministically downsampling *only that key's* traffic
with shed-style cost accounting (``RebalancePolicy(curate=True)``).

Two entries land in ``BENCH_rebalance.json`` (shared emitter,
``benchmarks/_emit.py``):

* ``rebalanced_vs_static_hot_key`` — the rebalanced+curated run on an
  80%-hot-key workload.  The payload records the curated fraction
  explicitly: what the run saves comes from *bounded, accounted
  degradation of one key*, not from free parallelism.
* ``migration_only_exact`` — the honest flip side: with curation off,
  results stay byte-identical to static sharding (and serial), and the
  recorded ratio shows what exactness costs when the hot key cannot be
  split.

What gates (as in ``benchmarks/test_throughput.py``) is what the static
path's speed cannot move: the rebalanced run's own cost, in runs of the
perf ledger's calibration kernel per 1000 records, under a recorded
ceiling — and the counts that repeat exactly (plans, migrated groups,
pinned keys, curated records, byte identity).  The ratios to static
sharding are reported, not asserted: PRs 13-16 made the *static* path
3.7x faster and took the curated ratio from 2.75x to 1.8x without the
rebalanced run getting any slower.
"""

import os

from benchmarks._emit import ROUNDS, best_of, kernel_seconds, record_bench
from repro.dsms.rebalance import RebalancePolicy
from repro.dsms.sharded import ShardedGigascope, canonical_rows
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed
from repro.testing.faults import hot_key_stream
from repro.algorithms.bindings import SUBSET_SUM_QUERY, subset_sum_library

import pytest

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_rebalance.json")

SS_TEXT = SUBSET_SUM_QUERY.format(window=5, target=500).replace(
    "GROUP BY time/5 as tb, srcIP, destIP, uts",
    "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
)
AGG_TEXT = "SELECT tb, srcIP, sum(len), count(*) FROM TCP GROUP BY time/5 as tb, srcIP"

HOT_IP = 0x0A0A0A0A
HOT_FRACTION = 0.8
CURATE_KEEP = 0.0625  # keep 1 in 16 of the hot key's records
SHARDS = 4
BATCH = 256

#: Ceilings on a rebalanced run's cost, in calibration-kernel runs per
#: 1000 records — about 2.5x what the development host measures
#: (BENCH_rebalance.json, ``rebalanced_kernels_per_krecord``), which is
#: past its run-to-run spread and short of any real regression.
CEILING_KERNELS_PER_KRECORD = {
    "rebalanced_vs_static_hot_key": 90.0,
    "migration_only_exact": 500.0,
}
#: What the rebalancer does on this feed, exactly, run after run.
EXACT = {
    "rebalanced_vs_static_hot_key": {
        "migrated_groups": 523, "pinned_keys": 1, "curated_records": 10140,
    },
    "migration_only_exact": {"plans": 25, "migrated_groups": 3118},
}


def gate_rebalanced(name, n, static_seconds, rebalanced_seconds, kernel, report, **extra):
    """Record one static-vs-rebalanced comparison; hold the rebalanced
    side to its ceiling and the rebalancer's decisions to their recorded
    counts.  The ratio rides along as a reported number."""
    ceiling = CEILING_KERNELS_PER_KRECORD[name]
    cost = rebalanced_seconds / n * 1000 / kernel
    counts = {key: report[key] for key in EXACT[name]}
    record_bench(OUT_PATH, name, {
        "records": n,
        "hot_fraction": HOT_FRACTION,
        "shards": SHARDS,
        "static_seconds": round(static_seconds, 4),
        "rebalanced_seconds": round(rebalanced_seconds, 4),
        "kernel_us": round(kernel * 1e6, 1),
        "static_kernels_per_krecord": round(static_seconds / n * 1000 / kernel, 1),
        "rebalanced_kernels_per_krecord": round(cost, 1),
        "ceiling_kernels_per_krecord": ceiling,
        **counts,
        **extra,
    })
    assert counts == EXACT[name]
    assert cost <= ceiling, (rebalanced_seconds, kernel)


@pytest.fixture(scope="module")
def skewed_feed():
    recs = list(
        research_center_feed(TraceConfig(duration_seconds=60, rate_scale=0.02, seed=7))
    )
    return hot_key_stream(recs, "srcIP", HOT_IP, fraction=HOT_FRACTION)


def build(rebalance, keep_results=False):
    sh = ShardedGigascope(shards=SHARDS, rebalance=rebalance)
    sh.register_stream(TCP_SCHEMA)
    sh.use_stateful_library(subset_sum_library(relax_factor=10.0))
    sh.add_query(SS_TEXT, name="ss", keep_results=keep_results)
    sh.add_query(AGG_TEXT, name="agg", keep_results=keep_results)
    return sh


def curated_policy():
    return RebalancePolicy(
        check_interval=2,
        min_records=256,
        max_shards=SHARDS,
        curate=True,
        curate_threshold=0.5,
        curate_keep=CURATE_KEEP,
    )


def test_rebalanced_vs_static_hot_key(skewed_feed):
    """Rebalanced+curated against static hash sharding."""

    def static():
        build(None).run(iter(skewed_feed), batch_size=BATCH)

    def rebalanced():
        build(curated_policy()).run(iter(skewed_feed), batch_size=BATCH)

    kernel = kernel_seconds()
    static_seconds = best_of(static)
    rebalanced_seconds = best_of(rebalanced)
    kernel = min(kernel, kernel_seconds())

    # One instrumented run for the degradation accounting.
    sh = build(curated_policy())
    sh.run(iter(skewed_feed), batch_size=BATCH)
    report = sh.run_report()["rebalance"]
    n = len(skewed_feed)
    curated = report["curated_records"]
    assert report["curated_keys"] >= 1, "the hot key was never curated"
    # Every dropped record is accounted — nothing disappears silently.
    assert curated == int(
        sh.metrics.value("rebalance_curated_total", stream="TCP")
    )
    gate_rebalanced(
        "rebalanced_vs_static_hot_key", n, static_seconds, rebalanced_seconds,
        kernel, report,
        rounds=ROUNDS,
        static_records_per_second=round(n / static_seconds),
        rebalanced_records_per_second=round(n / rebalanced_seconds),
        speedup=round(static_seconds / rebalanced_seconds, 2),
        # Honest labeling: the win comes from bounded hot-key curation.
        curate_keep=CURATE_KEEP,
        curated_fraction=round(curated / n, 3),
    )


def test_migration_only_exact(skewed_feed):
    """Curation off: migration alone keeps results byte-identical."""
    kernel = kernel_seconds()
    static = build(None, keep_results=True)
    static_seconds = best_of(
        lambda: static.run(iter(skewed_feed), batch_size=BATCH), rounds=1
    )

    policy = RebalancePolicy(check_interval=2, min_records=256, max_shards=SHARDS)
    rebalanced = build(policy, keep_results=True)
    rebalanced_seconds = best_of(
        lambda: rebalanced.run(iter(skewed_feed), batch_size=BATCH), rounds=1
    )

    for name in ("ss", "agg"):
        assert canonical_rows(rebalanced.query(name).results) == canonical_rows(
            static.query(name).results
        ), f"query {name} diverged under migration-only rebalancing"
    report = rebalanced.run_report()["rebalance"]
    assert report["curated_records"] == 0
    gate_rebalanced(
        "migration_only_exact", len(skewed_feed), static_seconds,
        rebalanced_seconds, min(kernel, kernel_seconds()), report,
        ratio=round(static_seconds / rebalanced_seconds, 2),
        byte_identical=True,
    )
