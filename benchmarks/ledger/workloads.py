"""The six ledger workloads, driven through public API only.

Each workload names the feed it reads, builds a fresh driver per round
(``build``), consumes a record iterator (``run``), and exposes what the
harness needs to verify and attribute the run: canonical output rows,
the metric registries and cost models behind the driver, and the serial
instances whose operators do the per-record work (``probe_instances``).
``reference`` is the workload whose rows are the oracle for this one.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from benchmarks.ledger.measure import BATCH
from repro.algorithms.bindings import (
    HEAVY_HITTERS_QUERY,
    SUBSET_SUM_QUERY,
    heavy_hitters_library,
    subset_sum_library,
)
from repro.dsms.cost import CostModel
from repro.dsms.durability import DurableRunner
from repro.dsms.runtime import Gigascope
from repro.dsms.sharded import ShardedGigascope, canonical_rows
from repro.serving.server import StandingQueryEngine, drive
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed

Rows = Dict[str, List[Tuple[Any, ...]]]


def _values(records: Sequence[Record]) -> List[Tuple[Any, ...]]:
    """Rows in emission order, which every serial deployment repeats."""
    return [record.values for record in records]

FEEDS = {"steady": data_center_feed, "bursty": research_center_feed}
#: long enough that every feed yields the records asked for at rate_scale 0.1
_FEED_SECONDS = 100_000


def make_trace(feed: str, records: int, seed: int) -> List[Record]:
    """The first ``records`` records of a paper feed (PAPER.md §7)."""
    config = TraceConfig(duration_seconds=_FEED_SECONDS, rate_scale=0.1, seed=seed)
    return list(islice(FEEDS[feed](config), records))


class Workload:
    name = ""
    why = ""
    feed = "steady"
    #: records per round at ``--scale 1``
    records = 0
    #: oracle workload, or None when ``check`` computes the truth itself
    reference: Optional["Workload"] = None
    #: per-layer metric computed from the reference's run time, if any
    reference_metric: Optional[str] = None
    #: the allocation census reads this many times a round's records
    peak_trace_factor = 1
    #: whether ``build(profile=True)`` means anything for this deployment
    supports_profile = False

    def build(self, cost: bool = False, profile: bool = False) -> Any:
        raise NotImplementedError

    def run(self, driver: Any, source: Iterator[Record]) -> int:
        raise NotImplementedError

    def instances(self, driver: Any) -> List[Gigascope]:
        """The serial instances behind the driver that can be reached
        through public API (conservation identity, checkpoints)."""
        raise NotImplementedError

    def accounts(self, driver: Any) -> List[Tuple[Any, Dict[str, Any]]]:
        """(metrics registry, run_report) of everything behind the driver."""
        return [(gs.metrics, gs.run_report()) for gs in self.instances(driver)]

    def cost_models(self, driver: Any) -> List[CostModel]:
        return [gs.cost for gs in self.instances(driver)]

    def rows(self, driver: Any) -> Rows:
        raise NotImplementedError

    def progress(self, driver: Any) -> int:
        """Rows emitted so far (recorded at batch boundaries when traced)."""
        return sum(
            len(handle.results)
            for gs in self.instances(driver)
            for handle in gs.query_handles()
        )

    def probe_instances(self) -> List[Gigascope]:
        """Fresh serial instances whose operators together do this
        workload's per-record operator work."""
        raise NotImplementedError

    def check(self, trace: Sequence[Record], rows: Rows, ref_rows: Optional[Rows]) -> List[str]:
        """Problems with one run's rows; empty when the output is correct."""
        if ref_rows != rows:
            return [f"{self.name}: rows differ from {self.reference.name}"]
        return []

    def quality(self, trace: Sequence[Record], rows: Rows) -> Dict[str, float]:
        """Sample-quality figures for the per-layer table."""
        return {}


def lost_records(workload: Workload, driver: Any, offered: int, returned: int) -> int:
    """Records of one run that the conservation identity does not cover.

    ``records == ingested + shed + quarantined + quota_shed +
    poison_skipped`` must hold on every registry, everything but
    ``ingested`` is a refusal, and ring drops are losses after admission.
    """
    worst = abs(offered - returned)
    for registry, report in workload.accounts(driver):
        ingested = registry.total("stream_ingested_total")
        refused = sum(
            registry.total(name)
            for name in (
                "stream_shed_total",
                "stream_quarantined_total",
                "stream_quota_shed_total",
                "serve_poison_skipped_total",
            )
        )
        if registry.total("stream_records_total") != ingested + refused:
            return offered
        dropped = sum(stream["drops"] for stream in report["streams"].values())
        worst = max(worst, int(offered - ingested + dropped))
    return min(offered, worst)


class Serial(Workload):
    """Queries on one serial ``Gigascope``."""

    vectorize = False
    #: (name, text, keep_results)
    queries: Tuple[Tuple[str, str, bool], ...] = ()

    def libraries(self) -> List[Any]:
        return []

    def build(self, cost: bool = False, profile: bool = False) -> Gigascope:
        gs = Gigascope(
            cost_model=CostModel() if cost else None,
            profile=profile,
            vectorize=self.vectorize,
        )
        gs.register_stream(TCP_SCHEMA)
        for library in self.libraries():
            gs.use_stateful_library(library)
        for name, text, keep in self.queries:
            gs.add_query(text, name=name, keep_results=keep)
        return gs

    def run(self, driver: Gigascope, source: Iterator[Record]) -> int:
        return driver.run(source, batch_size=BATCH)

    def instances(self, driver: Gigascope) -> List[Gigascope]:
        return [driver]

    #: ``canonical_rows`` where the rows are compared with a sharded run
    ordered = staticmethod(_values)

    def rows(self, driver: Gigascope) -> Rows:
        out: Rows = {}
        for handle in driver.query_handles():
            if handle.keep_results:
                out[handle.name] = self.ordered(handle.results)
            elif not handle.name.endswith("__lowsel"):
                # Rows of an unretained query are gone; its count is not.
                emitted = driver.metrics.total("operator_rows_out_total", query=handle.name)
                out[handle.name] = [(int(emitted),)]
        return out

    def probe_instances(self) -> List[Gigascope]:
        return [self.build()]

    supports_profile = True


class SsSteady(Serial):
    name = "ss_steady"
    why = (
        "The paper's subset-sum sampler on the steady tap: one group per packet,"
        " so the sampling operator's admit and insert path does most of the work."
    )
    records = 24_000
    window, target = 2, 1000
    queries = (("ss", SUBSET_SUM_QUERY.format(window=2, target=1000), True),)

    def libraries(self) -> List[Any]:
        return [subset_sum_library(relax_factor=10.0)]

    def quality(self, trace: Sequence[Record], rows: Rows) -> Dict[str, float]:
        exact: Dict[int, int] = defaultdict(int)
        for record in trace:
            exact[record.values[0] // self.window] += record.values[4]
        estimate: Dict[int, float] = defaultdict(float)
        count: Dict[int, int] = defaultdict(int)
        for tb, _src, _dst, weight in rows["ss"]:
            estimate[tb] += weight
            count[tb] += 1
        return {
            "algorithms.subset_sum.estimate_rel_err": max(
                abs(estimate[tb] - total) / total for tb, total in exact.items()
            ),
            "algorithms.subset_sum.sample_fill": (
                sum(count.values()) / len(exact) / self.target
            ),
        }

    def check(self, trace: Sequence[Record], rows: Rows, ref_rows: Optional[Rows]) -> List[str]:
        err = self.quality(trace, rows)["algorithms.subset_sum.estimate_rel_err"]
        if err > 0.05:
            return [f"{self.name}: a window's estimated sum(len) is off by {err:.3f} > 0.05"]
        return []


class HhBursty(Serial):
    name = "hh_bursty"
    why = (
        "The same operator used the other way on the bursty tap: every tuple"
        " admitted, groups updated, a whole-table cleaning every 100 records."
    )
    feed = "bursty"
    records = 20_000
    window, bucket = 20, 100
    queries = (("hh", HEAVY_HITTERS_QUERY.format(window=20, bucket=100), True),)

    def libraries(self) -> List[Any]:
        return [heavy_hitters_library(bucket_width=self.bucket)]

    def quality(self, trace: Sequence[Record], rows: Rows) -> Dict[str, float]:
        windows = {row[0] for row in rows["hh"]}
        return {"algorithms.heavy_hitters.rows_per_window": len(rows["hh"]) / len(windows)}

    def check(self, trace: Sequence[Record], rows: Rows, ref_rows: Optional[Rows]) -> List[str]:
        size: Dict[int, int] = defaultdict(int)
        exact: Dict[Tuple[int, Any], int] = defaultdict(int)
        for record in trace:
            tb = record.values[0] // self.window
            size[tb] += 1
            exact[tb, record.values[2]] += 1
        reported = {(row[0], row[1]) for row in rows["hh"]}
        # Lossy counting never misses a key whose count exceeds the
        # number of buckets its window spans.
        missed = [
            key
            for key, count in exact.items()
            if count > size[key[0]] / self.bucket + 1 and key not in reported
        ]
        if missed:
            return [f"{self.name}: {len(missed)} heavy srcIP missing, e.g. {missed[0]}"]
        return []


class ScanTuple(Serial):
    name = "scan_tuple"
    queries = (
        ("sel", "SELECT time, srcIP, len FROM TCP WHERE len > 200", False),
        ("agg", "SELECT tb, sum(len), count(*) FROM TCP GROUP BY time/2 as tb", True),
    )


class ScanVec(ScanTuple):
    name = "scan_vec"
    why = (
        "A selection and a windowed aggregate on the columnar engine: operators"
        " are cheap, so admission, the ring and record-to-batch conversion show."
        " Bypasses the sampling operator."
    )
    records = 80_000
    vectorize = True
    reference = ScanTuple()


_AGG_TEXT = "SELECT tb, srcIP, sum(len), count(*) FROM TCP GROUP BY time/2 as tb, srcIP"


class AggSerial(Serial):
    name = "agg_serial"
    queries = (("agg", _AGG_TEXT, True),)
    ordered = staticmethod(canonical_rows)


class AggShards(Workload):
    name = "agg_shards"
    why = (
        "A grouped aggregate on two inline shards: SPLIT hashing, per-shard"
        " instances and MERGE in one process, against the serial run of the"
        " same query."
    )
    records = 30_000
    reference = AggSerial()
    reference_metric = "dsms.sharded.split_merge_ns_per_record"

    def build(self, cost: bool = False, profile: bool = False) -> ShardedGigascope:
        sh = ShardedGigascope(shards=2, cost_model=CostModel() if cost else None)
        sh.register_stream(TCP_SCHEMA)
        sh.add_query(_AGG_TEXT, name="agg")
        return sh

    def run(self, driver: ShardedGigascope, source: Iterator[Record]) -> int:
        return driver.run(source, batch_size=BATCH)

    def instances(self, driver: ShardedGigascope) -> List[Gigascope]:
        return []  # shard instances are not public

    def accounts(self, driver: ShardedGigascope) -> List[Tuple[Any, Dict[str, Any]]]:
        # Shard series are folded into the parent registry after a run.
        return [(driver.metrics, driver.run_report())]

    def cost_models(self, driver: ShardedGigascope) -> List[CostModel]:
        return [driver.cost]

    def rows(self, driver: ShardedGigascope) -> Rows:
        return {"agg": canonical_rows(driver.results("agg"))}

    def progress(self, driver: ShardedGigascope) -> int:
        return len(driver.results("agg"))

    def probe_instances(self) -> List[Gigascope]:
        return [self.reference.build()]


@dataclass
class Durable:
    """A ``DurableRunner`` plus what the harness observes about its journal."""

    runner: DurableRunner
    commit_times: List[float] = field(default_factory=list)
    journal_bytes: int = 0


class SsDurable(SsSteady):
    name = "ss_durable"
    why = (
        "ss_steady under DurableRunner with a fresh fsync'd journal per round:"
        " the difference is checkpoint pickling, journal append and fsync."
    )
    reference = SsSteady()
    reference_metric = "dsms.durability.overhead_ns_per_record"
    # An interval commit copies the group table at whatever point of the
    # cleaning cycle it lands on, so the allocation peak of a run with two
    # interval commits is a lottery over seeds (measured: 1.8 or 3.0 MiB).
    # Three times the records make seven of them, whose maximum is steady.
    peak_trace_factor = 3

    def __init__(self, journal_dir: str) -> None:
        self.journal_dir = journal_dir
        self._round = 0

    def build(self, cost: bool = False, profile: bool = False) -> Durable:
        os.makedirs(self.journal_dir, exist_ok=True)
        self._round += 1
        path = os.path.join(self.journal_dir, f"round-{self._round}.journal")
        commits: List[float] = []
        runner = DurableRunner(
            super().build(cost=cost, profile=profile),
            path,
            batch_size=BATCH,
            commit_interval=8,
            on_commit=lambda consumed, kind: commits.append(time.perf_counter()),
        )
        return Durable(runner, commits)

    def run(self, driver: Durable, source: Iterator[Record]) -> int:
        path = driver.runner.journal_path
        try:
            return driver.runner.run(source)
        finally:
            driver.journal_bytes = os.path.getsize(path)
            os.remove(path)

    def instances(self, driver: Durable) -> List[Gigascope]:
        return [driver.runner.instance]

    def rows(self, driver: Durable) -> Rows:
        return super().rows(driver.runner.instance)

    def probe_instances(self) -> List[Gigascope]:
        return [SsSteady.build(self)]

    def check(self, trace: Sequence[Record], rows: Rows, ref_rows: Optional[Rows]) -> List[str]:
        return Workload.check(self, trace, rows, ref_rows) + super().check(trace, rows, None)


_CUTS = tuple(range(200, 1700, 200))
_REPLICAS = 8
_SERVE_TEXTS = tuple(
    f"SELECT time, srcIP, destIP, len FROM TCP WHERE len > {cut}" for cut in _CUTS
)


def _serving_instance(cost: bool = False) -> Gigascope:
    gs = Gigascope(cost_model=CostModel() if cost else None)
    gs.register_stream(TCP_SCHEMA)
    return gs


class ServeSolo(Workload):
    """Each distinct standing query on a private instance, one after another."""

    name = "serve_solo"
    queries = len(_SERVE_TEXTS)

    def build(self, cost: bool = False, profile: bool = False) -> List[Gigascope]:
        drivers = []
        for text in _SERVE_TEXTS:
            gs = _serving_instance(cost)
            gs.add_query(text, name="q")
            drivers.append(gs)
        return drivers

    def run(self, driver: List[Gigascope], source: Iterator[Record]) -> int:
        records = list(source)
        for gs in driver:
            consumed = gs.run(iter(records), batch_size=BATCH)
        return consumed

    def instances(self, driver: List[Gigascope]) -> List[Gigascope]:
        return driver

    def rows(self, driver: List[Gigascope]) -> Rows:
        return {
            text: _values(gs.results("q")) for text, gs in zip(_SERVE_TEXTS, driver)
        }

    def probe_instances(self) -> List[Gigascope]:
        return self.build()


class ServeShared(Workload):
    name = "serve_shared"
    why = (
        "64 standing selections (8 signatures x 8 replicas) on one bursty feed:"
        " one prefilter scan per signature group, 56 replays per batch."
        " Sampling core and shards idle."
    )
    feed = "bursty"
    records = 16_000
    reference = ServeSolo()
    reference_metric = "serving.server.solo_ns_per_record"
    queries = len(_SERVE_TEXTS) * _REPLICAS

    def build(self, cost: bool = False, profile: bool = False) -> StandingQueryEngine:
        engine = StandingQueryEngine(lambda: _serving_instance(cost))
        for text in _SERVE_TEXTS * _REPLICAS:
            engine.register(text, name="q")
        return engine

    def run(self, driver: StandingQueryEngine, source: Iterator[Record]) -> int:
        return drive(driver, source, batch_size=BATCH)

    def instances(self, driver: StandingQueryEngine) -> List[Gigascope]:
        return [sq.instance for sq in driver.queries()]

    def rows(self, driver: StandingQueryEngine) -> Rows:
        return {sq.qid: _values(sq.results) for sq in driver.queries()}

    def probe_instances(self) -> List[Gigascope]:
        return self.reference.build()  # what the eight group leaders scan

    def check(self, trace: Sequence[Record], rows: Rows, ref_rows: Optional[Rows]) -> List[str]:
        texts = _SERVE_TEXTS * _REPLICAS  # registration order, which rows keeps
        wrong = [qid for qid, text in zip(rows, texts) if rows[qid] != ref_rows[text]]
        if len(rows) != len(texts) or wrong:
            return [f"{self.name}: {len(wrong)} of {len(rows)} queries differ from their solo run"]
        return []


def all_workloads(journal_dir: str) -> List[Workload]:
    return [
        SsSteady(),
        HhBursty(),
        ScanVec(),
        AggShards(),
        SsDurable(journal_dir),
        ServeShared(),
    ]
