"""One ledger run: set up, interleaved timed rounds, verification, metrics.

``run_ledger`` is the only entry point.  With ``trace=False`` it makes
the untraced pass and returns the end-to-end metrics; with ``trace=True``
it makes the traced pass (spans, boundary counts, layer probes) and
returns the per-layer metrics plus the span log.  The load is closed-loop:
one client, one process, one thread, every driver fed 1024-record batches.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.ledger import probes
from benchmarks.ledger.measure import (
    BATCH,
    NOMINAL_KERNEL_S,
    Host,
    Spans,
    Timed,
    chunked,
    count_calls,
    peak_alloc_mib,
    percentile,
    steady_seconds,
    summary,
    timed_call,
    timed_pass,
)
from benchmarks.ledger.spec import END_TO_END, PER_LAYER
from benchmarks.ledger.workloads import Workload, all_workloads, lost_records, make_trace

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: timed rounds per workload, whatever ``--seconds`` says
MIN_ROUNDS = 7
#: a census pass reads at most this many records
CENSUS_RECORDS = 30_000
#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: least passes of every variant, and repeats of every probe, in the traced pass
REPEATS = 5

Traces = Dict[Tuple[str, int], Tuple[List[Any], List[Timed]]]


def _digest(rows: Dict[str, List[Tuple[Any, ...]]]) -> int:
    """Equal for equal rows; only ever compared within one process."""
    return hash(tuple((name, tuple(values)) for name, values in rows.items()))


class WorkloadRun:
    """Everything measured about one workload in one ledger run."""

    def __init__(
        self, workload: Workload, records: int, seed: int, host: Host, spans: Spans, trace: bool
    ) -> None:
        self.workload = workload
        self.n = records
        self.seed = seed
        self.host = host
        self.spans = spans
        self.root = spans.add(workload.name, float("inf"), 0.0, None, workload.name)
        self.trace: List[Any] = []
        self.chunks: List[Any] = []
        #: the parts of each of the ``SETUPS`` set-ups
        self.gen: List[Timed] = []
        self.build: List[Timed] = []
        self.warm: List[Timed] = []
        #: timed passes per variant.  The traced pass interleaves the
        #: workload's plain rounds with its traced rounds, its reference
        #: deployment and its cost-model/profile builds, so that they all
        #: sample the same stretch of host time.
        self.passes: Dict[str, List[Timed]] = {"plain": []}
        #: the untraced pass spreads its two census passes between the
        #: timed rounds, which stretches the rounds over more host time
        self.census: List[Callable[[], None]] = []
        if trace:
            self.passes["traced"] = []
            if workload.reference_metric is not None:
                self.passes["reference"] = []
            self.passes["cost"] = []
            if workload.supports_profile:
                self.passes["profile"] = []
        else:
            self.census = [self._census_calls, self._census_peak]
        self.census_passes = len(self.census)
        #: the last driver of each variant, for counts
        self.drivers: Dict[str, Any] = {}
        self.rows: Any = None
        self.digest = 0
        self.calls_per_record = self.peak_mib = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _span(self, name: str, timed: Timed, **counts: Any) -> int:
        return self.spans.add(
            name, timed.slices[0][0], timed.slices[-1][1], self.root, self.workload.name, **counts
        )

    # -- set-up -------------------------------------------------------------

    def set_up(self, traces: Traces) -> None:
        """Materialise the trace, build an instance, run the warm-up
        round — ``SETUPS`` times over, so that ``setup_s`` is a median.

        A trace shared with an earlier workload is generated once and
        its time is attributed to every workload that uses it.
        """
        w, key = self.workload, (self.workload.feed, self.n)
        if key not in traces:
            gen = [
                timed_call(lambda: make_trace(w.feed, self.n, self.seed), self.host)
                for _ in range(SETUPS)
            ]
            for timed in gen:
                self._span("setup.trace", timed)
            traces[key] = (gen[-1].result, gen)
        self.trace, self.gen = traces[key]
        self.chunks = chunked(self.trace)
        for _ in range(SETUPS):
            self.build.append(timed_call(w.build, self.host))
            self._span("setup.plan", self.build[-1])
            driver, self.build[-1].result = self.build[-1].result, None
            self.warm.append(
                timed_pass(lambda source: w.run(driver, source), self.chunks, self.host)
            )
            self._span("warmup", self.warm[-1])
            if self.rows is None:
                self.rows = w.rows(driver)
                self.digest = _digest(self.rows)
            self._account(driver, self.warm[-1].result)
        # Only the first warm-up ran cold; the later ones are timed rounds
        # like any other.
        self.passes["plain"].extend(self.warm[1:])

    @property
    def setup_samples(self) -> List[float]:
        """Calibrated seconds of each set-up: trace + plan + warm-up round."""
        return [
            sum(sum(part.calibrated()) for part in parts)
            for parts in zip(self.gen, self.build, self.warm)
        ]

    # -- rounds -------------------------------------------------------------

    def _account(self, driver: Any, returned: int) -> None:
        """Count one run's records as attempted, and as failed those the
        conservation identity loses — or all of them when its rows differ
        from the first run's."""
        self.attempted += self.n
        if _digest(self.workload.rows(driver)) != self.digest:
            self.problems.append(f"{self.workload.name}: rows differ between rounds")
            self.failed += self.n
        else:
            self.failed += lost_records(self.workload, driver, self.n, returned)

    def round(self, seconds: float) -> None:
        """One timed round of the variant that has had the fewest, on a
        fresh instance; only ``run`` is timed."""
        w = self.workload
        kind = min(self.passes, key=lambda name: len(self.passes[name]))
        subject = w.reference if kind == "reference" else w
        driver = subject.build(cost=kind == "cost", profile=kind == "profile")
        progress: List[int] = []
        hook = (lambda: progress.append(w.progress(driver))) if kind == "traced" else None
        timed = timed_pass(lambda source: subject.run(driver, source), self.chunks, self.host, hook)
        self.passes[kind].append(timed)
        if "traced" in self.passes:  # only the probes look at drivers again
            self.drivers[kind] = driver
        if kind == "reference":
            return
        self._account(driver, timed.result)
        if kind == "traced":
            span = self._span("round", timed, records=self.n, rows=progress[-1])
            # Slices: the lead-in, one per batch, the final flush.
            for k, chunk in enumerate(self.chunks):
                self.spans.add(
                    "batch", *timed.slices[k + 1], span, w.name,
                    records=len(chunk), rows=progress[k + 1],
                )
            self.spans.add("finish", *timed.slices[-1], span, w.name)
        # The next census pass is due once its share of the budget is spent.
        done = self.census_passes - len(self.census)
        if self.census and self._spent() >= seconds * (done + 1) / (self.census_passes + 1):
            self.census.pop(0)()

    def _spent(self) -> float:
        return sum(t.wall for passes in self.passes.values() for t in passes)

    def wants_round(self, seconds: float) -> bool:
        fewest = min(len(passes) for passes in self.passes.values())
        if fewest < (MIN_ROUNDS if len(self.passes) == 1 else REPEATS):
            return True
        return self._spent() < seconds

    # -- census (untraced pass) ---------------------------------------------

    def _census_calls(self) -> None:
        w, records = self.workload, self.trace[:CENSUS_RECORDS]
        driver = w.build()
        with self.spans.span("census.calls", self.root, w.name):
            calls, returned = count_calls(lambda: w.run(driver, iter(records)))
        self.calls_per_record = calls / len(records)
        self.attempted += len(records)
        self.failed += lost_records(w, driver, len(records), returned)

    def _census_peak(self) -> None:
        w = self.workload
        records = self.trace[:CENSUS_RECORDS]
        if w.peak_trace_factor > 1:
            records = make_trace(w.feed, len(records) * w.peak_trace_factor, self.seed)
        drivers = []

        def build_and_run() -> int:  # the ring and the plan count as engine state
            drivers.append(w.build())
            return w.run(drivers[0], iter(records))

        with self.spans.span("census.peak", self.root, w.name):
            self.peak_mib, returned = peak_alloc_mib(build_and_run)
        self.attempted += len(records)
        self.failed += lost_records(w, drivers[0], len(records), returned)

    # -- verification -------------------------------------------------------

    def verify(self) -> None:
        """Check the rows against the oracle; a failed check fails every
        record attempted."""
        w = self.workload
        ref_rows = None
        with self.spans.span("check", self.root, w.name):
            if w.reference is not None:
                driver = self.drivers.get("reference")
                if driver is None:
                    driver = w.reference.build()
                    w.reference.run(driver, iter(self.trace))
                ref_rows = w.reference.rows(driver)
            found = w.check(self.trace, self.rows, ref_rows)
        if found:
            self.problems.extend(found)
            self.failed = self.attempted

    # -- the two passes -----------------------------------------------------

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        """The five end-to-end metrics, each with the samples behind it."""
        while self.census:
            self.census.pop(0)()
        plain = self.passes["plain"]
        values = {
            "records_per_s": (
                self.n / steady_seconds(plain),
                [self.n / steady_seconds(plain[group::3]) for group in range(3)],
            ),
            "py_calls_per_record": (self.calls_per_record, None),
            "peak_alloc_mb": (self.peak_mib, None),
            "setup_s": (statistics.median(self.setup_samples), self.setup_samples),
            "failed_share": (self.failed / self.attempted, None),
        }
        return {
            name: {
                "value": value,
                "unit": END_TO_END[name].unit,
                "samples": samples if samples is not None else [value],
            }
            for name, (value, samples) in values.items()
        }

    def per_layer(
        self, scratch: str
    ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, str], Dict[str, Any]]:
        """Run every layer probe; returns (metrics, probe errors, detail)."""
        context = probes.Context(run=self, host=self.host, scratch=scratch, repeats=REPEATS)
        values, errors, detail = probes.run_all(context)
        metrics = {
            name: {"value": values.get(name), "unit": PER_LAYER[name].unit}
            for name in PER_LAYER
        }
        return metrics, errors, detail

    @property
    def rounds(self) -> List[Timed]:
        """Every timed round of the workload itself, traced or not."""
        return self.passes["plain"] + self.passes.get("traced", [])

    def batch_gaps_ms(self) -> List[float]:
        """Calibrated ms between pulls of consecutive chunks, all rounds pooled."""
        return [gap * 1e3 for t in self.rounds for gap in t.calibrated()[1:-1]]

    def report(self, metrics: Dict[str, Any]) -> Dict[str, Any]:
        rounds, batches = self.rounds, self.batch_gaps_ms()
        return {
            "why": self.workload.why,
            "records": self.n,
            "rounds": len(rounds),
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "round_wall_s": summary([t.wall for t in rounds]),
            "round_slowdown": summary(
                [self.host.slowdown(t.slices[0][0], t.slices[-1][1]) for t in rounds]
            ),
            "batch_ms": dict(summary(batches), p99=percentile(batches, 0.99)),
            "metrics": metrics,
        }


def machine_stamp(seed: int, scale: float, seconds: float, host: Host) -> Dict[str, Any]:
    def git(*args: str) -> str:
        try:
            done = subprocess.run(
                ("git",) + args, cwd=HERE, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    import numpy

    kernel_ms = [cost * 1e3 for cost in host.costs]
    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [],
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "batch_size": BATCH,
        "argv": sys.argv[1:],
        "calib_nominal_ms": NOMINAL_KERNEL_S * 1e3,
        "calib_ms": summary(kernel_ms),
        "calib_spread": host.spread(),
        # the calibration series, thinned to one kernel sample in sixteen
        "calib_series_ms": [round(ms, 4) for ms in kernel_ms[::16]],
    }


def run_ledger(
    names: Optional[Sequence[str]] = None,
    *,
    seed: int = 20050614,
    seconds: float = 6.0,
    trace: bool = False,
    scale: float = 1.0,
    out_dir: str = OUT_DIR,
) -> Dict[str, Any]:
    """Run the named workloads (default: all six) and return the result
    document; the traced pass also returns the span log under ``spans``."""
    os.makedirs(out_dir, exist_ok=True)
    workloads = all_workloads(os.path.join(out_dir, "journal"))
    if names:
        known = {w.name: w for w in workloads}
        unknown = [name for name in names if name not in known]
        if unknown:
            raise SystemExit(f"unknown workload(s) {unknown}; known: {sorted(known)}")
        workloads = [known[name] for name in names]

    host = Host()
    spans = Spans()
    traces: Traces = {}
    runs = []
    for w in workloads:
        # Never fewer than two batches, so that a slice boundary exists.
        run = WorkloadRun(w, max(2 * BATCH, int(w.records * scale)), seed, host, spans, trace)
        run.set_up(traces)
        runs.append(run)

    # Every pass starts from a collected heap; freezing the materialised
    # inputs keeps those collections (and the engine's own) from walking
    # the benchmark's records.
    gc.collect()
    gc.freeze()
    try:
        # Rounds are interleaved round-robin so that every workload samples
        # the whole run's duration, whichever speed state the host is in.
        pending = list(runs)
        while pending:
            for run in pending:
                run.round(seconds)
            pending = [run for run in pending if run.wants_round(seconds)]

        result: Dict[str, Any] = {"pass": "per_layer" if trace else "end_to_end", "workloads": {}}
        for run in runs:
            run.verify()
            if trace:
                metrics, errors, detail = run.per_layer(out_dir)
                report = run.report(metrics)
                report["probe_errors"] = errors
                report["detail"] = detail
            else:
                report = run.report(run.end_to_end())
            result["workloads"][run.workload.name] = report
    finally:
        gc.unfreeze()
    result["stamp"] = machine_stamp(seed, scale, seconds, host)
    if trace:
        spans.close_roots()
        result["spans"] = spans.items
    return result
