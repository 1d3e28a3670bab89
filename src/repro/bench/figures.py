"""Per-figure reproductions of the paper's §7 evaluation.

Each experiment function is deterministic and returns a result object
with a ``to_text()`` rendering of the series the paper plots.  Its
defaults are the size EXPERIMENTS.md records: :func:`evaluate` runs every
experiment at them, and :meth:`Evaluation.verdicts` is the one table of
the paper's claims that ``python -m repro`` checks.

Scaling notes (see DESIGN.md §3): accuracy experiments replay the bursty
feed at 1/50 rate with proportionally smaller sample targets — every
quantity the figures compare is a per-window *ratio*, which rate scaling
preserves.  CPU experiments run the steady feed at full per-second packet
density over short spans, so per-packet cost arithmetic matches the
paper's 100 kpps operating point exactly.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.algorithms.estimators import replicate, subset_sum_variance_gap
from repro.algorithms.flow_sampling import NaiveFlowAggregator, SampledFlowAggregator
from repro.algorithms.priority import PrioritySampler
from repro.algorithms.subset_sum import solve_threshold
from repro.algorithms.uniform import BernoulliSampler, DropSampler
from repro.bench.harness import (
    SubsetSumRun,
    run_actual_sums,
    run_basic_subset_sum,
    run_prefiltered_subset_sum,
    run_subset_sum,
)
from repro.bench.reporting import format_table
from repro.bench.workloads import (
    ACCURACY_WINDOW_SECONDS,
    accuracy_trace,
    performance_trace,
)
from repro.errors import ReproError
from repro.streams.records import Record
from repro.streams.traces import TraceConfig, ddos_feed

# ---------------------------------------------------------------------------
# Figures 2-4: accuracy, samples per period, cleaning phases
# ---------------------------------------------------------------------------


@dataclass
class AccuracyResult:
    """Shared result for Figs 2-4: per-window series for both variants."""

    windows: List[int]
    actual: Dict[int, float]
    relaxed: SubsetSumRun
    nonrelaxed: SubsetSumRun
    target: int

    @property
    def settled(self) -> List[int]:
        """The windows after the warm-up one, where the claims are read."""
        return self.windows[1:]

    def mean_abs_error(self, run: SubsetSumRun) -> float:
        return _mean_abs_error(self.actual, run)

    def oversampled(self, run: SubsetSumRun) -> int:
        return sum(1 for w in self.settled if run.admitted.get(w, 0) > self.target)

    def undersampled(self, run: SubsetSumRun) -> int:
        return sum(1 for w in self.settled if run.admitted.get(w, 0) < self.target)

    def mean_cleanings(self, run: SubsetSumRun) -> float:
        return sum(run.cleanings.get(w, 0) for w in self.settled) / len(self.settled)

    # -- figure 2 --------------------------------------------------------------

    def estimate_ratio(self, run: SubsetSumRun) -> Dict[int, float]:
        return {
            w: (run.estimates.get(w, 0.0) / self.actual[w]) if self.actual[w] else 0.0
            for w in self.windows
        }

    def to_text(self) -> str:
        relaxed_ratio = self.estimate_ratio(self.relaxed)
        nonrelaxed_ratio = self.estimate_ratio(self.nonrelaxed)
        rows = [
            (
                w,
                self.actual[w],
                self.relaxed.estimates.get(w, 0.0),
                self.nonrelaxed.estimates.get(w, 0.0),
                relaxed_ratio[w],
                nonrelaxed_ratio[w],
            )
            for w in self.windows
        ]
        return format_table(
            ["window", "actual", "est(relaxed)", "est(nonrelaxed)",
             "ratio(rel)", "ratio(nonrel)"],
            rows,
        )

    def samples_to_text(self) -> str:
        rows = [
            (
                w,
                self.target,
                self.relaxed.admitted.get(w, 0),
                self.nonrelaxed.admitted.get(w, 0),
                self.relaxed.outputs.get(w, 0),
                self.nonrelaxed.outputs.get(w, 0),
            )
            for w in self.windows
        ]
        return format_table(
            ["window", "target", "admitted(rel)", "admitted(nonrel)",
             "final(rel)", "final(nonrel)"],
            rows,
        )

    def cleanings_to_text(self) -> str:
        rows = [
            (w, self.relaxed.cleanings.get(w, 0), self.nonrelaxed.cleanings.get(w, 0))
            for w in self.windows
        ]
        return format_table(["window", "cleanings(rel)", "cleanings(nonrel)"], rows)


def _accuracy_experiment(
    target: int,
    duration_seconds: int,
    rate_scale: float,
    relax_factor: float = 10.0,
    seed: int = 20050614,
) -> AccuracyResult:
    trace = accuracy_trace(duration_seconds, rate_scale, seed)
    window = ACCURACY_WINDOW_SECONDS
    actual = run_actual_sums(trace, window)
    relaxed = run_subset_sum(
        trace, target, window, relax_factor=relax_factor, label="relaxed"
    )
    nonrelaxed = run_subset_sum(
        trace, target, window, relax_factor=1.0, label="nonrelaxed"
    )
    return AccuracyResult(
        windows=sorted(actual),
        actual=actual,
        relaxed=relaxed,
        nonrelaxed=nonrelaxed,
        target=target,
    )


def figure2(
    target: int = 200,
    duration_seconds: int = 300,
    rate_scale: float = 0.02,
    seed: int = 20050614,
) -> AccuracyResult:
    """Fig 2: accuracy of summation, actual vs estimated, per window.

    Paper claim: non-relaxed under-estimates on many windows (those after
    sharp load drops); relaxed (f=10) matches the actual sum closely.
    """
    return _accuracy_experiment(target, duration_seconds, rate_scale, seed=seed)


# ---------------------------------------------------------------------------
# Figure 5: CPU usage vs samples per period
# ---------------------------------------------------------------------------


@dataclass
class CpuUsageResult:
    """Fig 5: CPU%% of each variant at each samples-per-period target."""

    targets: List[int]
    relaxed: Dict[int, float]
    nonrelaxed: Dict[int, float]
    basic: Dict[int, float]
    low_level: Dict[int, float]

    def to_text(self) -> str:
        rows = [
            (
                t,
                self.relaxed[t],
                self.nonrelaxed[t],
                self.basic[t],
                self.low_level[t],
            )
            for t in self.targets
        ]
        return format_table(
            ["samples/period", "SS relaxed %", "SS nonrelaxed %",
             "basic SS %", "low-level sel %"],
            rows,
        )


def _total_len(trace: Sequence[Record]) -> int:
    """Bytes in ``trace``, its ``len`` index looked up once."""
    at = trace[0].schema.index_of("len")
    return sum(r.values[at] for r in trace)


def figure5(
    targets: Sequence[int] = (100, 1000, 10000),
    duration_seconds: int = 3,
    window_seconds: int = 1,
    seed: int = 20050614,
) -> CpuUsageResult:
    """Fig 5: CPU usage for sampling, steady 100 kpps feed.

    Paper claims: the sampling operator costs only ~3-5%% more CPU than a
    basic-subset-sum selection; the relaxed variant costs at most ~2%%
    over non-relaxed; the low-level selection feeding them costs ~60%% of
    a CPU (memory copies).
    """
    trace = performance_trace(duration_seconds, rate_scale=1.0, seed=seed)
    total_len = _total_len(trace)
    windows = max(1, duration_seconds // window_seconds)

    relaxed: Dict[int, float] = {}
    nonrelaxed: Dict[int, float] = {}
    basic: Dict[int, float] = {}
    low_level: Dict[int, float] = {}
    for target in targets:
        for relax, out in ((10.0, relaxed), (1.0, nonrelaxed)):
            run = run_subset_sum(
                trace,
                target,
                window_seconds,
                relax_factor=relax,
                measure_cost=True,
                trace_duration_seconds=duration_seconds,
                rate_scale=1.0,
            )
            out[target] = run.cpu_percent or 0.0
            if relax == 10.0:
                low_level[target] = run.low_level_cpu_percent or 0.0
        # Basic subset-sum selection producing ~target samples per window.
        z = total_len / windows / target
        _, cpu = run_basic_subset_sum(trace, z, duration_seconds, rate_scale=1.0)
        basic[target] = cpu
    return CpuUsageResult(
        targets=list(targets),
        relaxed=relaxed,
        nonrelaxed=nonrelaxed,
        basic=basic,
        low_level=low_level,
    )


# ---------------------------------------------------------------------------
# Figure 6: effect of the low-level query type
# ---------------------------------------------------------------------------


@dataclass
class LowLevelResult:
    """Fig 6: dynamic-SS CPU%% under each low-level feeding plan."""

    targets: List[int]
    selection_fed: Dict[int, float]
    prefilter_fed: Dict[int, float]
    selection_low_cpu: float
    prefilter_low_cpu: Dict[int, float]

    def prefiltered_total(self, target: int) -> float:
        """CPU%% of the whole prefiltered plan, both levels."""
        return self.prefilter_fed[target] + self.prefilter_low_cpu[target]

    def to_text(self) -> str:
        rows = [
            (
                t,
                self.selection_fed[t],
                self.prefilter_fed[t],
                self.selection_low_cpu,
                self.prefilter_low_cpu[t],
            )
            for t in self.targets
        ]
        return format_table(
            ["samples/period", "SS% (selection subquery)",
             "SS% (basic-SS subquery)", "low-level sel %",
             "low-level basic-SS %"],
            rows,
        )


def figure6(
    targets: Sequence[int] = (100, 1000, 10000),
    duration_seconds: int = 3,
    window_seconds: int = 1,
    seed: int = 20050614,
) -> LowLevelResult:
    """Fig 6: a basic-SS low-level subquery (threshold 1/10th of the
    dynamic level) collapses both the low-level cost (~60%% -> ~4%%) and
    the sampler's own cost."""
    trace = performance_trace(duration_seconds, rate_scale=1.0, seed=seed)
    total_len = _total_len(trace)
    windows = max(1, duration_seconds // window_seconds)

    selection_fed: Dict[int, float] = {}
    prefilter_fed: Dict[int, float] = {}
    prefilter_low: Dict[int, float] = {}
    selection_low = 0.0
    for target in targets:
        run = run_subset_sum(
            trace,
            target,
            window_seconds,
            relax_factor=10.0,
            measure_cost=True,
            trace_duration_seconds=duration_seconds,
            rate_scale=1.0,
        )
        selection_fed[target] = run.cpu_percent or 0.0
        selection_low = run.low_level_cpu_percent or 0.0
        z_dynamic = total_len / windows / target
        pre = run_prefiltered_subset_sum(
            trace,
            target,
            window_seconds,
            prefilter_z=z_dynamic / 10.0,
            relax_factor=10.0,
            trace_duration_seconds=duration_seconds,
            rate_scale=1.0,
        )
        prefilter_fed[target] = pre.cpu_percent or 0.0
        prefilter_low[target] = pre.low_level_cpu_percent or 0.0
    return LowLevelResult(
        targets=list(targets),
        selection_fed=selection_fed,
        prefilter_fed=prefilter_fed,
        selection_low_cpu=selection_low,
        prefilter_low_cpu=prefilter_low,
    )


# ---------------------------------------------------------------------------
# In-text experiments and ablations
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    """A labelled family of accuracy summaries (mean |1 - est/actual|)."""

    label: str
    rows: List[Tuple]
    headers: List[str]

    def to_text(self) -> str:
        return format_table(self.headers, self.rows)


def _mean_abs_error(actual: Dict[int, float], run: SubsetSumRun) -> float:
    """Mean |1 - estimate/actual| per window, the warm-up window skipped:
    every variant starts it from a cold threshold."""
    windows = sorted(actual)
    usable = windows[1:] or windows
    return sum(abs(1.0 - run.estimates.get(w, 0.0) / actual[w]) for w in usable) / len(usable)


def accuracy_sweep(
    targets: Sequence[int] = (20, 200, 2000),
    duration_seconds: int = 300,
    rate_scale: float = 0.02,
) -> SweepResult:
    """§7.1 in-text: repeating the accuracy experiment at 100 / 1 000 /
    10 000 samples per period gives "nearly identical results"."""
    rows = []
    for target in targets:
        result = _accuracy_experiment(target, duration_seconds, rate_scale)
        rows.append(
            (
                target,
                result.mean_abs_error(result.relaxed),
                result.mean_abs_error(result.nonrelaxed),
            )
        )
    return SweepResult(
        label="accuracy-sweep",
        headers=["samples/period", "mean |err| relaxed", "mean |err| nonrelaxed"],
        rows=rows,
    )


def gamma_sweep(
    gammas: Sequence[float] = (1.5, 2.0, 4.0, 8.0),
    target: int = 1000,
    duration_seconds: int = 3,
    window_seconds: int = 1,
) -> SweepResult:
    """§7.2 in-text: CPU load depends only weakly on the cleaning trigger γ."""
    trace = performance_trace(duration_seconds, rate_scale=1.0)
    rows = []
    for gamma in gammas:
        run = run_subset_sum(
            trace,
            target,
            window_seconds,
            relax_factor=10.0,
            gamma=gamma,
            measure_cost=True,
            trace_duration_seconds=duration_seconds,
            rate_scale=1.0,
        )
        total_cleanings = sum(run.cleanings.values())
        rows.append((gamma, run.cpu_percent or 0.0, total_cleanings))
    return SweepResult(
        label="gamma-sweep",
        headers=["gamma", "SS relaxed CPU %", "total cleanings"],
        rows=rows,
    )


def ablation_relax_factor(
    factors: Sequence[float] = (1.0, 2.0, 5.0, 10.0, 30.0, 100.0),
    target: int = 200,
    duration_seconds: int = 300,
    rate_scale: float = 0.02,
) -> SweepResult:
    """Relaxation-factor ablation: accuracy vs cleaning cost."""
    trace = accuracy_trace(duration_seconds, rate_scale)
    actual = run_actual_sums(trace, ACCURACY_WINDOW_SECONDS)
    windows = sorted(actual)
    rows = []
    for factor in factors:
        run = run_subset_sum(
            trace, target, ACCURACY_WINDOW_SECONDS, relax_factor=factor
        )
        cleanings = sum(run.cleanings.values()) / max(1, len(windows))
        rows.append((factor, _mean_abs_error(actual, run), cleanings))
    return SweepResult(
        label="relax-factor-ablation",
        headers=["relax factor f", "mean |err|", "cleanings/window"],
        rows=rows,
    )


def ablation_adjustment(
    target: int = 200,
    duration_seconds: int = 300,
    rate_scale: float = 0.02,
) -> SweepResult:
    """Exact re-threshold solve vs the paper's aggressive rule.

    The aggressive rule can overshoot when B ≈ M (DESIGN.md §4); this
    ablation quantifies the resulting under-collection.
    """
    trace = accuracy_trace(duration_seconds, rate_scale)
    actual = run_actual_sums(trace, ACCURACY_WINDOW_SECONDS)
    windows = sorted(actual)
    rows = []
    for adjustment in ("solve", "aggressive"):
        run = run_subset_sum(
            trace,
            target,
            ACCURACY_WINDOW_SECONDS,
            relax_factor=10.0,
            adjustment=adjustment,
        )
        usable = windows[1:] or windows
        short = sum(
            1 for w in usable if run.outputs.get(w, 0) < 0.9 * target
        )
        rows.append((adjustment, _mean_abs_error(actual, run), short))
    return SweepResult(
        label="adjustment-ablation",
        headers=["rule", "mean |err|", "windows short of target"],
        rows=rows,
    )


def ablation_prefilter(
    fractions: Sequence[float] = (1.0, 0.5, 0.2, 0.1, 0.02),
    target: int = 1000,
    duration_seconds: int = 3,
    window_seconds: int = 1,
) -> SweepResult:
    """Low-level prefilter threshold sweep (the paper fixes 1/10).

    Smaller prefilter thresholds forward more tuples (higher low-level
    recall, more copies); larger ones risk starving the dynamic sampler.
    """
    trace = performance_trace(duration_seconds, rate_scale=1.0)
    total_len = _total_len(trace)
    windows = max(1, duration_seconds // window_seconds)
    z_dynamic = total_len / windows / target
    rows = []
    for fraction in fractions:
        pre = run_prefiltered_subset_sum(
            trace,
            target,
            window_seconds,
            prefilter_z=z_dynamic * fraction,
            relax_factor=10.0,
            trace_duration_seconds=duration_seconds,
            rate_scale=1.0,
        )
        mean_output = sum(pre.outputs.values()) / max(1, len(pre.outputs))
        rows.append(
            (
                fraction,
                pre.low_level_cpu_percent or 0.0,
                pre.cpu_percent or 0.0,
                mean_output,
            )
        )
    return SweepResult(
        label="prefilter-ablation",
        headers=["z_pre / z_dyn", "low-level CPU %", "SS CPU %",
                 "mean final samples"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# §8 and §4.4 in-text experiments
# ---------------------------------------------------------------------------


#: §8's integrated sampler keeps this many flows per window (γ = 2) ...
FLOW_TARGET = 400
#: ... and the naive flow table it is compared with holds this many.
FLOW_MEMORY_LIMIT = 4000
FLOW_WINDOW_SECONDS = 30


def flow_sampling_ddos() -> SweepResult:
    """§8: integrated flow aggregation + sampling under a DDoS storm.

    Naive per-flow aggregation needs a group per flow and exhausts its
    table during a spoofed-source storm; the integrated flow-sampling
    table stays bounded at γ·N entries while keeping total-byte estimates
    accurate ("small flows can be quickly sampled and purged from the
    group table").
    """
    config = TraceConfig(duration_seconds=120, rate_scale=0.05, seed=77)
    feed = list(ddos_feed(config, attack_start=30, attack_duration=60))
    time_at, len_at = map(feed[0].schema.index_of, ("time", "len"))
    flow_of = itemgetter(*map(feed[0].schema.index_of, ("srcIP", "destIP", "srcPort", "destPort", "protocol")))
    by_window: Dict[int, List[Record]] = defaultdict(list)
    for record in feed:
        by_window[record.values[time_at] // FLOW_WINDOW_SECONDS].append(record)

    rows = []
    sampler = SampledFlowAggregator(target=FLOW_TARGET, gamma=2.0, relax_factor=10.0)
    for window in sorted(by_window):
        records = by_window[window]
        actual = sum(r.values[len_at] for r in records)
        distinct = len({flow_of(r.values) for r in records})

        naive = NaiveFlowAggregator(memory_limit=FLOW_MEMORY_LIMIT)
        naive_outcome = "OK"
        try:
            for record in records:
                naive.offer(record)
            naive.close_window()
        except ReproError:
            naive_outcome = "EXHAUSTED"

        for record in records:
            sampler.offer(record)
        peak = sampler.peak_flows
        sampler.peak_flows = 0
        flows = sampler.close_window()
        estimate = sampler.estimated_total_bytes(flows)
        rows.append(
            (window, distinct, naive_outcome, peak, len(flows), estimate / actual)
        )
    return SweepResult(
        label="flow-sampling-ddos",
        headers=["window", "true flows", f"naive({FLOW_MEMORY_LIMIT})",
                 "sampled peak", "final sample", "est/actual"],
        rows=rows,
    )


@dataclass
class VarianceResult(SweepResult):
    """§4.4: per-sampler relative bias and RMSE of the total-bytes
    estimate, plus the analytic uniform/threshold variance ratio."""

    gap: float

    def to_text(self) -> str:
        return (
            super().to_text()
            + f"\nanalytic variance gap (uniform/threshold): {self.gap:.1f}x"
        )


def _heavy_tailed_weights(n: int = 5000, seed: int = 99) -> List[float]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        u = rng.random()
        if u < 0.5:
            out.append(float(rng.randint(40, 80)))
        elif u < 0.7:
            out.append(float(rng.randint(300, 700)))
        else:
            out.append(float(rng.randint(1300, 1500)))
    # a few elephants (aggregated flows) to create the heavy tail
    for _ in range(10):
        out.append(float(rng.randint(100_000, 500_000)))
    return out


#: §4.4's matched expected sample size and replications per sampler.
VARIANCE_SAMPLE_SIZE = 100
VARIANCE_REPLICATIONS = 40


def variance_comparison() -> VarianceResult:
    """§4.4: subset-sum sampling "provides a better estimate than random
    sampling" — uniform (Bernoulli), systematic (DROP), threshold
    (subset-sum) and priority sampling at matched expected sample size on
    a heavy-tailed population."""
    weights = _heavy_tailed_weights()
    sample_size = VARIANCE_SAMPLE_SIZE
    truth = sum(weights)
    n = len(weights)
    z = solve_threshold(weights, sample_size)

    def bernoulli(seed):
        sampler = BernoulliSampler(sample_size / n, random.Random(seed))
        return sampler.estimate_sum(w for w in weights if sampler.offer())

    def systematic(seed):
        sampler = DropSampler(keep_one_in=n // sample_size, phase=seed % (n // sample_size))
        return sampler.estimate_sum(w for w in weights if sampler.offer())

    def threshold(seed):
        rng = random.Random(seed)
        total = 0.0
        for w in weights:
            if rng.random() < min(1.0, w / z):
                total += max(w, z)
        return total

    def priority(seed):
        sampler = PrioritySampler(k=sample_size, rng=random.Random(seed))
        sampler.extend(weights)
        return sampler.estimate_sum()

    rows = []
    for name, fn in (
        ("uniform (Bernoulli)", bernoulli),
        ("systematic (DROP)", systematic),
        ("threshold (subset-sum)", threshold),
        ("priority", priority),
    ):
        report = replicate(fn, truth, VARIANCE_REPLICATIONS)
        rows.append((name, report.relative_bias, report.relative_rmse))
    return VarianceResult(
        label="variance-comparison",
        headers=["sampler", "rel. bias", "rel. RMSE"],
        rows=rows,
        gap=subset_sum_variance_gap(weights, sample_size),
    )


# ---------------------------------------------------------------------------
# The whole evaluation and its verdicts
# ---------------------------------------------------------------------------


def _column(result: SweepResult, index: int) -> Dict:
    """One column of a sweep, keyed by its first column."""
    return {row[0]: row[index] for row in result.rows}


@dataclass
class Evaluation:
    """Every experiment EXPERIMENTS.md reports, as one run produced it."""

    accuracy: AccuracyResult  # Figs 2-4
    cpu: CpuUsageResult  # Fig 5
    low_level: LowLevelResult  # Fig 6
    accuracy_sweep: SweepResult  # §7.1
    gamma: SweepResult  # §7.2
    relax_factor: SweepResult
    adjustment: SweepResult
    prefilter: SweepResult
    ddos: SweepResult  # §8
    variance: VarianceResult  # §4.4

    def tables(self) -> List[Tuple[str, str]]:
        """(title, table) for each table EXPERIMENTS.md records."""
        return [
            ("Figure 2: accuracy of summation", self.accuracy.to_text()),
            ("Figure 3: samples per period", self.accuracy.samples_to_text()),
            ("Figure 4: cleaning phases per period", self.accuracy.cleanings_to_text()),
            ("Figure 5: CPU usage for sampling (cost model)", self.cpu.to_text()),
            ("Figure 6: effect of low-level query type (cost model)",
             self.low_level.to_text()),
            ("§7.1: accuracy at different samples-per-period targets",
             self.accuracy_sweep.to_text()),
            ("§7.2: cleaning-trigger (γ) sensitivity", self.gamma.to_text()),
            ("Ablation: relaxation factor", self.relax_factor.to_text()),
            ("Ablation: re-threshold rule", self.adjustment.to_text()),
            ("Ablation: prefilter fraction", self.prefilter.to_text()),
            ("§8: flow sampling under a DDoS storm", self.ddos.to_text()),
            ("§4.4: estimator variance (total bytes, matched sample size 100)",
             self.variance.to_text()),
        ]

    def record(self) -> Dict[str, Dict]:
        """The numbers tracked in ``BENCH_figures.json``."""
        acc, cpu, low = self.accuracy, self.cpu, self.low_level
        shape = {"target": acc.target, "windows": len(acc.settled)}
        return {
            "fig2_accuracy_of_summation": {
                **shape,
                "relaxed_mean_abs_err": round(acc.mean_abs_error(acc.relaxed), 4),
                "nonrelaxed_mean_abs_err": round(acc.mean_abs_error(acc.nonrelaxed), 4),
            },
            "fig3_samples_per_period": {
                **shape,
                "relaxed_oversampled_windows": acc.oversampled(acc.relaxed),
                "nonrelaxed_undersampled_windows": acc.undersampled(acc.nonrelaxed),
            },
            "fig4_cleaning_phases": {
                **shape,
                "relaxed_cleanings_per_window": round(acc.mean_cleanings(acc.relaxed), 2),
                "nonrelaxed_cleanings_per_window": round(acc.mean_cleanings(acc.nonrelaxed), 2),
            },
            "fig5_cpu_usage": {
                str(t): {
                    "relaxed_cpu": round(cpu.relaxed[t], 2),
                    "nonrelaxed_cpu": round(cpu.nonrelaxed[t], 2),
                    "basic_cpu": round(cpu.basic[t], 2),
                    "low_level_cpu": round(cpu.low_level[t], 2),
                }
                for t in cpu.targets
            },
            "fig6_low_level_query_type": {
                "selection_low_cpu": round(low.selection_low_cpu, 1),
                "prefilter_total_cpu_at_100": round(low.prefiltered_total(100), 2),
                **{
                    str(t): {
                        "selection_fed_cpu": round(low.selection_fed[t], 2),
                        "prefilter_fed_cpu": round(low.prefilter_fed[t], 2),
                        "prefilter_low_cpu": round(low.prefilter_low_cpu[t], 2),
                    }
                    for t in low.targets
                },
            },
        }

    def verdicts(self) -> List[Tuple[str, bool]]:
        """Each claim of the paper this evaluation reproduces, and whether
        this run upholds it."""
        acc, cpu, low = self.accuracy, self.cpu, self.low_level
        settled = len(acc.settled)
        relaxed_err = acc.mean_abs_error(acc.relaxed)
        nonrelaxed_ratio = acc.estimate_ratio(acc.nonrelaxed)
        relaxed_cleanings = acc.mean_cleanings(acc.relaxed)
        nonrelaxed_cleanings = acc.mean_cleanings(acc.nonrelaxed)

        sweep_relaxed = _column(self.accuracy_sweep, 1)
        sweep_nonrelaxed = _column(self.accuracy_sweep, 2)
        gamma_cpu = list(_column(self.gamma, 1).values())
        gamma_cleanings = list(_column(self.gamma, 2).values())
        relax_err = _column(self.relax_factor, 1)
        relax_cleanings = _column(self.relax_factor, 2)
        adjust_err = _column(self.adjustment, 1)
        adjust_short = _column(self.adjustment, 2)
        pre_low = _column(self.prefilter, 1)
        pre_samples = _column(self.prefilter, 3)
        flow_table = [row[2] for row in self.ddos.rows]
        bias = _column(self.variance, 1)
        rmse = _column(self.variance, 2)
        noise = 4 / math.sqrt(VARIANCE_REPLICATIONS)
        return [
            ("Fig 2: relaxed estimates are within 8 % of the actual sums on average",
             relaxed_err < 0.08),
            ("Fig 2: non-relaxed estimates are worse than relaxed",
             acc.mean_abs_error(acc.nonrelaxed) > relaxed_err),
            ("Fig 2: non-relaxed never over-estimates by more than 5 %",
             all(nonrelaxed_ratio[w] <= 1.05 for w in acc.settled)),
            ("Fig 3: relaxed over-samples in at least 80 % of windows",
             acc.oversampled(acc.relaxed) >= 0.8 * settled),
            ("Fig 3: non-relaxed under-samples in at least 20 % of windows",
             acc.undersampled(acc.nonrelaxed) >= 0.2 * settled),
            ("Fig 3: relaxed final samples never exceed the target",
             all(v <= acc.target for v in acc.relaxed.outputs.values())),
            ("Fig 4: relaxed runs more cleaning phases per window than non-relaxed",
             relaxed_cleanings > nonrelaxed_cleanings),
            ("Fig 4: relaxed runs 1-8 cleaning phases per window",
             1.0 <= relaxed_cleanings <= 8.0),
            ("Fig 4: non-relaxed runs at most 2 cleaning phases per window",
             nonrelaxed_cleanings <= 2.0),
            ("Fig 5: the sampling operator costs 0-6 points over basic SS at every target",
             all(0.0 < cpu.relaxed[t] - cpu.basic[t] < 6.0 for t in cpu.targets)),
            ("Fig 5: relaxed costs at most 2 points over non-relaxed at every target",
             all(cpu.relaxed[t] - cpu.nonrelaxed[t] <= 2.0 for t in cpu.targets)),
            ("Fig 5: the low-level selection costs 50-70 % of a CPU at every target",
             all(50.0 < cpu.low_level[t] < 70.0 for t in cpu.targets)),
            ("Fig 5: CPU grows with the target (10 000 samples >= 100)",
             cpu.relaxed[10000] >= cpu.relaxed[100]),
            ("Fig 6: a basic-SS subquery lowers the sampler's CPU at every target",
             all(low.prefilter_fed[t] < low.selection_fed[t] for t in low.targets)),
            ("Fig 6: the basic-SS low level costs under a third of the selection's "
             "at 100 and 1 000 samples",
             all(low.prefilter_low_cpu[t] < low.selection_low_cpu / 3 for t in (100, 1000))),
            ("Fig 6: the low-level selection costs over 50 % of a CPU",
             low.selection_low_cpu > 50.0),
            ("Fig 6: the prefiltered plan takes under 6 % of a CPU at 100 samples",
             low.prefiltered_total(100) < 6.0),
            ("§7.1: relaxed error is under 0.1 at every target",
             all(err < 0.1 for err in sweep_relaxed.values())),
            ("§7.1: relaxed error is no worse than non-relaxed at every target",
             all(sweep_relaxed[t] < sweep_nonrelaxed[t] + 0.02 for t in sweep_relaxed)),
            ("§7.1: relaxed errors are nearly identical across targets (spread < 0.08)",
             max(sweep_relaxed.values()) - min(sweep_relaxed.values()) < 0.08),
            ("§7.2: CPU moves by under 1.5 points across γ",
             max(gamma_cpu) - min(gamma_cpu) < 1.5),
            ("§7.2: a larger γ cleans no more often",
             gamma_cleanings[0] >= gamma_cleanings[-1]),
            ("Ablation f: f=10 is more accurate than f=1",
             relax_err[10.0] < relax_err[1.0]),
            ("Ablation f: f=30 runs more cleanings than f=1",
             relax_cleanings[30.0] > relax_cleanings[1.0]),
            ("Ablation f: accuracy saturates past f=10 (f=30 within 0.05)",
             abs(relax_err[30.0] - relax_err[10.0]) < 0.05),
            ("Ablation rule: the exact solve is no less accurate than the aggressive rule",
             adjust_err["solve"] <= adjust_err["aggressive"] + 0.02),
            ("Ablation rule: the aggressive rule ends short of target at least as often",
             adjust_short["aggressive"] >= adjust_short["solve"]),
            ("Ablation prefilter: forwarding cost falls as the prefilter tightens",
             pre_low[0.02] > pre_low[0.1] > pre_low[1.0]),
            ("Ablation prefilter: at 1/10 the sampler keeps over 80 % of its target",
             pre_samples[0.1] > 0.8 * 1000),  # ablation_prefilter's target
            ("Ablation prefilter: a prefilter at the dynamic threshold adds no samples",
             pre_samples[1.0] <= pre_samples[0.1] + 50),
            ("§8: the storm exhausts the naive flow table", "EXHAUSTED" in flow_table),
            ("§8: calm windows fit the naive flow table", "OK" in flow_table),
            ("§8: the sampled flow table never exceeds γ·N + 1 entries",
             all(row[3] <= 2 * FLOW_TARGET + 1 for row in self.ddos.rows)),
            ("§8: sampled byte estimates stay within 15 % in every window",
             all(0.85 <= row[5] <= 1.15 for row in self.ddos.rows)),
            ("§4.4: threshold sampling halves uniform sampling's RMSE",
             rmse["threshold (subset-sum)"] < rmse["uniform (Bernoulli)"] / 2),
            ("§4.4: priority sampling halves uniform sampling's RMSE",
             rmse["priority"] < rmse["uniform (Bernoulli)"] / 2),
            ("§4.4: every estimator's bias is within replication noise",
             all(abs(bias[name]) < noise * rmse[name] + 0.02 for name in bias)),
            ("§4.4: the analytic variance gap exceeds 3x", self.variance.gap > 3.0),
        ]


def evaluate() -> Evaluation:
    """Run every experiment at the size EXPERIMENTS.md records."""
    return Evaluation(
        accuracy=figure2(),
        cpu=figure5(),
        low_level=figure6(),
        accuracy_sweep=accuracy_sweep(),
        gamma=gamma_sweep(),
        relax_factor=ablation_relax_factor(),
        adjustment=ablation_adjustment(),
        prefilter=ablation_prefilter(),
        ddos=flow_sampling_ddos(),
        variance=variance_comparison(),
    )
