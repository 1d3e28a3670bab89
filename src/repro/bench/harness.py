"""Experiment runners: one Gigascope instance per configuration.

Each runner replays a materialised trace through a fresh DSMS instance
(so cost accounts and SFUN states are isolated) and distils the operator
and cost-model observables the figures plot.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.deploy import deploy
from repro.dsms.cost import CostModel
from repro.streams.records import Record
from repro.algorithms.bindings import (
    BASIC_SUBSET_SUM_QUERY,
    PREFILTER_QUERY,
    basic_subset_sum_library,
    subset_sum_library,
    subset_sum_query,
)
from repro.bench.workloads import stream_seconds


@dataclass
class SubsetSumRun:
    """Distilled result of one dynamic subset-sum configuration."""

    label: str
    target: int
    window_seconds: int
    #: window id -> estimated sum of packet lengths
    estimates: Dict[int, float]
    #: window id -> tuples admitted into the sample during the window
    admitted: Dict[int, int]
    #: window id -> cleaning phases run during the window
    cleanings: Dict[int, int]
    #: window id -> output (final sample) size
    outputs: Dict[int, int]
    #: cost-model CPU%% of the sampling query node (None if not measured)
    cpu_percent: Optional[float] = None
    #: cost-model CPU%% of the low-level feeder node
    low_level_cpu_percent: Optional[float] = None

    def windows(self) -> List[int]:
        return sorted(self.estimates)


def run_actual_sums(
    trace: Sequence[Record], window_seconds: int
) -> Dict[int, float]:
    """Exact per-window sum(len): the paper's "actual" series (Fig 2)."""
    gs = deploy(libraries=())
    query = gs.add_query(
        f"SELECT tb, sum(len) FROM TCP GROUP BY time/{window_seconds} as tb",
        name="actual",
    )
    gs.run(iter(trace))
    return {row[0]: row[1] for row in query.results}


def run_subset_sum(
    trace: Sequence[Record],
    target: int,
    window_seconds: int,
    relax_factor: float,
    gamma: float = 2.0,
    adjustment: str = "solve",
    adjust_at_close: bool = True,
    measure_cost: bool = False,
    trace_duration_seconds: Optional[int] = None,
    rate_scale: Optional[float] = None,
    label: Optional[str] = None,
) -> SubsetSumRun:
    """Run the §6.1 dynamic subset-sum query over a trace."""
    library = subset_sum_library(
        relax_factor=relax_factor,
        gamma=gamma,
        adjustment=adjustment,
        adjust_at_close=adjust_at_close,
    )
    gs = deploy(libraries=[library], cost_model=CostModel() if measure_cost else None)
    query = gs.add_query(
        subset_sum_query(window=window_seconds, target=target), name="ss"
    )
    gs.run(iter(trace))

    cpu = low_cpu = None
    if measure_cost:
        if trace_duration_seconds is None or rate_scale is None:
            raise ValueError("cost measurement needs trace duration and rate_scale")
        seconds = stream_seconds(trace_duration_seconds, rate_scale)
        cpu = gs.cpu_percent("ss", seconds)
        low_cpu = gs.cpu_percent("ss__lowsel", seconds)

    return _distil(query, label or f"relax={relax_factor}", target, window_seconds, cpu, low_cpu)


def run_basic_subset_sum(
    trace: Sequence[Record],
    z: float,
    trace_duration_seconds: int,
    rate_scale: float,
) -> Tuple[int, float]:
    """Basic subset-sum as a selection UDF (Fig 5's baseline).

    Returns (sampled tuple count, CPU%% of the selection node).
    """
    gs = deploy(libraries=[basic_subset_sum_library()], cost_model=CostModel())
    query = gs.add_query(
        BASIC_SUBSET_SUM_QUERY.format(z=z), name="basic", keep_results=False
    )
    gs.run(iter(trace))
    seconds = stream_seconds(trace_duration_seconds, rate_scale)
    state = query.operator.states["basic_subsetsum_state"]
    return state.sampled, gs.cpu_percent("basic", seconds)


def run_prefiltered_subset_sum(
    trace: Sequence[Record],
    target: int,
    window_seconds: int,
    prefilter_z: float,
    relax_factor: float,
    trace_duration_seconds: int,
    rate_scale: float,
) -> SubsetSumRun:
    """Fig 6's improved plan: a basic-SS low-level subquery feeds the
    dynamic subset-sum sampling query."""
    gs = deploy(
        libraries=[basic_subset_sum_library(), subset_sum_library(relax_factor=relax_factor)],
        cost_model=CostModel(),
    )
    gs.add_query(
        PREFILTER_QUERY.format(z=prefilter_z), name="pre", keep_results=False
    )
    query = gs.add_query(
        subset_sum_query(window=window_seconds, target=target, stream="pre"),
        name="ss",
    )
    gs.run(iter(trace))
    seconds = stream_seconds(trace_duration_seconds, rate_scale)
    return _distil(
        query,
        f"prefilter z={prefilter_z:g}",
        target,
        window_seconds,
        gs.cpu_percent("ss", seconds),
        gs.cpu_percent("pre", seconds),
    )


def _distil(
    query,
    label: str,
    target: int,
    window_seconds: int,
    cpu: Optional[float],
    low_cpu: Optional[float],
) -> SubsetSumRun:
    """The per-window series of a finished subset-sum query (its rows are
    ``(tb, srcIP, destIP, estimate)``) and its operator's window stats."""
    estimates: Dict[int, float] = defaultdict(float)
    outputs: Dict[int, int] = defaultdict(int)
    for row in query.results:
        values = row.values
        estimates[values[0]] += values[3]
        outputs[values[0]] += 1
    admitted = {ws.window[0]: ws.tuples_admitted for ws in query.operator.window_stats}
    cleanings = {ws.window[0]: ws.cleaning_phases for ws in query.operator.window_stats}
    return SubsetSumRun(
        label=label,
        target=target,
        window_seconds=window_seconds,
        estimates=dict(estimates),
        admitted=admitted,
        cleanings=cleanings,
        outputs=dict(outputs),
        cpu_percent=cpu,
        low_level_cpu_percent=low_cpu,
    )
