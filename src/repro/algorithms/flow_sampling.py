"""Integrated flow aggregation + subset-sum sampling (paper §8).

The conclusion describes a production problem: computing flow statistics
as *two* queries (flow aggregation feeding a sampling query) fails when
the stream contains "a large number of small flows consisting of only a
few packets (e.g. during DDOS attacks)" — the aggregation query's group
table grows with the number of live flows and exhausts memory.  The fix
integrates flow aggregation with sampling in a single phase: "small flows
can be quickly sampled and purged from the group table", bounding memory
at γ·N flow entries regardless of the flow arrival rate.

Two implementations are provided:

* :class:`NaiveFlowAggregator` — the failing baseline: one group per
  flow, no eviction (memory is the number of distinct flows);
* :class:`SampledFlowAggregator` — the integrated version: the flow table
  doubles as the sample; when it exceeds γ·N entries a subset-sum
  cleaning phase re-thresholds on accumulated flow bytes and purges the
  flows that lose the lottery.

An evicted flow that receives further packets re-enters as a fresh
partial flow, so per-flow byte totals are estimated, not exact — the
price of bounded memory.  The window's total-byte estimate stays
close because every surviving entry carries its subset-sum adjusted
weight; tests quantify both properties on the DDoS trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.streams.records import Record
from repro.algorithms.subset_sum import solve_threshold

FlowKey = Tuple[int, int, int, int, int]


def flow_key(record: Record) -> FlowKey:
    """The standard 5-tuple flow key of a packet record."""
    return (
        record["srcIP"],
        record["destIP"],
        record["srcPort"],
        record["destPort"],
        record["protocol"],
    )


@dataclass
class FlowEntry:
    """One aggregated flow with its sampling floor."""

    key: FlowKey
    bytes: int
    packets: int
    first_seen: int
    last_seen: int
    #: Subset-sum weight floor: the flow has survived thresholds up to
    #: this value, so its adjusted weight is max(bytes, floor).
    floor: float = 0.0

    @property
    def adjusted_bytes(self) -> float:
        """Unbiased contribution of this sampled flow to byte sums."""
        return max(self.bytes, self.floor)


class NaiveFlowAggregator:
    """Plain per-flow aggregation: the baseline that blows up under DDoS.

    ``memory_limit`` models the exhaustion the paper describes: exceeding
    it raises :class:`ReproError` (Gigascope "exhausts the available
    memory, and fails").  Pass ``None`` to just measure the high-water
    mark.
    """

    def __init__(self, memory_limit: Optional[int] = None) -> None:
        self.flows: Dict[FlowKey, FlowEntry] = {}
        self.memory_limit = memory_limit
        self.peak_flows = 0

    def offer(self, record: Record) -> None:
        key = flow_key(record)
        entry = self.flows.get(key)
        now = record["time"]
        if entry is None:
            self.flows[key] = FlowEntry(key, record["len"], 1, now, now)
            self.peak_flows = max(self.peak_flows, len(self.flows))
            if self.memory_limit is not None and len(self.flows) > self.memory_limit:
                raise ReproError(
                    f"flow table exhausted: {len(self.flows)} flows exceed the"
                    f" memory limit of {self.memory_limit}"
                )
        else:
            entry.bytes += record["len"]
            entry.packets += 1
            entry.last_seen = now

    def close_window(self) -> List[FlowEntry]:
        flows = list(self.flows.values())
        self.flows = {}
        return flows


class SampledFlowAggregator:
    """Flow aggregation with in-table subset-sum sampling (paper §8).

    The flow table is simultaneously the aggregation state and the
    sample.  Cleaning triggers when the table exceeds ``gamma * target``:
    the threshold z is re-solved over the current flow byte weights and
    flows are resampled; survivors record the threshold they survived as
    their weight floor.  Memory is bounded by ``gamma * target + 1``
    entries at all times.
    """

    def __init__(
        self,
        target: int,
        gamma: float = 2.0,
        relax_factor: float = 10.0,
    ) -> None:
        if target <= 0:
            raise ReproError("target sample size must be positive")
        if gamma <= 1.0:
            raise ReproError("gamma must exceed 1")
        if relax_factor < 1.0:
            raise ReproError("relax_factor must be >= 1")
        self.target = target
        self.gamma = gamma
        self.relax_factor = relax_factor
        self.z = 0.0  # 0 = no thinning yet; first cleaning sets it
        self.flows: Dict[FlowKey, FlowEntry] = {}
        self.cleaning_phases = 0
        self.peak_flows = 0
        self._credit = 0.0

    # -- per-packet path -----------------------------------------------------

    def offer(self, record: Record) -> None:
        key = flow_key(record)
        entry = self.flows.get(key)
        now = record["time"]
        if entry is not None:
            entry.bytes += record["len"]
            entry.packets += 1
            entry.last_seen = now
        else:
            if not self._admit_new_flow(record["len"]):
                return
            self.flows[key] = FlowEntry(
                key, record["len"], 1, now, now, floor=self.z
            )
            self.peak_flows = max(self.peak_flows, len(self.flows))
            if len(self.flows) > self.gamma * self.target:
                self._clean()

    def _admit_new_flow(self, first_len: int) -> bool:
        """Threshold-sample brand-new flows once a threshold is in force.

        This is the "small flows can be quickly sampled and purged" trick:
        after the first cleaning, a new flow's first packet must win the
        subset-sum lottery at the current z before it may occupy a table
        entry at all.
        """
        if self.z <= 0.0:
            return True
        if first_len > self.z:
            return True
        self._credit += first_len
        if self._credit > self.z:
            self._credit -= self.z
            return True
        return False

    # -- cleaning ------------------------------------------------------------------

    def _clean(self, goal: Optional[int] = None) -> None:
        self.cleaning_phases += 1
        goal = goal if goal is not None else self.target
        z_prev = self.z
        weights = [max(f.bytes, f.floor) for f in self.flows.values()]
        self.z = max(solve_threshold(weights, goal), z_prev)
        if self.z <= z_prev and len(self.flows) <= self.gamma * self.target:
            return
        survivors: Dict[FlowKey, FlowEntry] = {}
        credit = 0.0
        for entry in self.flows.values():
            weight = max(entry.bytes, entry.floor)
            keep = False
            if weight > self.z:
                keep = True
            else:
                credit += weight
                if credit > self.z:
                    credit -= self.z
                    keep = True
            if keep:
                if weight <= self.z:
                    # Kept through the credit lottery: the entry now stands
                    # for z worth of small-flow traffic.
                    entry.floor = max(entry.floor, self.z)
                survivors[entry.key] = entry
        self.flows = survivors

    # -- window management -----------------------------------------------------------

    def close_window(self) -> List[FlowEntry]:
        """Final subsample to the target and report the flow sample."""
        if len(self.flows) > self.target:
            self._clean(goal=self.target)
        flows = list(self.flows.values())
        self.flows = {}
        self._credit = 0.0
        self.z = max(self.z / self.relax_factor, 0.0)
        return flows

    def estimated_total_bytes(self, flows: Iterable[FlowEntry]) -> float:
        """Unbiased estimate of total bytes from a window's flow sample."""
        return sum(max(f.bytes, f.floor) for f in flows)

    @property
    def live_flows(self) -> int:
        return len(self.flows)
