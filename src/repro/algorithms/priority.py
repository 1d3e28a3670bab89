"""Priority sampling (Duffield, Lund, Thorup; 2004).

The successor of the paper's subset-sum (threshold) sampling, from the
same authors: draw one fixed-size weighted sample supporting unbiased
subset-sum estimation, *without* threshold adaptation.

Each item with weight ``w`` draws a uniform ``u ∈ (0, 1]`` and receives
priority ``q = w / u``.  The sample is the ``k`` items of highest
priority; let ``τ`` be the (k+1)-st highest priority.  Each sampled
item's estimator weight is ``max(w, τ)``, which is unbiased for every
subset-sum (Duffield et al. 2007 prove near-optimal variance).

Inside a stream operator this is attractive because it needs *no
cleaning heuristics*: a bounded heap replaces the γ-triggered
re-thresholding of dynamic subset-sum sampling.  The variance-comparison
bench pits the two (plus uniform sampling) against each other.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class PrioritySample:
    """One sampled item with its weight and draw priority."""

    key: Hashable
    weight: float
    priority: float


class PrioritySampler:
    """Fixed-size weighted sample via the priority method."""

    def __init__(self, k: int, rng: Optional[random.Random] = None) -> None:
        if k <= 0:
            raise ReproError("sample size k must be positive")
        self.k = k
        self._rng = rng or random.Random(0x9107)
        # Min-heap of (priority, counter, item); holds k+1 entries so tau
        # (the k+1-st priority) is always on hand.
        self._heap: List[Tuple[float, int, PrioritySample]] = []
        self._counter = 0
        self.offered = 0

    def offer(self, weight: float, key: Optional[Hashable] = None) -> bool:
        """Present one weighted item; True if it currently sits in the
        top-(k+1) priority heap (it may still be displaced later)."""
        if weight <= 0:
            raise ReproError("weights must be positive")
        self.offered += 1
        u = self._rng.random() or 1e-300  # avoid a zero draw
        priority = weight / u
        if key is None:
            key = self._counter
        item = PrioritySample(key, weight, priority)
        entry = (priority, self._counter, item)
        self._counter += 1
        if len(self._heap) <= self.k:
            heapq.heappush(self._heap, entry)
            return True
        if priority > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def extend(self, weights: Iterable[float]) -> None:
        for weight in weights:
            self.offer(weight)

    # -- results ---------------------------------------------------------------

    @property
    def tau(self) -> float:
        """The (k+1)-st highest priority (0 while fewer than k+1 items)."""
        if len(self._heap) <= self.k:
            return 0.0
        return self._heap[0][0]

    def sample(self) -> List[PrioritySample]:
        """The k highest-priority items (all items if fewer than k seen)."""
        entries = sorted(self._heap, reverse=True)[: self.k]
        return [item for _priority, _counter, item in entries]

    def estimate_sum(self, predicate=None) -> float:
        """Unbiased subset-sum estimate: Σ max(w, τ) over matching samples."""
        tau = self.tau
        total = 0.0
        for item in self.sample():
            if predicate is None or predicate(item):
                total += max(item.weight, tau)
        return total
