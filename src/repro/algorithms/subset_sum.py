"""Subset-sum (threshold) sampling (paper §4.4; Duffield–Lund–Thorup).

Given tuples ``(C, x)`` with measure ``x``, the sample supports unbiased
estimation of ``sum(x)`` over any color subset: each tuple is sampled
with probability ``min(1, x/z)`` and a sampled tuple's adjusted weight is
``max(x, z)``.  Large tuples are always kept; small tuples are sampled by
a running *credit counter*: add ``x`` to the counter, and whenever it
exceeds ``z`` subtract ``z`` and keep the tuple.

Three layers:

* :class:`ThresholdSampler` — the basic, fixed-``z`` algorithm (the
  paper's selection-operator baseline and the low-level prefilter of
  Fig 6);
* :func:`adjust_threshold` — the paper's "aggressive" z-adjustment rule;
* :class:`DynamicSubsetSumSampler` — fixed target sample size ``N``:
  cleaning phases re-threshold and subsample whenever the live sample
  exceeds ``γ·N``, a final cleaning enforces ``|S| ≈ N`` at the window
  border, and the threshold carries over between windows.  The *relaxed*
  variant (paper §7.1 — the re-engineering the paper contributes)
  initialises the next window's threshold at ``z/f`` (default ``f=10``),
  assuming the next window's load may be as little as ``1/f`` of the
  current one; upward adaptation is cheap (cleaning phases) while
  downward adaptation within a window is impossible, which is exactly why
  the non-relaxed version under-samples after load drops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.errors import ReproError


@dataclass
class SampledTuple:
    """One sample: its key, original measure, and current adjusted floor.

    The unbiased estimate of the tuple's contribution to any sum is
    ``max(measure, z_final)``, where ``z_final`` is the threshold in force
    when the window closed.
    """

    key: Hashable
    measure: float
    #: Threshold the tuple has most recently survived (its weight floor).
    floor: float

    def adjusted_weight(self, z_final: float) -> float:
        return max(self.measure, z_final)


class ThresholdSampler:
    """Basic subset-sum sampling with a fixed threshold ``z``.

    Deterministic-credit variant from paper §4.4: tuples with ``x > z``
    are always sampled; smaller tuples accumulate in a credit counter and
    one is emitted each time the counter crosses ``z``.
    """

    def __init__(self, z: float) -> None:
        if z <= 0:
            raise ReproError("threshold z must be positive")
        self.z = z
        self._credit = 0.0
        self.offered = 0
        self.sampled = 0

    def offer(self, measure: float) -> bool:
        """True iff the tuple should be sampled."""
        if measure < 0:
            raise ReproError("measures must be non-negative")
        self.offered += 1
        if measure > self.z:
            self.sampled += 1
            return True
        self._credit += measure
        if self._credit > self.z:
            self._credit -= self.z
            self.sampled += 1
            return True
        return False

    def adjusted_weight(self, measure: float) -> float:
        """Estimator weight of a sampled tuple: max(x, z)."""
        return max(measure, self.z)


def adjust_threshold(
    z_old: float, live: int, target: int, big: int
) -> float:
    """The paper's aggressive z-adjustment.

    ``live`` = |S| (samples currently held), ``target`` = M (desired),
    ``big`` = B (live samples whose size exceeds the threshold).

    * ``0 <= |S| < M``:  z' = z · (|S| / M)  — too few samples, lower z;
    * ``|S| >= M``:      z' = z · max(1, (|S| − B)/(M − B)) — raise z far
      enough that the expected survivors number M.  When ``B >= M``
      (the formula's denominator is non-positive: even the always-sampled
      big tuples exceed the target) we fall back to the proportional rule
      z' = z · |S|/M, which keeps adjustment monotone and well-defined.
    """
    if z_old <= 0:
        raise ReproError("threshold z must be positive")
    if target <= 0:
        raise ReproError("target sample size must be positive")
    if live < 0 or big < 0 or big > live:
        raise ReproError("need 0 <= big <= live")
    if live < target:
        if live == 0:
            return z_old / 2.0
        return z_old * (live / target)
    if big >= target:
        return z_old * (live / target)
    return z_old * max(1.0, (live - big) / (target - big))


def solve_threshold(weights: List[float], target: int, z_min: float = 0.0) -> float:
    """The threshold z at which ``weights`` yield ``target`` expected samples.

    Solves  ``#{w > z} + (Σ_{w<=z} w) / z  =  target``  exactly — the
    paper's stated goal for the cleaning phase ("estimate a new value of z
    which will result in N tuples", §4.4).  The paper's closed-form
    aggressive rule (:func:`adjust_threshold`) assumes samples that are
    big under the old threshold stay big under the new one; with packet
    sizes capped at the MTU that assumption fails once z crosses ~1500 B
    and the rule can overshoot by orders of magnitude (B ≈ M makes its
    denominator vanish).  See DESIGN.md §4.

    Runs in O(n log n); returns at least ``z_min``.
    """
    if target <= 0:
        raise ReproError("target must be positive")
    n = len(weights)
    if n <= target:
        return max(z_min, 0.0)
    ordered = sorted(weights, reverse=True)
    # tail[j] = sum of the j smallest, added smallest first: ordered[k:]
    # sums to tail[n - k]
    tail = list(accumulate(reversed(ordered), initial=0.0))
    for k in range(0, target):
        z = tail[n - k] / (target - k)
        upper = ordered[k - 1] if k > 0 else float("inf")
        if ordered[k] <= z < upper:
            return max(z, z_min)
    # No consistent breakpoint (ties at the boundary): fall back to the
    # all-small solution, which can only under-shoot the target slightly.
    return max(tail[n] / target, z_min)


@dataclass
class WindowReport:
    """What one closed window produced (feeds Figs 2–4)."""

    samples: List[SampledTuple]
    z_final: float
    cleaning_phases: int
    admitted: int
    estimated_sum: float


class DynamicSubsetSumSampler:
    """Dynamic subset-sum sampling with fixed target size and windows.

    Standalone counterpart of the operator-hosted version: drives the same
    state machine (admission / cleaning / final cleaning / carryover)
    against an in-memory dict of samples.  ``relax_factor=1`` is the
    non-relaxed algorithm; the paper's fix uses ``relax_factor=10``.
    """

    def __init__(
        self,
        target: int,
        z_init: float = 1.0,
        gamma: float = 2.0,
        relax_factor: float = 1.0,
        adjust_at_close: bool = True,
        adjustment: str = "solve",
        rng: Optional[random.Random] = None,
    ) -> None:
        if target <= 0:
            raise ReproError("target sample size must be positive")
        if gamma <= 1.0:
            raise ReproError("gamma must exceed 1 (cleaning needs headroom)")
        if relax_factor < 1.0:
            raise ReproError("relax_factor must be >= 1 (1 = non-relaxed)")
        if z_init <= 0:
            raise ReproError("z_init must be positive")
        self.target = target
        self.gamma = gamma
        self.relax_factor = relax_factor
        #: Apply the end-of-window threshold re-estimation ("adjusting its
        #: value to obtain an estimated N samples during the new time
        #: window", paper §4.4) *before* the output threshold is read.
        #: Paper §6.4 evaluates SELECT-clause stateful functions last, so
        #: ``ssthreshold()`` sees the adjusted value — which is what makes
        #: under-sampled non-relaxed windows grossly *under-estimate*
        #: (Fig 2).  Set False to ablate the artifact (unbiased estimator).
        self.adjust_at_close = adjust_at_close
        if adjustment not in ("solve", "aggressive"):
            raise ReproError("adjustment must be 'solve' or 'aggressive'")
        #: Upward re-thresholding rule for cleaning phases: "solve" finds z
        #: exactly (the paper's stated goal); "aggressive" is the paper's
        #: closed-form rule, which can overshoot when B ≈ M (see
        #: solve_threshold's docstring and the ablation bench).
        self.adjustment = adjustment
        self.z = z_init
        self._rng = rng or random.Random(0x55AA)
        self._credit = 0.0
        self._samples: Dict[Hashable, SampledTuple] = {}
        self._next_key = 0
        self.cleaning_phases = 0
        self.admitted = 0

    # -- per-tuple path ---------------------------------------------------------

    def offer(self, measure: float, key: Optional[Hashable] = None) -> bool:
        """Process one tuple; True if it was admitted to the sample."""
        if measure < 0:
            raise ReproError("measures must be non-negative")
        admitted = False
        if measure > self.z:
            admitted = True
        else:
            self._credit += measure
            if self._credit > self.z:
                self._credit -= self.z
                admitted = True
        if admitted:
            if key is None:
                key = self._next_key
                self._next_key += 1
            self._samples[key] = SampledTuple(key, measure, self.z)
            self.admitted += 1
            if len(self._samples) > self.gamma * self.target:
                self._clean()
        return admitted

    def extend(self, measures: Iterable[float]) -> None:
        for measure in measures:
            self.offer(measure)

    # -- cleaning ------------------------------------------------------------------

    def _live_and_big(self) -> Tuple[int, int]:
        live = len(self._samples)
        big = sum(1 for s in self._samples.values() if s.measure > self.z)
        return live, big

    def _clean(self, target: Optional[int] = None) -> None:
        """Re-threshold and subsample (paper: adjust z, then subsample S)."""
        self.cleaning_phases += 1
        goal = target if target is not None else self.target
        live, big = self._live_and_big()
        z_prev = self.z
        if self.adjustment == "solve":
            weights = [max(s.measure, z_prev) for s in self._samples.values()]
            self.z = max(solve_threshold(weights, goal), z_prev)
        else:
            self.z = adjust_threshold(self.z, live, goal, big)
        if self.z <= z_prev:
            return
        survivors: Dict[Hashable, SampledTuple] = {}
        credit = 0.0
        for sample in self._samples.values():
            weight = max(sample.measure, z_prev)
            if weight > self.z:
                sample.floor = max(sample.floor, z_prev)
                survivors[sample.key] = sample
                continue
            credit += weight
            if credit > self.z:
                credit -= self.z
                sample.floor = max(sample.floor, z_prev)
                survivors[sample.key] = sample
        self._samples = survivors

    # -- window management -------------------------------------------------------------

    def close_window(self) -> WindowReport:
        """Final cleaning, report, and carryover into the next window.

        If the window *over*-collected, a final cleaning subsamples to the
        target (paper §4.4's last step).  If it *under*-collected and
        ``adjust_at_close`` is on, the threshold is re-estimated downward
        for the anticipated next window — and because the output
        threshold is read after this adjustment (paper §6.4: SELECT-clause
        stateful functions evaluate last), the window's estimate deflates
        by roughly ``live/target``.  This reconstruction reproduces the
        non-relaxed under-estimation of Fig 2; see DESIGN.md §4.
        """
        if len(self._samples) > self.target:
            self._clean(target=self.target)
        elif self.adjust_at_close and len(self._samples) < self.target:
            live, big = self._live_and_big()
            self.z = adjust_threshold(self.z, live, self.target, big)
        report = WindowReport(
            samples=list(self._samples.values()),
            z_final=self.z,
            cleaning_phases=self.cleaning_phases,
            admitted=self.admitted,
            estimated_sum=sum(
                s.adjusted_weight(self.z) for s in self._samples.values()
            ),
        )
        # Carryover (paper §4.4 + §7.1): next window's threshold starts at
        # the adapted value, divided by the relaxation factor.
        self.z = max(self.z / self.relax_factor, 1e-9)
        self._samples = {}
        self._credit = 0.0
        self.cleaning_phases = 0
        self.admitted = 0
        return report

    # -- introspection ---------------------------------------------------------------------

    @property
    def live_samples(self) -> int:
        return len(self._samples)

    def samples(self) -> List[SampledTuple]:
        return list(self._samples.values())


def estimate_sum(
    samples: Iterable[SampledTuple],
    z_final: float,
    predicate: Optional[Callable[[SampledTuple], bool]] = None,
) -> float:
    """Unbiased subset-sum estimate over samples matching ``predicate``."""
    total = 0.0
    for sample in samples:
        if predicate is None or predicate(sample):
            total += sample.adjusted_weight(z_final)
    return total
