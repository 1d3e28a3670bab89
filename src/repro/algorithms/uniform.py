"""Uniform row sampling: the baselines other DSMSs ship.

Paper §1/§2: "Many of them support random sampling, including the DROP
operator of Aurora, the SAMPLE keyword in STREAM, and sampling functions
in Gigascope.  Still, these are uniform sampling operators."  This module
provides those baselines so the sophisticated samplers have something to
be compared against:

* :class:`BernoulliSampler` — keep each tuple independently with
  probability p (STREAM's ``SAMPLE``);
* :class:`DropSampler` — Aurora's load-shedding ``DROP``: pass 1 of
  every k tuples deterministically (a systematic sample).

Both support sum estimation by inverse-probability weighting, which the
tests compare against subset-sum sampling to demonstrate the variance gap
on heavy-tailed measures (the reason the networking community built
subset-sum sampling at all).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from repro.errors import ReproError


class BernoulliSampler:
    """Independent coin-flip sampling (STREAM's SAMPLE keyword)."""

    def __init__(self, probability: float, rng: Optional[random.Random] = None) -> None:
        if not 0.0 < probability <= 1.0:
            raise ReproError("sampling probability must be in (0, 1]")
        self.probability = probability
        self._rng = rng or random.Random(0xB0B)
        self.offered = 0
        self.sampled = 0

    def offer(self, _item: object = None) -> bool:
        self.offered += 1
        if self._rng.random() < self.probability:
            self.sampled += 1
            return True
        return False

    def weight(self) -> float:
        """Inverse-probability weight of every sampled tuple."""
        return 1.0 / self.probability

    def estimate_sum(self, sampled_measures: Iterable[float]) -> float:
        """Horvitz–Thompson estimate of the total from sampled measures."""
        return sum(sampled_measures) * self.weight()


class DropSampler:
    """Aurora-style DROP: deterministically keep 1 in every k tuples.

    A systematic sample: zero randomness, perfectly smooth output rate —
    which is why load shedders like it — but correlated with any
    periodicity in the input.
    """

    def __init__(self, keep_one_in: int, phase: int = 0) -> None:
        if keep_one_in <= 0:
            raise ReproError("keep_one_in must be positive")
        if not 0 <= phase < keep_one_in:
            raise ReproError("phase must be in [0, keep_one_in)")
        self.keep_one_in = keep_one_in
        self.phase = phase
        self._counter = 0
        self.sampled = 0

    def offer(self, _item: object = None) -> bool:
        keep = self._counter % self.keep_one_in == self.phase
        self._counter += 1
        if keep:
            self.sampled += 1
        return keep

    def weight(self) -> float:
        return float(self.keep_one_in)

    def estimate_sum(self, sampled_measures: Iterable[float]) -> float:
        return sum(sampled_measures) * self.weight()

