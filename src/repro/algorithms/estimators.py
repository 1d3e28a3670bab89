"""Estimator statistics: bias/variance tooling for the sampling library.

The paper's §4.4 states that subset-sum sampling's "variance of the
subset sum over S is within a factor z" of optimal, and the whole point
of the sophisticated samplers is their variance advantage over uniform
sampling on heavy-tailed measures.  This module provides the measurement
kit the tests and the variance-comparison bench use:

* :func:`replicate` — run a sampler factory over many independent
  replications of a stream and collect one estimate per run;
* :class:`EstimatorReport` — bias, relative bias, standard error,
  relative RMSE of the collected estimates against the truth;
* :func:`threshold_variance_bound` — the analytic per-item variance of
  threshold sampling, ``Var[ŵ] = w·max(0, z−w)``, summed over a
  population (Duffield–Lund–Thorup), against which the empirical variance
  can be checked;
* :func:`subset_sum_variance_gap` — the analytic variance ratio between
  uniform (Bernoulli) sampling and threshold sampling at matched expected
  sample size, quantifying the paper's motivation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import ReproError


@dataclass(frozen=True)
class EstimatorReport:
    """Summary of replicated estimates against a known truth."""

    truth: float
    estimates: tuple

    @property
    def mean(self) -> float:
        return statistics.fmean(self.estimates)

    @property
    def bias(self) -> float:
        return self.mean - self.truth

    @property
    def relative_bias(self) -> float:
        if self.truth == 0:
            raise ReproError("relative bias undefined for zero truth")
        return self.bias / self.truth

    @property
    def std_error(self) -> float:
        if len(self.estimates) < 2:
            return 0.0
        return statistics.stdev(self.estimates)

    @property
    def variance(self) -> float:
        if len(self.estimates) < 2:
            return 0.0
        return statistics.variance(self.estimates)

    @property
    def relative_rmse(self) -> float:
        if self.truth == 0:
            raise ReproError("relative RMSE undefined for zero truth")
        mse = statistics.fmean((e - self.truth) ** 2 for e in self.estimates)
        return math.sqrt(mse) / abs(self.truth)

    def __str__(self) -> str:
        return (
            f"truth={self.truth:,.0f} mean={self.mean:,.0f}"
            f" rel.bias={self.relative_bias:+.3%}"
            f" rel.rmse={self.relative_rmse:.3%}"
            f" (n={len(self.estimates)})"
        )


def replicate(
    estimate_fn: Callable[[int], float],
    truth: float,
    replications: int = 30,
) -> EstimatorReport:
    """Collect ``replications`` estimates; ``estimate_fn(seed)`` must be a
    full independent run of the sampler returning one estimate."""
    if replications <= 0:
        raise ReproError("replications must be positive")
    estimates = tuple(estimate_fn(seed) for seed in range(replications))
    return EstimatorReport(truth=truth, estimates=estimates)


def threshold_variance_bound(weights: Iterable[float], z: float) -> float:
    """Analytic variance of the threshold-sampling total estimator.

    For inclusion probability ``min(1, w/z)`` and HT weight ``max(w, z)``:
    ``Var = Σ w·max(0, z − w)`` — zero for items above the threshold,
    at most ``z`` per unit of small-item mass.
    """
    if z <= 0:
        raise ReproError("threshold z must be positive")
    return sum(w * max(0.0, z - w) for w in weights)


def bernoulli_variance(weights: Iterable[float], p: float) -> float:
    """Analytic variance of inverse-probability-weighted Bernoulli
    sampling of the total: ``Σ w² (1−p)/p``."""
    if not 0.0 < p <= 1.0:
        raise ReproError("p must be in (0, 1]")
    return sum(w * w for w in weights) * (1.0 - p) / p


def subset_sum_variance_gap(weights: Sequence[float], sample_size: int) -> float:
    """Variance ratio (Bernoulli / threshold) at matched expected sample
    size — how much uniform sampling loses on this weight population.

    The matched Bernoulli rate is ``k/n``; the matched threshold ``z``
    solves ``Σ min(1, w/z) = k`` (reusing the cleaning-phase solver).
    Heavy-tailed weights push this ratio far above 1, which is the
    paper's §4.4 motivation in one number.
    """
    from repro.algorithms.subset_sum import solve_threshold

    n = len(weights)
    if n == 0:
        raise ReproError("weights must be non-empty")
    if not 0 < sample_size <= n:
        raise ReproError("need 0 < sample_size <= len(weights)")
    if sample_size == n:
        return 1.0
    p = sample_size / n
    z = solve_threshold(list(weights), sample_size)
    threshold_var = threshold_variance_bound(weights, z) if z > 0 else 0.0
    bernoulli_var = bernoulli_variance(weights, p)
    if threshold_var == 0.0:
        return math.inf if bernoulli_var > 0 else 1.0
    return bernoulli_var / threshold_var
