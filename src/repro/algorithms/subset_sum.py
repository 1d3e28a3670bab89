"""Subset-sum (threshold) sampling (paper §4.4; Duffield–Lund–Thorup).

Given tuples ``(C, x)`` with measure ``x``, the sample supports unbiased
estimation of ``sum(x)`` over any color subset: each tuple is sampled
with probability ``min(1, x/z)`` and a sampled tuple's adjusted weight is
``max(x, z)``.  Large tuples are always kept; small tuples are sampled by
a running *credit counter*: add ``x`` to the counter, and whenever it
exceeds ``z`` subtract ``z`` and keep the tuple.

The sampler itself is the SFUN pack that queries run
(:mod:`repro.algorithms.bindings`): ``basic_subset_sum_library`` is the
fixed-``z`` algorithm (the paper's selection-operator baseline and the
low-level prefilter of Fig 6), and ``subset_sum_library`` the dynamic one
with a fixed target sample size ``N`` — cleaning phases re-threshold and
subsample whenever the live sample exceeds ``γ·N``, a final cleaning
enforces ``|S| ≈ N`` at the window border, and the threshold carries over
between windows.  The *relaxed* variant (paper §7.1 — the re-engineering
the paper contributes) initialises the next window's threshold at ``z/f``
(default ``f=10``), assuming the next window's load may be as little as
``1/f`` of the current one; upward adaptation is cheap (cleaning phases)
while downward adaptation within a window is impossible, which is exactly
why the non-relaxed version under-samples after load drops.

This module keeps the two re-threshold rules the pack calls:

* :func:`adjust_threshold` — the paper's "aggressive" z-adjustment rule;
* :func:`solve_threshold` — the exact solution of the same goal.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List

from repro.errors import ReproError


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
