"""Subset-sum re-threshold rules: the paper's aggressive one and the exact solve.

The sampler itself is the SFUN pack; its tests run it through the
operator (``test_bindings.py``, ``test_statistical.py``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.algorithms.subset_sum import adjust_threshold, solve_threshold


class TestAdjustThreshold:
    def test_undersampled_scales_down(self):
        assert adjust_threshold(100.0, live=50, target=100, big=0) == 50.0

    def test_empty_halves(self):
        assert adjust_threshold(100.0, live=0, target=100, big=0) == 50.0

    def test_oversampled_scales_up(self):
        # (live - big) / (target - big) = (200-0)/(100-0) = 2
        assert adjust_threshold(100.0, live=200, target=100, big=0) == 200.0

    def test_never_decreases_when_oversampled(self):
        assert adjust_threshold(100.0, live=100, target=100, big=0) == 100.0

    def test_big_fallback_when_b_exceeds_target(self):
        # B >= M: the closed form's denominator vanishes; proportional rule.
        assert adjust_threshold(100.0, live=200, target=100, big=150) == 200.0

    def test_validation(self):
        with pytest.raises(ReproError):
            adjust_threshold(0.0, 1, 1, 0)
        with pytest.raises(ReproError):
            adjust_threshold(1.0, 1, 0, 0)
        with pytest.raises(ReproError):
            adjust_threshold(1.0, 1, 1, 2)  # big > live


class TestSolveThreshold:
    def expected_survivors(self, weights, z):
        big = sum(1 for w in weights if w > z)
        small = sum(w for w in weights if w <= z)
        return big + small / z

    def test_no_adjustment_needed_when_under_target(self):
        assert solve_threshold([1.0, 2.0], target=5) == 0.0

    def test_hits_target_exactly_mixed(self):
        weights = [10.0] * 50 + [1000.0] * 5
        z = solve_threshold(weights, target=20)
        assert self.expected_survivors(weights, z) == pytest.approx(20, rel=1e-9)

    def test_all_small_case(self):
        weights = [10.0] * 100
        z = solve_threshold(weights, target=10)
        assert z == pytest.approx(100.0)

    def test_capped_sizes_no_overshoot(self):
        # The pathological case that breaks the aggressive rule: many
        # samples just under the old threshold.
        weights = [1400.0] * 99 + [1500.0] * 102
        z = solve_threshold(weights, target=100)
        assert self.expected_survivors(weights, z) == pytest.approx(100, rel=0.05)
        assert z < 10_000  # the aggressive rule would produce ~100x more

    def test_respects_z_min(self):
        assert solve_threshold([1.0] * 10, target=2, z_min=100.0) == 100.0

    def test_invalid_target(self):
        with pytest.raises(ReproError):
            solve_threshold([1.0], 0)

    @staticmethod
    def by_loop(weights, target, z_min=0.0):
        """The solver as an explicit suffix-sum loop: the reference the
        accumulated form must equal bit for bit (the same additions in
        the same order)."""
        n = len(weights)
        if n <= target:
            return max(z_min, 0.0)
        ordered = sorted(weights, reverse=True)
        suffix = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] + ordered[i]
        for k in range(0, target):
            z = suffix[k] / (target - k)
            upper = ordered[k - 1] if k > 0 else float("inf")
            if ordered[k] <= z < upper:
                return max(z, z_min)
        return max(suffix[0] / target, z_min)

    def test_equals_the_suffix_loop_bit_for_bit(self):
        rng = random.Random(11)
        for i in range(3000):
            n = rng.randint(1, 400)
            draw = (lambda: rng.uniform(0, 1500), lambda: rng.randint(40, 1500),
                    lambda: 40 * rng.paretovariate(1.2))[i % 3]
            weights = [draw() for _ in range(n)]
            target, z_min = rng.randint(1, n), rng.choice([0.0, rng.uniform(0, 500)])
            expected = self.by_loop(weights, target, z_min)
            assert repr(solve_threshold(weights, target, z_min)) == repr(expected)

    @given(
        st.lists(st.floats(1, 10_000), min_size=1, max_size=300),
        st.integers(1, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_expected_survivors_near_target(self, weights, target):
        z = solve_threshold(weights, target)
        if len(weights) <= target:
            assert z == 0.0
            return
        assert z > 0
        survivors = self.expected_survivors(weights, z)
        # Ties at the breakpoint can undershoot slightly; never overshoot.
        assert survivors <= target + 1e-6
        assert survivors >= min(target, len(weights)) * 0.5
