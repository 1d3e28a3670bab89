"""Subset-sum sampling: basic, adjustment rules, dynamic sampler."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.algorithms.subset_sum import (
    DynamicSubsetSumSampler,
    SampledTuple,
    ThresholdSampler,
    adjust_threshold,
    estimate_sum,
    solve_threshold,
)


def lengths(n=2000, seed=3):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        u = rng.random()
        if u < 0.5:
            out.append(rng.randint(40, 80))
        elif u < 0.7:
            out.append(rng.randint(300, 700))
        else:
            out.append(rng.randint(1300, 1500))
    return out


class TestThresholdSampler:
    def test_large_tuples_always_sampled(self):
        sampler = ThresholdSampler(z=100)
        assert all(sampler.offer(x) for x in (101, 500, 10_000))

    def test_credit_counter_emits_one_per_z_mass(self):
        sampler = ThresholdSampler(z=1000)
        sampled = sum(1 for _ in range(100) if sampler.offer(100))
        # 100 tuples x 100 bytes = 10,000 mass -> ~10 samples
        assert sampled in (9, 10)

    def test_estimate_conserves_total(self):
        # The credit variant guarantees: estimate <= actual < estimate + z.
        z = 5000.0
        sampler = ThresholdSampler(z)
        data = lengths()
        estimate = sum(
            sampler.adjusted_weight(x) for x in data if sampler.offer(x)
        )
        actual = sum(data)
        assert estimate <= actual < estimate + z

    def test_adjusted_weight(self):
        sampler = ThresholdSampler(z=100)
        assert sampler.adjusted_weight(50) == 100
        assert sampler.adjusted_weight(500) == 500

    def test_negative_measure_rejected(self):
        with pytest.raises(ReproError):
            ThresholdSampler(10).offer(-1)

    def test_invalid_z(self):
        with pytest.raises(ReproError):
            ThresholdSampler(0)

    @given(st.lists(st.floats(0, 10_000), max_size=500),
           st.floats(1, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_property_conservation(self, data, z):
        sampler = ThresholdSampler(z)
        estimate = sum(
            sampler.adjusted_weight(x) for x in data if sampler.offer(x)
        )
        actual = sum(data)
        assert estimate <= actual + 1e-6
        assert actual < estimate + z + 1e-6


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


class TestDynamicSampler:
    def run_windows(self, sampler, window_data):
        reports = []
        for data in window_data:
            for x in data:
                sampler.offer(x)
            reports.append(sampler.close_window())
        return reports

    def test_sample_size_near_target_on_steady_load(self):
        sampler = DynamicSubsetSumSampler(target=100, relax_factor=10.0)
        reports = self.run_windows(sampler, [lengths(seed=s) for s in range(4)])
        for report in reports[1:]:
            assert len(report.samples) <= 100
            assert len(report.samples) >= 80

    def test_relaxed_estimates_accurate(self):
        sampler = DynamicSubsetSumSampler(target=100, relax_factor=10.0)
        window_data = [lengths(seed=s) for s in range(4)]
        reports = self.run_windows(sampler, window_data)
        for data, report in list(zip(window_data, reports))[1:]:
            assert report.estimated_sum == pytest.approx(sum(data), rel=0.1)

    def test_nonrelaxed_underestimates_after_load_drop(self):
        sampler = DynamicSubsetSumSampler(target=100, relax_factor=1.0)
        heavy = lengths(n=20_000, seed=1)
        light = lengths(n=1000, seed=2)
        self.run_windows(sampler, [heavy])
        report = self.run_windows(sampler, [light])[0]
        # Under-collection plus the end-of-window threshold re-estimation
        # deflates the estimate (paper Fig 2 behaviour).
        assert len(report.samples) < 60
        assert report.estimated_sum < 0.7 * sum(light)

    def test_relaxed_recovers_from_load_drop(self):
        # f=10 absorbs load drops up to 10x; the paper's feed varies ~3x.
        sampler = DynamicSubsetSumSampler(target=100, relax_factor=10.0)
        heavy = lengths(n=20_000, seed=1)
        light = lengths(n=4000, seed=2)
        self.run_windows(sampler, [heavy])
        report = self.run_windows(sampler, [light])[0]
        assert report.estimated_sum == pytest.approx(sum(light), rel=0.15)

    def test_relaxed_uses_more_cleanings(self):
        window_data = [lengths(seed=s) for s in range(4)]
        relaxed = DynamicSubsetSumSampler(target=100, relax_factor=10.0)
        nonrelaxed = DynamicSubsetSumSampler(target=100, relax_factor=1.0)
        relaxed_reports = self.run_windows(relaxed, window_data)
        nonrelaxed_reports = self.run_windows(nonrelaxed, window_data)
        relaxed_cleanings = sum(r.cleaning_phases for r in relaxed_reports[1:])
        nonrelaxed_cleanings = sum(r.cleaning_phases for r in nonrelaxed_reports[1:])
        assert relaxed_cleanings > nonrelaxed_cleanings

    def test_live_sample_bounded_by_gamma(self):
        sampler = DynamicSubsetSumSampler(target=50, gamma=2.0)
        for x in lengths(n=10_000):
            sampler.offer(x)
            assert sampler.live_samples <= 2 * 50 + 1

    def test_adjust_at_close_ablation_removes_bias(self):
        heavy = lengths(n=20_000, seed=1)
        light = lengths(n=1000, seed=2)
        sampler = DynamicSubsetSumSampler(
            target=100, relax_factor=1.0, adjust_at_close=False
        )
        self.run_windows(sampler, [heavy])
        report = self.run_windows(sampler, [light])[0]
        # Without the end-of-window re-estimation the credit-counter
        # estimator is conservative but tight: within one z of the truth.
        assert report.estimated_sum <= sum(light)
        assert report.estimated_sum > sum(light) - report.z_final - 1

    def test_aggressive_rule_selectable(self):
        sampler = DynamicSubsetSumSampler(target=50, adjustment="aggressive")
        for x in lengths(n=5000):
            sampler.offer(x)
        assert sampler.cleaning_phases >= 1

    def test_invalid_configs(self):
        with pytest.raises(ReproError):
            DynamicSubsetSumSampler(target=0)
        with pytest.raises(ReproError):
            DynamicSubsetSumSampler(target=10, gamma=1.0)
        with pytest.raises(ReproError):
            DynamicSubsetSumSampler(target=10, relax_factor=0.5)
        with pytest.raises(ReproError):
            DynamicSubsetSumSampler(target=10, z_init=0)
        with pytest.raises(ReproError):
            DynamicSubsetSumSampler(target=10, adjustment="magic")

    def test_negative_measure_rejected(self):
        with pytest.raises(ReproError):
            DynamicSubsetSumSampler(target=10).offer(-5)


class TestEstimateSum:
    def test_with_predicate(self):
        samples = [
            SampledTuple(key=0, measure=50, floor=100),
            SampledTuple(key=1, measure=500, floor=100),
        ]
        total = estimate_sum(samples, z_final=100)
        assert total == 100 + 500
        only_big = estimate_sum(samples, z_final=100,
                                predicate=lambda s: s.measure > 100)
        assert only_big == 500
