"""Uniform sampling baselines (STREAM SAMPLE / Aurora DROP)."""

import random

import pytest

from repro.errors import ReproError
from repro.algorithms.uniform import BernoulliSampler, DropSampler


class TestBernoulli:
    def test_sampling_rate(self):
        sampler = BernoulliSampler(0.1, random.Random(1))
        kept = sum(1 for _ in range(20_000) if sampler.offer())
        assert kept == pytest.approx(2000, rel=0.15)

    def test_probability_one_keeps_everything(self):
        sampler = BernoulliSampler(1.0, random.Random(2))
        assert all(sampler.offer() for _ in range(100))

    def test_estimate_sum_unbiased(self):
        rng = random.Random(3)
        data = [rng.randint(40, 1500) for _ in range(20_000)]
        estimates = []
        for seed in range(30):
            sampler = BernoulliSampler(0.05, random.Random(seed))
            kept = [x for x in data if sampler.offer()]
            estimates.append(sampler.estimate_sum(kept))
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(sum(data), rel=0.03)

    def test_counters(self):
        sampler = BernoulliSampler(0.5, random.Random(4))
        for _ in range(100):
            sampler.offer()
        assert sampler.offered == 100
        assert 0 < sampler.sampled < 100

    def test_invalid_probability(self):
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(ReproError):
                BernoulliSampler(p)


class TestDrop:
    def test_keeps_exactly_one_in_k(self):
        sampler = DropSampler(keep_one_in=5)
        kept = sum(1 for _ in range(100) if sampler.offer())
        assert kept == 20

    def test_phase_controls_which(self):
        a = DropSampler(keep_one_in=4, phase=0)
        b = DropSampler(keep_one_in=4, phase=2)
        pattern_a = [a.offer() for _ in range(8)]
        pattern_b = [b.offer() for _ in range(8)]
        assert pattern_a == [True, False, False, False] * 2
        assert pattern_b == [False, False, True, False] * 2

    def test_estimate_exact_on_uniform_measures(self):
        sampler = DropSampler(keep_one_in=10)
        data = [100] * 1000
        kept = [x for x in data if sampler.offer()]
        assert sampler.estimate_sum(kept) == sum(data)

    def test_systematic_bias_on_periodic_input(self):
        # A period-4 burst pattern aliases with a period-4 drop: the
        # weakness of systematic sampling the docstring warns about.
        sampler = DropSampler(keep_one_in=4, phase=0)
        data = [1000 if i % 4 == 0 else 10 for i in range(1000)]
        kept = [x for x in data if sampler.offer()]
        estimate = sampler.estimate_sum(kept)
        assert estimate > 2 * sum(data)  # aliased: every kept tuple is a burst

    def test_validation(self):
        with pytest.raises(ReproError):
            DropSampler(0)
        with pytest.raises(ReproError):
            DropSampler(4, phase=4)
