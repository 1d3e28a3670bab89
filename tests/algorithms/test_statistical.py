"""Statistical invariants of the sampling algorithms (fixed seeds).

Two properties the paper's algorithms promise, checked empirically:

* Priority sampling includes each item with probability min(1, w/tau)
  and its estimator Sum max(w, tau) is unbiased for the total.
* The fixed-threshold subset-sum pack (``ssbasic``, run through the
  operator by ``BASIC_SUBSET_SUM_QUERY``) keeps its estimate within one
  threshold of the truth: |Sum max(len, z) - Sum len| <= z, and every
  tuple bigger than z is sampled.  The credit counter left unemitted at
  the end is the whole difference.

The reservoir pack's uniformity is checked through its query in
``test_bindings.py`` (``TestReservoirQuery``).
"""

import random

import pytest

from repro.algorithms.bindings import BASIC_SUBSET_SUM_QUERY, basic_subset_sum_library
from repro.algorithms.priority import PrioritySampler
from repro.dsms.runtime import Gigascope
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA

class TestPriorityInclusion:
    WEIGHTS = [1.0] * 10 + [10.0] * 10 + [100.0] * 5 + [1000.0] * 5
    K = 10
    TRIALS = 1500

    def run_trials(self):
        included = [0] * len(self.WEIGHTS)
        expected = [0.0] * len(self.WEIGHTS)
        estimates = []
        for trial in range(self.TRIALS):
            sampler = PrioritySampler(self.K, rng=random.Random(trial))
            for key, weight in enumerate(self.WEIGHTS):
                sampler.offer(weight, key=key)
            tau = sampler.tau
            for item in sampler.sample():
                included[item.key] += 1
            for key, weight in enumerate(self.WEIGHTS):
                expected[key] += min(1.0, weight / tau)
            estimates.append(sampler.estimate_sum())
        return included, expected, estimates

    def test_inclusion_probability_is_min_one_w_over_tau(self):
        included, expected, _ = self.run_trials()
        for key in range(len(self.WEIGHTS)):
            empirical = included[key] / self.TRIALS
            predicted = expected[key] / self.TRIALS
            # ~5 binomial standard errors at T=1500 is under 0.065.
            assert abs(empirical - predicted) < 0.07, (
                key,
                self.WEIGHTS[key],
                empirical,
                predicted,
            )

    def test_estimator_is_unbiased_for_the_total(self):
        _, _, estimates = self.run_trials()
        actual = sum(self.WEIGHTS)
        mean = sum(estimates) / len(estimates)
        assert abs(mean - actual) / actual < 0.03, (mean, actual)

    def test_heaviest_items_are_always_included(self):
        included, _, _ = self.run_trials()
        # w = 1000 >> tau in every trial: inclusion probability 1.
        for key in range(len(self.WEIGHTS) - 5, len(self.WEIGHTS)):
            assert included[key] == self.TRIALS


def ssbasic(lengths, z):
    """Feed one packet per length through BASIC_SUBSET_SUM_QUERY; return
    the sampled ``(uts, len)`` pairs (``uts`` is the packet's position)."""
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(basic_subset_sum_library())
    handle = gs.add_query(BASIC_SUBSET_SUM_QUERY.format(z=z), name="basic")
    gs.run(
        Record(TCP_SCHEMA, (0, uts, 1, 2, length, 1024, 80, 6))
        for uts, length in enumerate(lengths)
    )
    return [(row["uts"], row["len"]) for row in handle.results]


class TestSubsetSumOneSidedError:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("z", [40.0, 500.0, 1500.0, 5000.0])
    def test_credit_counter_error_bound(self, seed, z):
        rng = random.Random(seed)
        weights = [rng.randint(40, 1500) for _ in range(2000)]
        sampled = ssbasic(weights, z)
        estimate = sum(max(length, z) for _, length in sampled)
        actual = sum(weights)
        # The unemitted credit is the only difference, and it never
        # exceeds z.
        assert abs(estimate - actual) <= z, (estimate, actual, z)
        # Big tuples are always sampled.
        big = {uts for uts, length in enumerate(weights) if length > z}
        assert big <= {uts for uts, _ in sampled}

    def test_big_tuples_are_always_sampled_exactly(self):
        weights = [500, 900, 101]
        sampled = ssbasic(weights, 100.0)
        assert [length for _, length in sampled] == weights
        assert sum(max(length, 100.0) for _, length in sampled) == sum(weights)

    def test_all_small_stream_underestimates_by_less_than_z(self):
        z = 250.0
        weights = [10] * 1000
        sampled = ssbasic(weights, z)
        estimate = sum(max(length, z) for _, length in sampled)
        assert abs(estimate - sum(weights)) <= z
        # Every emitted sample carries weight exactly z here.
        assert estimate == len(sampled) * z
