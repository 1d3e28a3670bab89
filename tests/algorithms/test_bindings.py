"""SFUN packs running inside the sampling operator: the §6.6 queries."""

from collections import Counter, defaultdict

import pytest

from repro.dsms.functions import hash32
from repro.dsms.runtime import Gigascope
from repro.errors import ReproError
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed
from repro.algorithms.bindings import (
    BASIC_SUBSET_SUM_QUERY,
    HEAVY_HITTERS_QUERY,
    MIN_HASH_QUERY,
    PREFILTER_QUERY,
    RESERVOIR_QUERY,
    SUBSET_SUM_QUERY,
    basic_subset_sum_library,
    heavy_hitters_library,
    reservoir_library,
    subset_sum_library,
    subset_sum_query,
)

# Chi-squared critical value, df = 19, alpha = 0.001 (no scipy dependency).
CHI2_CRIT_DF19 = 43.82


def trace(duration=60, scale=0.01, seed=77):
    config = TraceConfig(duration_seconds=duration, rate_scale=scale, seed=seed)
    return list(research_center_feed(config))


def fresh_gigascope(*libraries):
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    for library in libraries:
        gs.use_stateful_library(library)
    return gs


REFUSED_SETTINGS = [
    (subset_sum_library, "z_init", 0.0, "z_init must be positive"),
    (subset_sum_library, "z_init", -1.0, "z_init must be positive"),
    (subset_sum_library, "gamma", 1.0, "gamma must exceed 1"),
    (subset_sum_library, "gamma", 0.5, "gamma must exceed 1"),
    (subset_sum_library, "relax_factor", 0.5, "relax_factor must be >= 1"),
    (subset_sum_library, "adjustment", "magic", "adjustment must be"),
    (reservoir_library, "tolerance", 1, "tolerance T must exceed 1"),
    (reservoir_library, "tolerance", 0, "tolerance T must exceed 1"),
    (heavy_hitters_library, "bucket_width", 0, "bucket_width must be at least 1"),
]


class TestPackArguments:
    """Each pack refuses, at construction, a setting it cannot run."""

    @pytest.mark.parametrize(
        "factory, name, value, message",
        REFUSED_SETTINGS,
        ids=[f"{f.__name__}-{name}={value}" for f, name, value, _ in REFUSED_SETTINGS],
    )
    def test_refuses_a_setting_it_cannot_run(self, factory, name, value, message):
        with pytest.raises(ReproError, match=message):
            factory(**{name: value})


class TestSubsetSumQuery:
    def run(self, relax, target=100, data=None, **options):
        gs = fresh_gigascope(subset_sum_library(relax_factor=relax, **options))
        handle = gs.add_query(SUBSET_SUM_QUERY.format(window=20, target=target),
                              name="ss")
        gs.run(iter(data if data is not None else trace()))
        return handle

    @staticmethod
    def mean_error(handle, data):
        """Mean relative error of the per-window sum estimates, first
        window (the threshold's warm-up) left out."""
        actual = defaultdict(int)
        for record in data:
            actual[record["time"] // 20] += record["len"]
        estimates = defaultdict(float)
        for row in handle.results:
            estimates[row["tb"]] += row[3]
        windows = sorted(actual)[1:]
        return sum(abs(1 - estimates[w] / actual[w]) for w in windows) / len(windows)

    def test_final_sample_near_target(self):
        handle = self.run(relax=10.0)
        for stats in handle.operator.window_stats:
            assert stats.output_tuples <= 100
            assert stats.output_tuples >= 80

    def test_estimates_accurate_relaxed(self):
        data = trace(duration=100)
        handle = self.run(relax=10.0, data=data)
        actual = defaultdict(int)
        for record in data:
            actual[record["time"] // 20] += record["len"]
        estimates = defaultdict(float)
        for row in handle.results:
            estimates[row["tb"]] += row[3]
        for window in list(actual)[1:]:
            assert estimates[window] == pytest.approx(actual[window], rel=0.15)

    def test_nonrelaxed_understates_after_drops(self):
        data = trace(duration=200, seed=123)
        relaxed = self.run(relax=10.0, data=data)
        nonrelaxed = self.run(relax=1.0, data=data)
        assert self.mean_error(relaxed, data) < self.mean_error(nonrelaxed, data)

    def test_adjust_at_close_ablation_removes_bias(self):
        # The non-relaxed under-estimate comes from re-estimating z at the
        # window's close before ssthreshold() is read (DESIGN.md §4):
        # without that step the same run's error all but vanishes.
        data = trace(duration=200, seed=123)
        default = self.run(relax=1.0, data=data)
        ablated = self.run(relax=1.0, data=data, adjust_at_close=False)
        assert self.mean_error(ablated, data) < self.mean_error(default, data) / 3

    def test_relaxed_runs_more_cleanings(self):
        data = trace(duration=100)
        relaxed = self.run(relax=10.0, data=data)
        nonrelaxed = self.run(relax=1.0, data=data)
        total = lambda handle: sum(
            s.cleaning_phases for s in handle.operator.window_stats[1:]
        )
        assert total(relaxed) > total(nonrelaxed)

    @pytest.mark.parametrize("gamma", [1.5, 4.0])
    def test_live_sample_bounded_by_gamma(self, gamma):
        # A cleaning phase runs as soon as the live sample passes γN.
        handle = self.run(relax=10.0, target=50, gamma=gamma)
        for stats in handle.operator.window_stats:
            assert stats.cleaning_phases >= 1
            assert stats.peak_groups <= gamma * 50 + 1

    def test_output_weights_are_floored(self):
        handle = self.run(relax=10.0)
        # UMAX(sum(len), ssthreshold()): every output weight >= packet size.
        assert all(row[3] >= 40 for row in handle.results)

    def test_query_builder_changes_stream(self):
        text = subset_sum_query(window=5, target=10, stream="feeder")
        assert "FROM feeder" in text


class TestBasicSubsetSumSelection:
    def test_sampling_fraction(self):
        data = trace()
        total = sum(r["len"] for r in data)
        z = total / 200
        gs = fresh_gigascope(basic_subset_sum_library())
        handle = gs.add_query(BASIC_SUBSET_SUM_QUERY.format(z=z), name="basic")
        gs.run(iter(data))
        # ~200 samples expected from the credit counter (+ large packets).
        assert 150 <= len(handle.results) <= 400

    def test_prefilter_floors_lengths(self):
        data = trace()
        z = 500.0
        gs = fresh_gigascope(basic_subset_sum_library())
        handle = gs.add_query(PREFILTER_QUERY.format(z=z), name="pre")
        gs.run(iter(data))
        assert all(row["len"] >= z for row in handle.results)

    def test_prefilter_feeds_dynamic_sampler(self):
        data = trace(duration=100)
        total = sum(r["len"] for r in data) / 5  # per-20s-window volume
        z_dyn = total / 100
        gs = fresh_gigascope(basic_subset_sum_library(), subset_sum_library(
            relax_factor=10.0))
        gs.add_query(PREFILTER_QUERY.format(z=z_dyn / 10), name="pre",
                     keep_results=False)
        handle = gs.add_query(
            subset_sum_query(window=20, target=100, stream="pre"), name="ss"
        )
        gs.run(iter(data))
        actual = defaultdict(int)
        for record in data:
            actual[record["time"] // 20] += record["len"]
        estimates = defaultdict(float)
        for row in handle.results:
            estimates[row["tb"]] += row[3]
        for window in sorted(actual)[1:]:
            assert estimates[window] == pytest.approx(actual[window], rel=0.2)


class TestHeavyHittersQuery:
    def test_no_false_negatives_against_exact_counts(self):
        data = trace(duration=60, scale=0.02)
        gs = fresh_gigascope(heavy_hitters_library(bucket_width=100))
        handle = gs.add_query(
            HEAVY_HITTERS_QUERY.format(window=60, bucket=100), name="hh"
        )
        gs.run(iter(data))

        survivors = {row["srcIP"] for row in handle.results}
        truth = Counter(r["srcIP"] for r in data)
        n = len(data)
        support = 0.02
        # No false negatives: every true heavy source survives the query's
        # cleaning (its count(*) can't be pruned).
        for src, count in truth.items():
            if count >= support * n:
                assert src in survivors
        # The survivor set is a small fraction of the distinct sources.
        assert len(survivors) < len(truth) / 2

    def test_counts_undercount_at_most_bucket(self):
        data = trace(duration=60, scale=0.02)
        gs = fresh_gigascope(heavy_hitters_library(bucket_width=100))
        handle = gs.add_query(
            HEAVY_HITTERS_QUERY.format(window=60, bucket=100), name="hh"
        )
        gs.run(iter(data))
        truth = Counter(r["srcIP"] for r in data)
        buckets = len(data) // 100 + 1
        for row in handle.results:
            true = truth[row["srcIP"]]
            assert row[3] <= true
            assert true - row[3] <= buckets

    def test_a_zero_bucket_is_refused_by_name(self):
        # It used to leave the run with ``ZeroDivisionError: integer
        # modulo by zero`` from inside the SFUN.
        gs = fresh_gigascope(heavy_hitters_library())
        gs.add_query(HEAVY_HITTERS_QUERY.format(window=60, bucket=0), name="hh")
        with pytest.raises(ReproError, match=r"local_count\(0\): the bucket width must be at least 1"):
            gs.run(iter(trace(duration=4)))


class TestReservoirQuery:
    def run_query(self, data, target=50, tolerance=5):
        gs = fresh_gigascope(reservoir_library(tolerance=tolerance))
        handle = gs.add_query(
            RESERVOIR_QUERY.format(window=30, target=target), name="rs"
        )
        gs.run(iter(data))
        return handle

    def test_exact_target_per_window(self):
        handle = self.run_query(trace(duration=90, scale=0.02))
        for stats in handle.operator.window_stats:
            assert stats.output_tuples == 50

    def test_admissions_exceed_target(self):
        handle = self.run_query(trace(duration=90, scale=0.02))
        for stats in handle.operator.window_stats:
            assert stats.tuples_admitted >= 50

    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("size", [0, -3])
    def test_rsample_refuses_a_size_below_one(self, size):
        # Its skip draw never ends for n < 1, so the run would hang.
        with pytest.raises(ReproError, match="reservoir size n must be positive"):
            self.run_query(trace(duration=4, scale=0.01, seed=7), target=size)

    def test_samples_roughly_uniform_over_window(self):
        # One window, one run per seed: a uniform sample of n from N puts
        # each arrival position in it with probability n/N, so the sampled
        # positions, binned by arrival order, pass a chi-squared test of
        # fit to the bin sizes.  Seeds are fixed, so it cannot flake.
        data = trace(duration=2, scale=0.01, seed=5)
        position = {record["uts"]: i for i, record in enumerate(data)}
        query = RESERVOIR_QUERY.replace("SELECT tb, srcIP, destIP", "SELECT tb, uts")
        target, bins, trials = 10, 20, 300
        counts = [0] * bins
        cleanings = 0
        for seed in range(trials):
            gs = fresh_gigascope(reservoir_library(tolerance=2, seed=seed))
            handle = gs.add_query(query.format(window=10, target=target), name="rs")
            gs.run(iter(data))
            assert len(handle.results) == target
            cleanings += handle.operator.window_stats[0].cleaning_phases
            for row in handle.results:
                counts[position[row["uts"]] * bins // len(data)] += 1
        assert cleanings > trials  # the replay walk ran, not just admission
        sizes = Counter(i * bins // len(data) for i in range(len(data)))
        expected = [trials * target * sizes[b] / len(data) for b in range(bins)]
        chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
        assert chi2 < CHI2_CRIT_DF19, (chi2, counts)


class TestMinHashQuery:
    def test_matches_exact_k_minimum_hashes(self):
        data = trace(duration=30, scale=0.05, seed=9)
        gs = fresh_gigascope()
        handle = gs.add_query(MIN_HASH_QUERY.format(window=30, k=20), name="mh")
        gs.run(iter(data))

        per_source = defaultdict(set)
        for row in handle.results:
            per_source[row["srcIP"]].add(row["HX"])

        busiest = Counter(r["srcIP"] for r in data).most_common(3)
        for src, _count in busiest:
            hashes = {hash32(r["destIP"]) for r in data if r["srcIP"] == src}
            assert per_source[src] == set(sorted(hashes)[:20])
