"""The two synthetic feeds and the DDoS scenario."""

import hashlib
from collections import deque
from itertools import islice

import pytest

from repro.errors import StreamError
from repro.streams.schema import TCP_SCHEMA
from repro.streams.traces import (
    TraceConfig,
    data_center_feed,
    ddos_feed,
    replay,
    research_center_feed,
)

from tests._calls import python_calls


def small(duration=30, scale=0.005, seed=42):
    return TraceConfig(duration_seconds=duration, rate_scale=scale, seed=seed)


class TestTraceConfig:
    def test_validation(self):
        with pytest.raises(StreamError):
            TraceConfig(duration_seconds=0)
        with pytest.raises(StreamError):
            TraceConfig(rate_scale=0)


class TestResearchCenterFeed:
    def test_deterministic_for_seed(self):
        a = list(research_center_feed(small()))
        b = list(research_center_feed(small()))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(research_center_feed(small(seed=1)))
        b = list(research_center_feed(small(seed=2)))
        assert a != b

    def test_time_monotone_nondecreasing(self):
        trace = list(research_center_feed(small()))
        times = [r["time"] for r in trace]
        assert times == sorted(times)

    def test_uts_strictly_increasing(self):
        trace = list(research_center_feed(small()))
        uts = [r["uts"] for r in trace]
        assert all(a < b for a, b in zip(uts, uts[1:]))

    def test_schema_is_tcp(self):
        record = next(research_center_feed(small()))
        assert record.schema is TCP_SCHEMA

    def test_rate_bounds_scaled(self):
        config = small(duration=120, scale=0.01)
        trace = list(research_center_feed(config))
        per_second = {}
        for record in trace:
            per_second[record["time"]] = per_second.get(record["time"], 0) + 1
        # 5k-15k pps scaled by 0.01, with 15% within-regime noise
        assert min(per_second.values()) >= 5_000 * 0.01 * 0.8
        assert max(per_second.values()) <= 15_000 * 0.01 * 1.25

    def test_covers_every_second(self):
        config = small(duration=25)
        trace = list(research_center_feed(config))
        assert {r["time"] for r in trace} == set(range(25))


class TestDataCenterFeed:
    def test_steady_rate(self):
        config = TraceConfig(duration_seconds=30, rate_scale=0.01, seed=5)
        trace = list(data_center_feed(config))
        per_second = {}
        for record in trace:
            per_second[record["time"]] = per_second.get(record["time"], 0) + 1
        rates = list(per_second.values())
        assert max(rates) - min(rates) <= 0.1 * 1000

    def test_lower_variability_than_research_feed(self):
        config = TraceConfig(duration_seconds=60, rate_scale=0.01, seed=5)
        def variability(trace):
            per_second = {}
            for record in trace:
                per_second[record["time"]] = per_second.get(record["time"], 0) + 1
            rates = sorted(per_second.values())
            return rates[-1] / rates[0]
        steady = variability(data_center_feed(config))
        bursty = variability(research_center_feed(config))
        assert steady < bursty


class TestDdosFeed:
    def test_attack_multiplies_rate(self):
        config = TraceConfig(duration_seconds=90, rate_scale=0.01, seed=3)
        trace = list(ddos_feed(config, attack_start=30, attack_duration=30))
        per_second = {}
        for record in trace:
            per_second[record["time"]] = per_second.get(record["time"], 0) + 1
        before = sum(per_second[s] for s in range(0, 30)) / 30
        during = sum(per_second[s] for s in range(30, 60)) / 30
        assert during > 4 * before

    def test_attack_creates_many_tiny_flows(self):
        config = TraceConfig(duration_seconds=90, rate_scale=0.01, seed=3)
        trace = list(ddos_feed(config, attack_start=30, attack_duration=30))
        def distinct_sources(seconds):
            return len({r["srcIP"] for r in trace if r["time"] in seconds})
        assert distinct_sources(range(30, 60)) > 5 * distinct_sources(range(0, 30))

    def test_invalid_attack_window(self):
        with pytest.raises(StreamError):
            list(ddos_feed(small(), attack_start=-1))


class TestReplay:
    def test_replay_list_is_iterable_twice(self):
        trace = list(research_center_feed(small(duration=5)))
        assert list(replay(trace)) == trace
        assert list(replay(trace)) == trace

    def test_replay_generator_materialises(self):
        gen = research_center_feed(small(duration=5))
        replayed = list(replay(gen))
        assert replayed == list(research_center_feed(small(duration=5)))


def digest(records):
    """``(count, sha256 over repr(values) of each record, first 16 hex digits)``."""
    sha, count = hashlib.sha256(), 0
    for record in records:
        sha.update(repr(record.values).encode())
        count += 1
    return count, sha.hexdigest()[:16]


def tap(seed=20050614):
    """The perf ledger's feed config: long enough for any record count asked."""
    return TraceConfig(duration_seconds=100_000, rate_scale=0.1, seed=seed)


class TestFeedDigests:
    """A seed's packets, pinned.  These digests were recorded while the
    feeds drew through ``random.Random``'s own methods (``randrange``,
    ``randint``, ``choice``); the bound draws must consume the generator
    exactly as those do, on every supported interpreter."""

    @pytest.mark.parametrize(
        "feed, seed, expected",
        [
            (data_center_feed, 20050614, "f7158d1b1abf027c"),
            (research_center_feed, 20050614, "8546a037e6f94ed1"),
            (data_center_feed, 7, "f984094769a19eda"),
            (research_center_feed, 7, "950f9e6a2ec59077"),
            (data_center_feed, 11, "6178cfda28da4fe4"),
            (research_center_feed, 11, "b4e0d271daad271b"),
        ],
    )
    def test_tap_feeds(self, feed, seed, expected):
        assert digest(islice(feed(tap(seed)), 60_000)) == (60_000, expected)

    @pytest.mark.parametrize(
        "seed, count, expected",
        [
            (20050614, 295_766, "3e762b2af691540b"),
            (7, 299_259, "db3c7c293a587d4d"),
            (11, 300_020, "fa506ee405250666"),
        ],
    )
    def test_ddos_feed(self, seed, count, expected):
        config = TraceConfig(duration_seconds=180, rate_scale=0.05, seed=seed)
        assert digest(ddos_feed(config)) == (count, expected)

    def test_default_data_center_feed(self):
        assert digest(islice(data_center_feed(), 30_000)) == (30_000, "140cbd85178b20b8")

    def test_cli_research_feed(self):
        config = TraceConfig(duration_seconds=60, rate_scale=0.01, seed=20050614)
        assert digest(research_center_feed(config)) == (7_292, "5d232c4093042e0b")


class TestGenerationCalls:
    """Python calls per generated record.  Through ``random.Random``'s
    methods a record cost 33.75 (steady), 37.17 (bursty) and 34.34 (DDoS)
    calls; with the draws bound once per feed about 14.5, 16.6 and 13.5.
    A draw going back through ``randrange``/``randint`` fails here."""

    @pytest.mark.parametrize(
        "feed, ceiling", [(data_center_feed, 17), (research_center_feed, 21)]
    )
    def test_tap_feeds(self, feed, ceiling):
        calls = python_calls(lambda: deque(islice(feed(tap()), 20_000), maxlen=0))
        assert calls / 20_000 <= ceiling

    def test_ddos_feed(self):
        config = TraceConfig(duration_seconds=180, rate_scale=0.05, seed=20050614)
        calls = python_calls(lambda: deque(ddos_feed(config), maxlen=0))
        assert calls / 295_766 <= 20  # its record count, pinned above
