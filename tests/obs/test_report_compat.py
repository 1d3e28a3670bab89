"""run_report() compatibility: the pre-registry dict shape is pinned.

run_report() predates the metrics registry; callers (and the CLI
--report flag) rely on its exact keys.  It is now a *view* over the
registry, so these tests pin both the shape and the sourcing: every
report number must equal the corresponding registry series.
"""

from repro.analysis.legality import ExecTarget
from repro.deploy import deploy
from repro.streams.traces import TraceConfig, research_center_feed
from repro.algorithms.bindings import SUBSET_SUM_QUERY

SS_TEXT = SUBSET_SUM_QUERY.format(window=5, target=200)
# Sharding needs a keyed supergroup to hash-partition the SFUN state on.
SS_SHARDED = SS_TEXT.replace(
    "GROUP BY time/5 as tb, srcIP, destIP, uts",
    "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
)


def feed(seconds=15, seed=3):
    config = TraceConfig(duration_seconds=seconds, rate_scale=0.01, seed=seed)
    return research_center_feed(config)


def build(shed_threshold=None, shards=0):
    gs = deploy(ExecTarget(shards=shards or None, shed_threshold=shed_threshold))
    gs.add_query(SS_SHARDED if shards else SS_TEXT, name="q")
    return gs


class TestReportShape:
    def test_stream_and_query_keys_are_pinned(self):
        gs = build()
        gs.run(feed())
        report = gs.run_report()
        assert set(report) == {"streams", "queries"}
        assert set(report["streams"]["TCP"]) == {
            "drops",
            "backlog",
            "shed",
            "quarantined",
            "quota_shed",
            "poison_skipped",
        }
        assert set(report["queries"]["q"]) == {
            "late_tuples",
            "incomparable_tuples",
            "shed_tuples",
            "quarantined_tuples",
        }
        for section in report.values():
            for entry in section.values():
                for value in entry.values():
                    assert isinstance(value, int)

    def test_only_sampling_queries_are_reported(self):
        gs = deploy(libraries=())
        gs.add_query(
            "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/5 as tb, srcIP",
            name="agg",
        )
        gs.run(feed())
        assert gs.run_report()["queries"] == {}


class TestReportSourcing:
    def test_shed_matches_registry(self):
        gs = build(shed_threshold=8)
        gs.run(feed(), batch_size=256)
        report = gs.run_report()
        assert report["streams"]["TCP"]["shed"] == gs.metrics.value(
            "stream_shed_total", stream="TCP"
        )
        assert report["streams"]["TCP"]["shed"] > 0

    def test_query_counters_match_registry(self):
        gs = build()
        gs.run(feed())
        report = gs.run_report()
        for key, metric in [
            ("late_tuples", "operator_late_tuples_total"),
            ("incomparable_tuples", "operator_incomparable_tuples_total"),
            ("shed_tuples", "operator_shed_tuples_total"),
            ("quarantined_tuples", "operator_quarantined_tuples_total"),
        ]:
            assert report["queries"]["q"][key] == gs.metrics.total(
                metric, query="q"
            )

    def test_sharded_report_aggregates_shards(self):
        sh = build(shed_threshold=None, shards=2)
        sh.run(feed(), batch_size=128)
        report = sh.run_report()
        assert set(report) == {"streams", "queries"}
        assert set(report["queries"]["q"]) == {
            "late_tuples",
            "incomparable_tuples",
            "shed_tuples",
            "quarantined_tuples",
        }
