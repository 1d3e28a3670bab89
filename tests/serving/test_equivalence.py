"""Serving equivalence: every served query is byte-identical to solo.

The contract (docs/SERVING.md): registering a query on the serving
engine changes *who does the work*, never *what the query produces* —
rows, metric counters, and cost accounts all come out exactly as a
private serial run of the same text over the same records.  Checked
for every pair of shipped examples (with and without sharing), for
sliding triples, and for a 100-variant standing set.
"""

import itertools

import pytest

from repro.analysis.linter import lint_source
from repro.serving.server import StandingQueryEngine, drive
from repro.streams.schema import TCP_SCHEMA

from tests.serving.conftest import (
    BATCH,
    EXAMPLE_TEXTS,
    make_instance,
    served_state,
    solo_state,
    solo_state_cached,
)

NAMES = sorted(EXAMPLE_TEXTS)
PAIRS = list(itertools.combinations(NAMES, 2))
TRIPLES = [tuple(NAMES[i : i + 3]) for i in range(len(NAMES) - 2)]


def serve_and_compare(names, records, share, vectorize=False):
    engine = StandingQueryEngine(lambda: make_instance(vectorize), share=share)
    served = [engine.register(EXAMPLE_TEXTS[name], name="q") for name in names]
    drive(engine, records, batch_size=BATCH)
    for name, sq in zip(names, served):
        oracle = solo_state_cached(
            EXAMPLE_TEXTS[name], "records", records, vectorize=vectorize
        )
        rows, metrics, cost = served_state(sq)
        orows, ometrics, ocost = oracle
        assert rows == orows, f"{name}: rows diverged under serving"
        assert metrics == ometrics, f"{name}: metric counters diverged"
        assert cost == ocost, f"{name}: cost accounts diverged"
    return engine


class TestPairs:
    #: every pair on the tuple engine, then again from a ``vectorize=True``
    #: factory against the vectorized solo run
    ENGINES = [(p, False) for p in PAIRS] + [(p, True) for p in PAIRS]

    @pytest.mark.parametrize(
        "pair, vectorize",
        ENGINES,
        ids=["+".join(p) + "-vectorized" * v for p, v in ENGINES],
    )
    def test_shared(self, pair, vectorize, records):
        engine = serve_and_compare(pair, records, share=True, vectorize=vectorize)
        # Which engine runs a member is no reason to serve it privately.
        reasons = [sq["share_reason"] for sq in engine.report()["queries"]]
        assert not any("vectoriz" in (reason or "") for reason in reasons)

    @pytest.mark.parametrize("pair", PAIRS, ids=["+".join(p) for p in PAIRS])
    def test_unshared(self, pair, records):
        serve_and_compare(pair, records, share=False)


class TestTriples:
    @pytest.mark.parametrize(
        "triple", TRIPLES, ids=["+".join(t) for t in TRIPLES]
    )
    def test_shared(self, triple, records):
        engine = serve_and_compare(triple, records, share=True)
        # At least one triple member pair actually shared a feed — the
        # examples include sampling/aggregation queries whose passthrough
        # feeders unify.
        report = engine.report()
        assert report["consumed"] == len(records)


class TestSharingHappens:
    def test_passthrough_feeders_unify(self, records):
        """Sampling + aggregation queries over one stream share one scan."""
        engine = StandingQueryEngine(make_instance)
        a = engine.register(EXAMPLE_TEXTS["reservoir"], name="q")
        b = engine.register(EXAMPLE_TEXTS["top_talkers"], name="q")
        assert a.signature is not None
        assert a.signature == b.signature
        drive(engine, records, batch_size=BATCH)
        replays = engine.metrics.value("serving_shared_replays_total")
        assert replays > 0

    def test_feeders_unify_whatever_the_queries_are_called(self, records):
        """`repro serve a.gsql b.gsql` and `POST /queries` name each query;
        the shared node is the scan of TCP under its `<name>__lowsel`
        feeder — and an explicit whole-stream selection is that scan too."""
        from repro.analysis.legality import parse_target

        engine = StandingQueryEngine(make_instance)
        registries = make_instance().registries
        texts = {
            "reservoir": EXAMPLE_TEXTS["reservoir"],
            "top_talkers": EXAMPLE_TEXTS["top_talkers"],
            "everything": f"SELECT {', '.join(TCP_SCHEMA.names)} FROM TCP",
        }
        served = {name: engine.register(text, name=name) for name, text in texts.items()}
        first = served["reservoir"].signature
        assert first is not None and first.stream == "TCP"
        for name, sq in served.items():
            assert sq.signature == first, name
            # ... and lint's SA401 verdict is the engine's, name for name.
            linted = lint_source(
                texts[name], registries, target=parse_target("serve")
            ).plan.annotations["serving"]
            assert linted["signature"] == sq.signature.describe(), name
        assert len(engine.report()["shared_groups"]) == 1
        drive(engine, records, batch_size=BATCH)
        batches = (len(records) + BATCH - 1) // BATCH
        assert engine.metrics.value("serving_shared_replays_total") == 2 * batches
        for name, sq in served.items():
            assert served_state(sq) == solo_state(texts[name], records, name=name), name

    def test_stateful_selection_gets_private_feed(self, records):
        """The SA401 counterexample still serves — on its own scan."""
        engine = StandingQueryEngine(make_instance)
        sq = engine.register(EXAMPLE_TEXTS["unsound_unshardable"], name="q")
        assert sq.signature is None
        assert "stateful selection" in sq.share_reason
        drive(engine, records, batch_size=BATCH)
        oracle = solo_state_cached(
            EXAMPLE_TEXTS["unsound_unshardable"], "records", records
        )
        assert served_state(sq) == oracle


class TestHundredVariants:
    def test_hundred_standing_queries_match_solo(self, records):
        """≥100 registered variants, each byte-identical to its solo run.

        20 distinct prefilter signatures × 5 replicas: the engine runs 20
        scans per batch and satisfies the other 80 subscriptions by
        replay; every one of the 100 must still equal its solo oracle.
        """
        variants = [
            f"SELECT time, srcIP, destIP, len FROM TCP WHERE len > {cut}"
            for cut in range(0, 2000, 100)
        ]
        engine = StandingQueryEngine(make_instance)
        served = []
        for replica in range(5):
            for text in variants:
                served.append((text, engine.register(text, name="q")))
        assert len(served) == 100
        drive(engine, records, batch_size=BATCH)
        assert len(engine.report()["shared_groups"]) == len(variants)
        for text, sq in served:
            oracle = solo_state_cached(text, "records", records)
            assert served_state(sq) == oracle, text
        # 80 of the 100 member-feeds per batch were replays.
        replays = engine.metrics.value("serving_shared_replays_total")
        batches = (len(records) + BATCH - 1) // BATCH
        assert replays == 80 * batches
