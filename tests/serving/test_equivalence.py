"""Served sets of the shipped examples, held to the oracle.

The serving contract (docs/SERVING.md): registering a query on the
serving engine changes *who does the work*, never *what the query
produces*.  Each case below serves a set on one engine and holds every
member's rows to the oracle and its series and cost accounts to its solo
serial run, and the engine's sharing to lint's SA401 verdict
(``tests/test_oracle.py::agree``) — for every pair of shipped examples
shared and on private feeds, for sliding triples, and for a 100-query
standing set.
"""

import itertools

import pytest

from repro.analysis.legality import ExecTarget
from repro.serving.server import StandingQueryEngine, drive
from repro.streams.schema import TCP_SCHEMA

from tests.serving.conftest import BATCH, EXAMPLE_TEXTS, make_instance
from tests.test_oracle import TRACES, Case, Family, agree, stream

NAMES = sorted(EXAMPLE_TEXTS)
PAIRS = list(itertools.combinations(NAMES, 2))
TRIPLES = [tuple(NAMES[i : i + 3]) for i in range(len(NAMES) - 2)]
RECORDS = TRACES["bursty"]


def served(texts, names, vectorize=False, validate=False):
    case = Case(
        Family(tuple(texts)), stream(RECORDS), names=tuple(names),
        target=ExecTarget(serve=True), vectorize=vectorize, validate=validate, batch_size=BATCH,
    )
    return agree(case).deployment


def examples(names):
    return served([EXAMPLE_TEXTS[name] for name in names], names)


class TestPairs:
    #: every pair on the tuple engine, then again from a ``vectorize=True``
    #: factory (its accounting reference: the tuple engine's solo run)
    ENGINES = [(p, False) for p in PAIRS] + [(p, True) for p in PAIRS]

    @pytest.mark.parametrize(
        "pair, vectorize",
        ENGINES,
        ids=["+".join(p) + "-vectorized" * v for p, v in ENGINES],
    )
    def test_shared(self, pair, vectorize):
        engine = served([EXAMPLE_TEXTS[name] for name in pair], pair, vectorize=vectorize)
        # Which engine runs a member is no reason to serve it privately.
        reasons = [sq["share_reason"] for sq in engine.report()["queries"]]
        assert not any("vectoriz" in (reason or "") for reason in reasons)

    @pytest.mark.parametrize("pair", PAIRS, ids=["+".join(p) for p in PAIRS])
    def test_unshared(self, pair):
        # Admission validation quarantines per instance, so neither
        # member shares: each is fed as a group of one.
        engine = served([EXAMPLE_TEXTS[name] for name in pair], pair, validate=True)
        assert not engine.report()["shared_groups"]


class TestTriples:
    @pytest.mark.parametrize(
        "triple", TRIPLES, ids=["+".join(t) for t in TRIPLES]
    )
    def test_shared(self, triple):
        assert examples(triple).report()["consumed"] == len(RECORDS)


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

    def test_feeders_unify_whatever_the_queries_are_called(self):
        """`repro serve a.gsql b.gsql` and `POST /queries` name each query;
        the shared node is the scan of TCP under its `<name>__lowsel`
        feeder — and an explicit whole-stream selection is that scan too."""
        texts = {
            "reservoir": EXAMPLE_TEXTS["reservoir"],
            "top_talkers": EXAMPLE_TEXTS["top_talkers"],
            "everything": f"SELECT {', '.join(TCP_SCHEMA.names)} FROM TCP",
        }
        engine = served(texts.values(), texts)
        assert {sq.signature.stream for sq in engine.queries()} == {"TCP"}
        assert len(engine.report()["shared_groups"]) == 1
        batches = (len(RECORDS) + BATCH - 1) // BATCH
        assert engine.metrics.value("serving_shared_replays_total") == 2 * batches

    def test_stateful_selection_gets_private_feed(self):
        """The SA401 counterexample still serves — on its own scan."""
        engine = examples(["unsound_unshardable"])
        for sq in engine.queries():
            assert sq.signature is None
            assert "stateful selection" in sq.share_reason


class TestHundredVariants:
    def test_hundred_standing_queries_match_solo(self):
        """≥100 registered variants, each held to the oracle and its solo run.

        20 distinct prefilter signatures × 5 replicas: the engine runs 20
        scans per batch and satisfies the other 80 subscriptions by
        replay.
        """
        variants = [
            f"SELECT time, srcIP, destIP, len FROM TCP WHERE len > {cut}"
            for cut in range(0, 2000, 100)
        ]
        texts = variants * 5
        engine = served(texts, [f"q{i}" for i in range(len(texts))])
        assert len(engine.report()["shared_groups"]) == len(variants)
        # 80 of the 100 member-feeds per batch were replays.
        batches = (len(RECORDS) + BATCH - 1) // BATCH
        assert engine.metrics.value("serving_shared_replays_total") == 80 * batches
