"""One scan per feed: the leaders of every sharing group on a stream take
their runs from one pass over the batch (docs/SERVING.md, "Operator
sharing").

What a member takes is what its own node would have built and counted;
a batch that raises in any member is not taken by anyone, and every
leader runs its own node over it, so only the failing group fails, as it
would alone.  A stream that one group reads is not scanned: the leader's
own node is the scan of one.  A row is built once for the members whose
SELECT lists and output attributes are equal, whatever the queries are
named, and carries the output schema of the node that built it: a
follower holds its leader's rows.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dsms import runtime
from repro.dsms.expr import EvalContext
from repro.dsms.node import NESTED, bound, emit_scan, nesting, scannable
from repro.dsms.runtime import REFUSALS, StreamRun
from repro.serving import server
from repro.serving.server import StandingQueryEngine, drive
from repro.streams.records import Record
from repro.streams.schema import PKT_SCHEMA, TCP_SCHEMA

from tests.serving.conftest import BATCH, instance_state, make_instance, served_state, solo_state

FAILING = "SELECT time, srcIP, len FROM TCP WHERE 10/(len - 41) >= 0"
HEALTHY = "SELECT time, srcIP, len FROM TCP WHERE len > 200"
#: the ledger's serve_shared shape: 8 signatures, one SELECT list
CUTS = (0, 64, 128, 256, 512, 768, 1024, 1400)
SHAPED = [f"SELECT time, srcIP, destIP, len FROM TCP WHERE len > {cut}" for cut in CUTS]
LEN = TCP_SCHEMA.index_of("len")


def with_len(record, value):
    values = list(record.values)
    values[LEN] = value
    return Record(TCP_SCHEMA, values)


def scans(engine, outcome):
    return engine.metrics.value("serving_scans_total", stream="TCP", outcome=outcome)


@pytest.fixture(scope="module")
def poisoned(request):
    """Two batches: the first holds one record of length 41, mid-batch;
    the second none."""
    records = request.getfixturevalue("records")
    clean = [with_len(r, 42) if r["len"] == 41 else r for r in records[: 2 * BATCH]]
    clean[BATCH // 2] = with_len(clean[BATCH // 2], 41)
    return clean[:BATCH], clean[BATCH:]


def serve(groups, batches):
    """An engine serving each ``(text, qids)`` group, every query named
    ``q``."""
    engine = StandingQueryEngine(make_instance)
    served = {qid: engine.register(text, name="q", qid=qid)
              for text, qids in groups for qid in qids}
    for batch in batches:
        engine.feed(batch)
    engine.finish()
    return engine, served


def letters(engine, qids):
    return [e for e in engine.dead_letters.checkpoint()["entries"] if e["qid"] in qids]


class TestAFailingMemberFailsAlone:
    GROUPS = ((FAILING, ("bad1", "bad2")), (HEALTHY, ("ok1", "ok2")))

    def test_each_group_ends_as_it_would_alone(self, poisoned):
        engine, served = serve(self.GROUPS, poisoned)
        alone, solo = serve(self.GROUPS[:1], poisoned)
        # the failing group: its leader's solo error dead-lettered, then
        # its promoted follower's; breakers and partial counts as alone
        assert letters(engine, {"bad1", "bad2"}) == letters(alone, {"bad1", "bad2"})
        private = make_instance()
        private.add_query(FAILING, name="q")
        private.start()
        with pytest.raises(Exception) as raised:
            private.feed(poisoned[0])
        assert [e["error"] for e in letters(engine, {"bad1"})] == [str(raised.value)]
        for qid in ("bad1", "bad2"):
            assert served[qid].breaker.checkpoint() == solo[qid].breaker.checkpoint()
            assert served_state(served[qid]) == served_state(solo[qid])
        # the healthy group: rows, counters and cost of a private run
        for qid in ("ok1", "ok2"):
            assert served_state(served[qid]) == solo_state(HEALTHY, [*poisoned[0], *poisoned[1]])
        assert not letters(engine, {"ok1", "ok2"})

    def test_the_batch_after_is_scanned_again(self, poisoned):
        engine, _ = serve(self.GROUPS, poisoned)
        assert (scans(engine, "discarded"), scans(engine, "taken")) == (1, 1)


class TestOneScanPerBatch:
    def test_a_serve_shared_registration_runs_one_scan_per_batch(self, records):
        engine = StandingQueryEngine(make_instance)
        served = [engine.register(text, name="q") for text in SHAPED * 8]
        drive(engine, records, batch_size=BATCH)
        batches = -(-len(records) // BATCH)
        assert (scans(engine, "taken"), scans(engine, "discarded")) == (batches, 0)
        assert engine.metrics.value("serving_shared_replays_total") == 56 * batches
        solo = {text: solo_state(text, records) for text in SHAPED}
        for sq in served:
            assert served_state(sq) == solo[sq.text]
        # one row per record and SELECT list: each leader's rows are
        # among the rows of the leader with the lowest cut
        built = set(map(id, served[0].results))
        assert all(set(map(id, sq.results)) <= built for sq in served[1:8])

    def test_a_scan_is_written_once_per_shape(self, records):
        """Replicas of one membership shape run one cached code object."""
        codes = set()
        for _ in range(2):
            engine = StandingQueryEngine(make_instance)
            ops = [engine.register(text, name="q").instance.query("q").operator
                   for text in SHAPED]
            codes.add(emit_scan(ops, "TCP").__code__)
        assert len(codes) == 1


class TestARowCarriesTheSchemaOfItsNode:
    def test_a_follower_holds_its_leaders_rows(self, records):
        engine = StandingQueryEngine(make_instance)
        alpha = engine.register(HEALTHY, name="alpha")
        beta = engine.register(HEALTHY, name="beta")
        drive(engine, records, batch_size=BATCH)
        assert beta.results[0].schema.name == "alpha"
        assert beta.results == alpha.results
        solo = make_instance()
        solo.add_query(HEALTHY, name="beta")
        solo.run(records, batch_size=BATCH)
        assert beta.results != solo.results("beta")  # Record.__eq__ reads the schema
        assert [r.values for r in beta.results] == [r.values for r in solo.results("beta")]
        assert beta.instance.query("beta").output_schema.names == solo.query("beta").output_schema.names

    def test_groups_share_a_row_whatever_they_are_called(self, records):
        engine = StandingQueryEngine(make_instance)
        alpha = engine.register(SHAPED[0], name="alpha")
        gamma = engine.register(SHAPED[1], name="gamma")
        drive(engine, records, batch_size=BATCH)
        assert scans(engine, "taken")
        assert {r.schema.name for r in gamma.results} == {"alpha"}
        assert set(map(id, gamma.results)) <= set(map(id, alpha.results))
        assert served_state(gamma) == solo_state(SHAPED[1], records, name="gamma")
        assert served_state(alpha) == solo_state(SHAPED[0], records, name="alpha")

    def test_other_output_attributes_get_their_own_row(self, records):
        renamed = SHAPED[1].replace("len FROM", "len AS size FROM")
        engine = StandingQueryEngine(make_instance)
        engine.register(SHAPED[0], name="alpha")
        gamma = engine.register(renamed, name="gamma")
        drive(engine, records, batch_size=BATCH)
        assert scans(engine, "taken")
        assert {r.schema.name for r in gamma.results} == {"gamma"}
        assert served_state(gamma) == solo_state(renamed, records, name="gamma")


def with_half(**options):
    gs = make_instance(**options)
    gs.register_scalar("HALF", lambda x: x // 2)
    return gs


class TestAScanSettlesAsItsMembersWould:
    def test_a_selection_with_no_where_and_a_scalar_call(self, records):
        """No WHERE (no predicate charged) and a scalar call in SELECT
        (counted in the member's own context, never a shared row)."""
        texts = ["SELECT time, HALF(len) FROM TCP", HEALTHY,
                 "SELECT time, HALF(len) FROM TCP WHERE len > 200"]
        engine = StandingQueryEngine(with_half)
        served = [engine.register(text, name="q") for text in texts]
        drive(engine, records, batch_size=BATCH)
        assert scans(engine, "taken") == -(-len(records) // BATCH)
        for sq, text in zip(served, texts):
            solo = with_half()
            solo.add_query(text, name="q")
            solo.run(records, batch_size=BATCH)
            assert served_state(sq) == instance_state(solo, "q")

    def test_a_stream_one_group_reads_is_not_scanned(self, records):
        engine = StandingQueryEngine(make_instance)
        sq = engine.register(HEALTHY, name="q")
        engine.register(HEALTHY, name="q")
        drive(engine, records, batch_size=BATCH)
        assert scans(engine, "taken") == scans(engine, "discarded") == 0
        assert served_state(sq) == solo_state(HEALTHY, records)

    def test_scans_are_kept_until_a_query_leaves(self, records):
        engine = StandingQueryEngine(make_instance)
        for text in SHAPED[:3]:
            engine.register(text, name="q")
        engine.feed(records[:BATCH])
        kept = dict(engine._scans)
        last = engine.register(SHAPED[3], name="q")
        engine.feed(records[BATCH:2 * BATCH])
        assert len(engine._scans) == 2 and kept.items() <= engine._scans.items()
        engine.unregister(last.qid)
        assert not engine._scans


def count_checks(monkeypatch):
    """The sizes of the batches ``run_stream`` checked in full, wherever
    it is called from; a ``StreamRun`` it only reads."""
    checked = []
    for module in (runtime, server):
        def counting(batch, check=module.run_stream):
            if type(batch) is not StreamRun:
                checked.append(len(batch))
            return check(batch)

        monkeypatch.setattr(module, "run_stream", counting)
    return checked


class TestAServedBatchIsCheckedOnce:
    def test_a_serve_shared_registration_checks_each_batch_once(self, records, monkeypatch):
        """8 leaders and the scan read the batch; only the engine checks it."""
        checked = count_checks(monkeypatch)
        engine = StandingQueryEngine(make_instance)
        served = [engine.register(text, name="q") for text in SHAPED * 8]
        drive(engine, records, batch_size=BATCH)
        assert len(checked) == -(-len(records) // BATCH)
        assert sum(checked) == len(records)
        assert scans(engine, "taken") == len(checked)
        assert served_state(served[-1]) == solo_state(SHAPED[-1], records)

    @pytest.mark.parametrize("validate", [False, True])
    def test_a_batch_that_is_no_run_is_admitted_per_payload_everywhere(
        self, records, monkeypatch, validate
    ):
        """Two streams in one batch, and with validation a mapping too:
        never wrapped, each instance admits it payload by payload and
        ends as its solo run of the same batches, refusals included."""
        def two_streams():
            gs = make_instance(validate_admission=validate)
            gs.register_stream(PKT_SCHEMA)
            return gs

        packets = [Record(PKT_SCHEMA, tuple(r[name] for name in PKT_SCHEMA.names))
                   for r in records[:BATCH]]
        mixed = [r for pair in zip(records, packets) for r in pair]
        batches = [mixed, records[BATCH:2 * BATCH]]
        if validate:  # unroutable among two streams: dead-lettered, not raised
            mapping = records[2 * BATCH:3 * BATCH]
            mapping[5] = dict(zip(TCP_SCHEMA.names, mapping[5].values))
            batches.insert(1, mapping)
        wrapped = []

        def wrap(run, stream):
            wrapped.append(stream)
            return StreamRun(run, stream)

        monkeypatch.setattr(server, "StreamRun", wrap)
        engine = StandingQueryEngine(two_streams)
        served = [engine.register(text, name="q") for text in SHAPED[:2] * 2]
        assert bool(engine.report()["shared_groups"]) != validate  # validation declines sharing
        per_payload = {sq.qid: [] for sq in served}
        for sq in served:
            admit, seen = sq.instance._admit_payload, per_payload[sq.qid]
            monkeypatch.setattr(sq.instance, "_admit_payload",
                                lambda p, admit=admit, seen=seen: seen.append(p) or admit(p))
        for batch in batches:
            engine.feed(batch)
        engine.finish()
        assert wrapped == ["TCP"]
        assert not engine.dead_letters.entries
        # a validating instance admits every batch per payload; without
        # validation the two leaders admit the mixed one so, and their
        # followers replay what the leader admitted
        admitted = [len(per_payload[sq.qid]) for sq in served]
        every = sum(map(len, batches))
        assert admitted == ([every] * 4 if validate else [len(mixed)] * 2 + [0] * 2)
        for sq in served:
            solo = two_streams()
            solo.add_query(sq.text, name="q")
            solo.start()
            for batch in batches:
                solo.feed(batch)
            solo.finish()
            assert served_state(sq) == instance_state(solo, "q")
            instance = sq.instance
            letters = [(e.reason, e.source) for e in instance.quarantine.entries]
            assert letters == [(e.reason, e.source) for e in solo.quarantine.entries]
            assert len(letters) == validate
            total = instance.metrics.total
            refused = sum(total(row.counter) for row in REFUSALS.values())
            assert total("stream_records_total") == total("stream_ingested_total") + refused


#: what a drawn member compares and against what; ``=`` never nests
COLUMNS = ("len", "srcPort")
COMPARISONS = (">", ">=", "<", "<=", "=")
LITERALS = ("0", "64", "64.0", "64.5", "200", "200.0")
#: shared (two lists), and never shared: a SELECT that calls a function
SELECTS = ("time, srcIP, len", "time, len AS size", "time, HALF(len)")
#: record values: the literals' bounds and their neighbours, NaN and bools;
#: a batch may hold one value no number compares with
VALUES = (-1, 0, 1, 63, 64, 64.0, 64.5, 65, 199, 200, 200.0, 201, 1000, float("nan"), True, False)
ODD = (None, "64")

members = st.lists(
    st.tuples(st.sampled_from(COLUMNS), st.sampled_from(COMPARISONS + (None,)),
              st.sampled_from(LITERALS), st.booleans(), st.sampled_from(SELECTS)),
    min_size=1, max_size=6,
)
batches = st.tuples(
    st.lists(st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)), max_size=12),
    st.none() | st.tuples(st.integers(0, 11), st.sampled_from(COLUMNS), st.sampled_from(ODD)),
)


def text(column, comparison, literal, left, select):
    terms = (literal, comparison, column) if left else (column, comparison, literal)
    where = "" if comparison is None else " WHERE " + " ".join(terms)
    return f"SELECT {select} FROM TCP{where}"


def selections(texts):
    """Each text's selection node, all compiled against one input schema."""
    gs = with_half()
    for i, query in enumerate(texts):
        gs.add_query(query, name=f"q{i}")
    return [gs.query(f"q{i}").operator for i in range(len(texts))]


def run(scan, ops, batch):
    """The scan's runs and each member's calls counted, or None if it raised."""
    contexts = [EvalContext(op._ctx.scalars, op._ctx.sfuns) for op in ops]
    try:
        runs = scan(batch, contexts)
    except Exception:
        return None
    return [(shown(rows), (ctx.function_calls, ctx.sfun_calls)) for rows, ctx in zip(runs, contexts)]


def shown(rows):
    """Rows as their attribute names and values, NaN equal to NaN."""
    return [(row.schema.names, repr(row.values)) for row in rows]


def holds(cut, value):
    """``value`` passes the comparison ``cut`` (a ``node.Bound``)."""
    _, _, comparison, literal = cut
    return {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}[comparison](value, literal)


def chains(parents):
    """The members' chains as root-first lists, when each parent has one child."""
    roots = [i for i, parent in enumerate(parents) if parent is None]
    out = []
    for root in roots:
        chain = [root]
        while chain[-1] in parents:
            chain.append(parents.index(chain[-1]))
        out.append(chain)
    return out


class TestTheScanNestsByImplication:
    """A member whose WHERE implies another's is tested only inside that
    one's ``if`` (``node.nesting``); each member still takes what its own
    node emits, and the scan raises on exactly the batches a flat scan —
    every member tested on every record — raises on."""

    @given(members, batches)
    def test_each_member_runs_as_its_own_node(self, drawn, batch):
        ops = selections([text(*member) for member in drawn])
        assert all(map(scannable, ops))
        values, poison = batch
        fields = [dict(zip(COLUMNS, pair)) for pair in values]
        if poison is not None and fields:
            at, column, value = poison
            fields[at % len(fields)][column] = value
        records = [Record(TCP_SCHEMA, (1, 2, 3, 4, row["len"], row["srcPort"], 7, 8))
                   for row in fields]
        nested = run(emit_scan(ops, "TCP"), ops, records)
        flat = [run(emit_scan([op], "TCP"), [op], records) for op in ops]  # a scan of one nests nothing
        assert (nested is None) == (None in flat)
        own = []
        for op in ops:
            try:
                own.append(shown(op.process_many(records)))
            except Exception:
                own.append(None)
        assert (nested is None) == (None in own)
        if nested is not None:
            assert nested == [member for (member,) in flat]
            assert [rows for rows, _ in nested] == own

    @given(members)
    def test_a_member_nests_only_under_one_it_implies(self, drawn):
        ops = selections([text(*member) for member in drawn])
        for j, parent in enumerate(nesting(ops)):
            if parent is not None:
                inner, outer = bound(ops[j]), bound(ops[parent])
                assert inner[:2] == outer[:2]  # one column of one schema
                for value in VALUES:
                    assert not holds(inner, value) or holds(outer, value)

    @pytest.mark.parametrize("order", [range(8), range(7, -1, -1), [3, 7, 0, 5, 1, 6, 2, 4]])
    def test_the_serve_shared_cuts_form_one_chain(self, order):
        ops = selections([SHAPED[i] for i in order])
        [chain] = chains(nesting(ops))
        assert [order[i] for i in chain] == list(range(8))  # loosest first

    def test_equal_bounds_nest_the_strict_under_the_loose_only(self):
        wheres = ["len > 64", "len >= 64", "64.0 < len", "len >= 64.0"]
        texts = [f"SELECT time, len FROM TCP WHERE {where}" for where in wheres]
        # one chain: ``>= 64``, ``>= 64.0``, ``> 64``, ``64.0 < len``
        assert nesting(selections(texts)) == [3, None, 0, 1]

    def test_a_long_chain_starts_again_and_compiles(self, records):
        """100 cuts in one chain would nest past the tokenizer's 100 levels."""
        texts = [f"SELECT time, len FROM TCP WHERE len > {cut}" for cut in range(0, 1500, 15)]
        ops = selections(texts)
        parents = nesting(ops)
        assert max(map(len, chains(parents))) == NESTED + 1 and len(chains(parents)) > 1
        flat = [run(emit_scan([op], "TCP"), [op], records) for op in ops]
        assert run(emit_scan(ops, "TCP"), ops, records) == [member for (member,) in flat]
