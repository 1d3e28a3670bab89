"""One generator, two references: every deployment against one oracle.

A draw is a query set (a shipped example, a ``bindings.py`` query, or a
composed one that may alias a GROUP BY over an input column), the query
names, a stream (a trace slice, or ``VAL`` rows carrying NaN, ±inf and
bools; with late records and ``None`` timestamps), a deployment (an
``ExecTarget`` point), the engine, the cut into runs, a checkpoint point and a fault (a
supervised kill, dropped or corrupt result at batch N, or a crash inside
``on_commit`` at commit N followed by a resume).

What is checked against what (DESIGN.md §2, "What is checked against
what"):

* rows against the oracle (``tests/_oracle.py``), value types included,
  in canonical order under shards;
* every non-histogram series, the cost accounts and a pickled checkpoint
  against the same deployment run the plainest way: tuple engine, one
  run, no fault (a served query: its solo serial run);
* the conservation identities on every deployment;
* a refused deployment against lint: lint reports an SA3xx error exactly
  when building it raises, and the error carries one of lint's reasons.

Not drawn, because undecided (ROADMAP item 1): an error on the columnar
engine is held to the oracle's message, not its rows (a WHERE error
aborts a batch before any window closes; the tuple engine closes
first); no late record reaches a sharded selection (it is forwarded as
it comes, and the MERGE refuses a source that runs backwards).  A late
record is the previous record re-sent with an old time, so its shard
has seen the window it is late for: a record late for the stream but
not for its shard is the silent-shard edge of DESIGN.md §2.
"""

from __future__ import annotations

import math
import pickle
import tempfile
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro.algorithms.bindings import (
    DISTINCT_SAMPLING_QUERY,
    HEAVY_HITTERS_QUERY,
    MIN_HASH_QUERY,
    PREFILTER_QUERY,
    RESERVOIR_QUERY,
    SUBSET_SUM_QUERY,
    standard_libraries,
    subset_sum_query,
)
from repro.analysis.legality import RULES, ExecTarget
from repro.analysis.legality import refusals as table_refusals
from repro.analysis.linter import lint_query
from repro.deploy import deploy
from repro.dsms.cost import CostModel
from repro.dsms.durability import DurableRunner, ResultJournal
from repro.dsms.parser import compile_query
from repro.dsms.parser.lexer import KEYWORDS
from repro.dsms.resilience import SupervisionPolicy
from repro.dsms.runtime import REFUSALS
from repro.dsms.stateful import StatefulLibrary, StatefulState
from repro.dsms.sharded import stable_hash
from repro.errors import ExecutionError, PlanningError
from repro.serving.server import drive, resume_serving
from repro.streams.records import Record
from repro.streams.schema import PKT_SCHEMA, TCP_SCHEMA
from repro.streams.traces import TraceConfig, data_center_feed, research_center_feed
from repro.testing.faults import Fault, FaultPlan, hot_key_stream

from tests._oracle import Oracle
from tests.analysis.test_execsafety import FLAKY_QUERY, FLAKY_SAMPLING, flaky_library
from tests.dsms.test_durability import _Boom, crash_on_commit
from tests.vectorized.conftest import VAL_SCHEMA

#: every pack, and one whose state opts out of checkpoints (SA305 refuses it)
LIBRARIES = (*standard_libraries(), flaky_library())

# -- query sets -------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """Queries registered in order; ``{0}`` in a text is the first one's name."""

    texts: Tuple[str, ...]
    schema: Any = TCP_SCHEMA
    #: a ``None`` timestamp reaches the operators as a window id
    none_times: bool = False
    #: the WHERE may raise (``10/(len - k)``)
    raises: bool = False

    @property
    def selects(self) -> bool:
        """Holds a plain selection, which forwards late records as they come."""
        return any("GROUP BY" not in text.upper() for text in self.texts)


def per_source(text: str) -> str:
    """A sampling query with a supergroup key a SPLIT can partition on."""
    return text.replace("\nHAVING", " SUPERGROUP BY tb, srcIP\nHAVING")


EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "queries"
FAMILIES: Dict[str, Family] = {
    **{path.stem: Family((path.read_text(),)) for path in sorted(EXAMPLES.glob("*.gsql"))},
    "subset_sum": Family((SUBSET_SUM_QUERY.format(window=1, target=20),)),
    "subset_sum_per_source": Family((per_source(SUBSET_SUM_QUERY.format(window=1, target=20)),)),
    "heavy_hitters_1s": Family((HEAVY_HITTERS_QUERY.format(window=1, bucket=10),)),
    "reservoir_1s": Family((RESERVOIR_QUERY.format(window=1, target=5),)),
    "distinct_1s": Family((DISTINCT_SAMPLING_QUERY.format(window=1, capacity=4),)),
    "min_hash_1s": Family((MIN_HASH_QUERY.format(window=1, k=3),)),
    "aggregate": Family((
        "SELECT tb, srcIP, sum(len), count(*) FROM TCP WHERE H(srcIP) % 3 <> 0"
        " GROUP BY time/1 as tb, srcIP HAVING count(*) > 1",
    )),
    "selection": Family(("SELECT time, srcIP, UMAX(len, 100) FROM TCP WHERE len > 200",)),
    "flaky_selection": Family((FLAKY_QUERY,)),
    "flaky_sampling": Family((FLAKY_SAMPLING,)),
    "prefilter_chain": Family(
        (PREFILTER_QUERY.format(z=50), subset_sum_query(window=1, target=10, stream="{0}"))
    ),
    # under vectorize: a columnar aggregate whose parent runs per tuple
    "aggregate_of_a_sample": Family((
        PREFILTER_QUERY.format(z=50),
        "SELECT tb, sum(len), count(*) FROM {0} GROUP BY time/1 as tb",
    )),
    # window id = ``time`` itself: a None timestamp is an unorderable window id
    "raw_window_ids": Family(
        (
            "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time as tb, srcIP SUPERGROUP tb",
            "SELECT tb, count(*) FROM TCP GROUP BY time as tb",
        ),
        none_times=True,
    ),
    **{
        name: Family((text,), VAL_SCHEMA)
        for name, text in {
            "val_selection": "SELECT t, x, f, b FROM VAL WHERE x % 3 = 0 AND b = TRUE",
            "val_arithmetic": "SELECT t, x + x, x * 2 - 1, t / 7 FROM VAL WHERE NOT x < 0",
            "val_aggregates": "SELECT tb, sum(x), count(*), min(x), max(x), first(x), last(x)"
            " FROM VAL GROUP BY t/10 AS tb",
            "val_floats": "SELECT tb, sum(f), min(f), max(f), avg(f) FROM VAL GROUP BY t/10 AS tb",
            "val_having": "SELECT tb, count_distinct(x), sum(b) FROM VAL"
            " GROUP BY t/10 AS tb HAVING count(*) > 1",
            "val_nan_keys": "SELECT tb, f, count(*) FROM VAL GROUP BY t/10 AS tb, f",
            "val_bools": "SELECT t, b + b, -b, b / 2.0 FROM VAL",
        }.items()
    },
}

# -- streams ------------------------------------------------------------------------

#: ~50 and ~20-60 records per second: several one-second windows in 160
#: records, with cleaning phases; ``sparse`` spans ~100 s, so the shipped
#: examples' 20 and 60 s windows close mid-stream too
TRACES = {
    "steady": list(islice(data_center_feed(TraceConfig(rate_scale=0.0005, seed=15)), 160)),
    "bursty": list(islice(research_center_feed(TraceConfig(rate_scale=0.004, seed=15)), 160)),
    "sparse": list(islice(data_center_feed(TraceConfig(rate_scale=0.00002, seed=15)), 160)),
}
#: one source sends 80 % of the packets: one shard gets most of the stream
TRACES["hot"] = hot_key_stream(TRACES["steady"], "srcIP", 0x0A0A0A0A, fraction=0.8)
_LEN = TCP_SCHEMA.index_of("len")
#: divisors of the composed WHERE: some are packet lengths, one is not
DIVISORS = sorted({r.values[_LEN] for trace in TRACES.values() for r in trace})[:6] + [1]


def with_time(record: Record, time: Any) -> Record:
    return Record(record.schema, (time,) + tuple(record.values[1:]))


def val_record(t: int, x: int, f: float, b: bool) -> Record:
    return Record(VAL_SCHEMA, (t, x, f * 1.0, b))  # ``* 1.0``: every NaN its own object


def val_rows(min_size: int = 0, max_size: int = 40) -> Any:
    """``VAL`` records in time order, any int, float (NaN, ±inf) or bool."""
    row = st.tuples(st.integers(0, 99), st.integers(-(2**40), 2**40), st.floats(), st.booleans())
    return st.lists(row, min_size=min_size, max_size=max_size).map(
        lambda rows: [val_record(*row) for row in sorted(rows, key=lambda row: row[0])]
    )

#: what a validating edge dead-letters; ``query_schema`` stands for a
#: record under the first query's output schema (built once it is named)
JUNK = {
    "other_stream": lambda r: Record(PKT_SCHEMA, (0, 1, 2, 40, 1, 2, 6)),
    "non_record": lambda r: 42,
    "nan_time": lambda r: with_time(r, math.nan),
    "none_time": lambda r: with_time(r, None),
    "query_schema": lambda r: "query_schema",
}


@dataclass(frozen=True)
class Stream:
    """Payloads in feed order, and the records admission lets through."""

    payloads: Tuple[Any, ...]
    records: Tuple[Record, ...]


def late(records: Sequence[Record], indices: Sequence[int]) -> List[Record]:
    """Each record at ``indices`` becomes the previous one re-sent with
    the first record's time: late once a later window has opened.  Its
    floats are copies: two rows sharing one NaN object group together on
    the tuple path only (DESIGN.md §11)."""
    records = list(records)
    for index in sorted(set(indices)):
        previous = records[index - 1].values
        values = [v * 1.0 if isinstance(v, float) else v for v in previous[1:]]
        records[index] = Record(records[index].schema, (records[0].values[0], *values))
    return records


def stream(records: Sequence[Record]) -> Stream:
    return Stream(tuple(records), tuple(records))


@st.composite
def streams(draw: Any, family: Family, validate: bool, late_ok: bool) -> Stream:
    if family.schema is VAL_SCHEMA:
        records = draw(val_rows())
    else:
        records = TRACES[draw(st.sampled_from(sorted(TRACES)))]
    n = len(records)
    indices = st.lists(st.integers(1, max(n - 1, 1)), max_size=4)
    if late_ok and n > 1:
        records = late(records, draw(indices))
    if family.none_times and not validate and n > 1:
        records = list(records)
        for index in draw(indices):
            records[index] = with_time(records[index], None)
    payloads: List[Any] = list(records)
    if validate and n:
        for index in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            payloads[index] = dict(zip(records[index].schema.names, records[index].values))
        for kind, index in draw(st.lists(st.tuples(st.sampled_from(sorted(JUNK)), st.integers(0, n)), max_size=4)):
            payloads.insert(index, JUNK[kind](records[min(index, n - 1)]))
    return Stream(tuple(payloads), tuple(records))


@st.composite
def composed(draw: Any, keyed: bool = False) -> Family:
    """A GROUP BY query put together clause by clause: the window may be
    called ``time`` and a key ``len`` (aliases over input columns), the
    sampling clauses are optional, and the WHERE may divide by zero."""
    window = draw(st.sampled_from(["tb", "time"]))
    keys = ["srcIP"] if keyed else [None, "srcIP", "len/500 as len", "srcIP % 4 as s"]
    key = draw(st.sampled_from(keys))
    items = [f"time/{draw(st.sampled_from([1, 2]))} as {window}"] + ([key] if key else [])
    names = [item.split(" as ")[-1] for item in items]
    aggregates = draw(st.lists(st.sampled_from([
        "count(*)", "sum(len)", "min(len)", "max(len)", "avg(len)",
        "count_distinct(destIP)", "first(len)", "last(len)",
    ]), min_size=1, max_size=3, unique=True))
    where = draw(st.sampled_from([None, "len > 2", "len % 3 <> 1", f"{window} % 2 = 0", "raises"]))
    if where == "raises":
        where = f"10/(len - {draw(st.sampled_from(DIVISORS))}) >= 0"
    text = f"SELECT {', '.join(names + aggregates)} FROM TCP"
    text += f" WHERE {where}" if where else ""
    text += f" GROUP BY {', '.join(items)}"
    if draw(st.booleans()):  # the sampling operator, its clauses vacuous or not
        supergroup = [window] + (["srcIP"] if key == "srcIP" and (keyed or draw(st.booleans())) else [])
        text += f" SUPERGROUP BY {', '.join(supergroup)}"
        text += f" HAVING count_distinct$(*) > {draw(st.sampled_from([0, 2]))}"
        text += f" CLEANING WHEN count_distinct$(*) > {draw(st.sampled_from([3, 1000]))}"
        text += " CLEANING BY count(*) > 1"
    elif draw(st.booleans()):
        text += f" HAVING {draw(st.sampled_from(['count(*) > 1', 'sum(len) > 1000']))}"
    return Family((text,), raises=bool(where) and where.startswith("10/"))


# -- deployments ------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    family: Family
    stream: Stream
    names: Tuple[str, ...] = ("q", "r")
    target: ExecTarget = ExecTarget()
    vectorize: bool = False
    #: record offsets the stream is cut at; a durable or served run cuts
    #: every ``batch_size`` records instead
    cuts: Tuple[int, ...] = ()
    batch_size: int = 64
    checkpoint_at: Optional[int] = None
    #: ``(action, shard, at_batch[, seconds])`` for a supervised pool
    #: (``repro.testing.faults.Fault``), ``("crash", commit)`` for a durable run
    fault: Optional[Tuple[Any, ...]] = None
    supervision: Optional[SupervisionPolicy] = None
    validate: bool = False
    #: what every instance registers beyond the stream and the SFUN packs
    setup: Optional[Callable[[Any], None]] = None

    @property
    def queries(self) -> List[Tuple[str, str]]:
        return [(text.format(*self.names), name) for text, name in zip(self.family.texts, self.names)]

    @property
    def crash_at(self) -> int:
        """The commit whose ``on_commit`` dies (0: none)."""
        return self.fault[1] if self.fault is not None and self.fault[0] == "crash" else 0


def instance(case: Case, **options: Any) -> Any:
    """The deployment ``case.target`` describes short of durability and
    serving: the stream and every SFUN pack registered, no query."""
    gs = deploy(
        case.target, schema=case.family.schema, libraries=LIBRARIES,
        supervision=case.supervision, cost_model=CostModel(), vectorize=case.vectorize,
        validate_admission=case.validate, **options,
    )
    if case.setup is not None:
        case.setup(gs)
    return gs


def registered(case: Case, **options: Any) -> Any:
    gs = instance(case, **options)
    for text, name in case.queries:
        gs.add_query(text, name=name)
    return gs


def series(metrics: Any) -> List[Tuple[Any, ...]]:
    """Every series but the histograms (wall time), the one that says
    which engine was asked for and a supervised pool's own (they count
    restarts)."""
    return [
        (s.name, s.labels, s.value) for s in metrics.series()
        if s.kind != "histogram" and s.name != "vectorize_fallback_total"
        and not s.name.startswith("supervisor_")
    ]


def comparable(value: Any) -> Tuple[str, Any]:
    """A value with its type; NaN as a marker (two NaNs in a cell agree)."""
    return type(value).__name__, "NaN" if value != value else value


def canonical(rows: Sequence[Sequence[Any]], ordered: bool) -> List[Tuple[Any, ...]]:
    rows = [tuple(map(comparable, row)) for row in rows]
    return rows if ordered else sorted(rows, key=repr)


@dataclass
class Seen:
    """What a run left behind."""

    rows: Dict[str, List[Tuple[Any, ...]]]
    #: non-histogram series and cost accounts (per query when served)
    accounts: Any
    deployment: Any
    read: int
    checkpoint: Any = None
    error: Optional[str] = None
    #: a crash inside ``on_commit`` ended the first run, a resume the second
    resumed: bool = False


def run(case: Case, tmp: str) -> Seen:
    """Run ``case``.  Building it raises what a refusal raises; an error
    the stream raises lands in ``Seen.error``."""
    if case.target.serve:
        return _served(case, tmp)
    fault, options = case.fault, {}
    if fault is not None and not case.crash_at:
        options["fault_plan"] = FaultPlan([Fault(fault[1], fault[0], *fault[2:])])
    gs = registered(case, **options)
    fed = list(case.stream.payloads)
    checkpoint = error = None
    resumed = False
    if case.target.durable:
        journal = tempfile.mkdtemp(dir=tmp) + "/journal"
        runner = DurableRunner(gs, journal, batch_size=case.batch_size, commit_interval=2,
                               on_commit=crash_on_commit(case.crash_at))
        assert runner.target == case.target  # a deployment describes itself
        try:
            runner.run(iter(fed))
        except _Boom:
            gs, resumed = registered(case), True
            DurableRunner(gs, journal, batch_size=case.batch_size, commit_interval=2).resume(iter(fed))
    else:
        assert gs.target == case.target
        gs.start()  # a sharded deployment resolves its partition columns here
        bounds = sorted({0, len(fed), *case.cuts, *filter(None, [case.checkpoint_at])})
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                gs.feed(fed[lo:hi])
                if hi == case.checkpoint_at:
                    gs, checkpoint = _restored(case, gs)
            gs.finish()
        except ExecutionError as exc:
            error = str(exc)
    rows = {
        name: canonical([r.values for r in gs.results(name)], not case.target.sharded)
        for _, name in case.queries
    }
    return Seen(rows, (series(gs.metrics), gs.cost.accounts()), gs, len(fed), checkpoint, error, resumed)


def _restored(case: Case, gs: Any) -> Tuple[Any, Any]:
    """A fresh deployment restored from ``gs``'s pickled checkpoint, and
    (serial) the checkpoint as it is compared."""
    state = gs.checkpoint()
    gs.abandon()
    fresh = registered(case)
    if case.target.sharded:
        fresh.restore(pickle.loads(pickle.dumps(state)))
        fresh.start()
        return fresh, None
    fresh.start()
    fresh.restore(pickle.loads(pickle.dumps(state)))
    return fresh, (pickle.dumps(state["queries"]), state["cost_accounts"], series(gs.metrics))


def served_queries(case: Case) -> List[Tuple[str, str]]:
    """What a served case registers: its queries — a lone one under both
    names, twins whatever they are called."""
    if len(case.family.texts) > 1:
        return case.queries
    return [(case.queries[0][0], name) for name in case.names]


def _served(case: Case, tmp: str) -> Seen:
    """The set registered on one standing-query engine and driven through
    ``drive``; rows and accounting per query."""

    assert case.setup is None, "a served instance is deploy's own"
    journal = tempfile.mkdtemp(dir=tmp) + "/journal"

    def engine_for(**options: Any) -> Any:
        return deploy(case.target, schema=case.family.schema, libraries=LIBRARIES,
                      vectorize=case.vectorize, validate_admission=case.validate, **options)

    engine = engine_for(
        on_commit=crash_on_commit(case.crash_at),
        journal=ResultJournal(journal, fresh=True) if case.target.durable else None,
    )
    served = [engine.register(text, name=name) for text, name in served_queries(case)]
    for sq, (text, _) in zip(served, served_queries(case)) if not case.validate else ():
        # the engine shares what lint's SA401 says it shares (where lint
        # gets that far: a type error it reports stops it first)
        linted = lint_query(text, sq.instance.registries, target=replace(case.target, durable=False))
        if linted.plan is not None:
            assert linted.plan.annotations["serving"]["signature"] == (
                sq.signature and sq.signature.describe()
            )
    fed = list(case.stream.payloads)
    resumed = False
    try:
        drive(engine, fed, batch_size=case.batch_size, commit_interval=2)
    except _Boom:
        engine, resumed = resume_serving(engine_for(), journal, iter(fed),
                                         batch_size=case.batch_size, commit_interval=2), True
        served = [engine.lookup(sq.qid) for sq in served]
    return Seen(
        {sq.name: canonical([r.values for r in sq.results], True) for sq in served},
        {sq.name: (series(sq.instance.metrics), sq.instance.cost.accounts()) for sq in served},
        engine, len(fed), resumed=resumed,
    )


# -- the references and the identities -------------------------------------------------


def oracle(case: Case) -> Tuple[Oracle, Optional[str]]:
    """The oracle over the records admission lets through, shedding as
    the deployment does, and the error it stopped at."""
    reference = Oracle(
        instance(replace(case, target=ExecTarget())).registries, case.target.shed_threshold
    )
    for text, name in case.queries:
        reference.add(text, name)
    try:
        reference.run(case.stream.records)
    except ExecutionError as exc:
        return reference, str(exc)
    return reference, None


def unplaced(error: Optional[str]) -> Optional[str]:
    """An error message without its ``(at line L, col C)``."""
    return error and error.rsplit(" (at line ", 1)[0]


def plainest(case: Case) -> Case:
    """The accounting reference: tuple engine, no fault, one run — but
    the checkpoint point stays."""
    return replace(case, vectorize=False, fault=None, cuts=())


def refusals(case: Case) -> Tuple[List[str], List[str]]:
    """The SA3xx errors lint reports for the deployment, and their
    reasons.  Where lint stops at the query itself — a type error it
    reports and the engine evaluates all the same (Python's bool
    arithmetic) — the table's own rows stand in for its verdict."""
    registries = instance(replace(case, target=ExecTarget())).registries
    rules: List[str] = []
    reasons: List[str] = []
    for text, name in case.queries:
        plan = compile_query(text, registries, query_name=name)
        result = lint_query(text, registries, filename=name, target=case.target)
        if result.plan is not None:
            refused = [d.rule for d in result.errors if d.rule.startswith("SA3")]
        else:
            refused = [rule.id for rule, _ in table_refusals(case.target, plan, registries) if rule.error]
        rules += refused
        reasons += [rule.reason(plan, registries, case.target) for rule in RULES if rule.id in refused]
        registries.schemas[name] = plan.output_schema
    return rules, reasons


#: refusals only a runtime can make: the upstream chain of a sharded query
RUNTIME_ONLY = ("survives the upstream query chain", "no partition column acceptable")


def conserved(deployment: Any, read: int, kinds: Dict[str, str]) -> None:
    """Every record read is ingested or refused; every tuple an operator
    takes in is filtered and then admitted, late or incomparable — or,
    through a selection, emitted."""
    total = deployment.metrics.total
    refused = sum(total(row.counter) for row in REFUSALS.values())
    assert read == total("stream_records_total") == total("stream_ingested_total") + refused
    for name, kind in kinds.items():
        terms = ["rows_out"] if "selection" in kind else ["tuples_admitted", "late_tuples", "incomparable_tuples"]
        taken = total("operator_tuples_in_total", query=name)
        assert taken == sum(total(f"operator_{term}_total", query=name) for term in ["tuples_filtered", *terms]), name


def supervised_fault(case: Case, seen: Seen) -> None:
    """The drawn fault fired and was recovered from exactly when its shard
    was shipped enough batches (a dropped result: always)."""
    action, shard, at_batch = case.fault[:3]
    gs = seen.deployment
    column = case.family.schema.index_of(gs.partition_column(case.family.schema.name))
    fed = case.stream.records
    cuts = range(0, len(fed), case.batch_size) if case.target.durable else case.cuts
    bounds = sorted({0, len(fed), *cuts})
    shipped = sum(
        any(stable_hash(r.values[column]) % gs.shards == shard for r in fed[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    )
    fired = action == "drop_result" or shipped >= at_batch
    report = gs.last_supervision
    assert report.restarts == ({shard: 1} if fired else {}), report.failures
    assert report.recoveries_from_checkpoint.get(shard, 0) <= report.restarts.get(shard, 0)
    if action == "corrupt" and fired:
        assert any("undecodable" in failure for failure in report.failures)


def agree(case: Case) -> Optional[Seen]:
    """Everything the module docstring promises, for one case; returns
    what the run left behind (None: the deployment was refused)."""
    rules, reasons = refusals(case)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            seen = run(case, tmp)
        except (PlanningError, ExecutionError) as exc:
            assert rules or any(s in str(exc) for s in RUNTIME_ONLY), str(exc)
            assert not rules or any(reason in str(exc) for reason in reasons), (str(exc), reasons)
            return None
        assert not rules, f"{case.target.describe()}: lint says {rules}, the deployment runs"
        reference, error = oracle(case)
        ordered = not case.target.sharded
        expected = {name: canonical(node.rows, ordered) for name, node in reference.nodes.items()}
        # Without the position: an error in a heavy query points into the
        # text the runtime rewrote to read its feeder (ROADMAP item 1(a)).
        assert unplaced(seen.error) == unplaced(error)
        if error is not None and case.vectorize:
            return seen
        if case.target.serve and len(case.family.texts) == 1:  # twins
            expected.update({name: expected[case.names[0]] for name in case.names})
        assert seen.rows == expected
        if error is not None:
            return seen
        if case.target.serve:
            for text, name in served_queries(case):
                solo = replace(plainest(case), family=Family((text,), case.family.schema), names=(name,),
                               target=ExecTarget(shed_threshold=case.target.shed_threshold))
                assert seen.accounts[name] == run(solo, tmp).accounts, name
            return seen
        kinds = {name: node.plan.kind for name, node in reference.nodes.items()}
        conserved(seen.deployment, seen.read, kinds)
        plain = run(plainest(case), tmp)
        assert seen.accounts == plain.accounts
        # Which window's stats count a dead-lettered payload depends on
        # the cut: the one open when its batch was admitted (ROADMAP
        # 1(a)).  A shed record is counted where its stream order puts it.
        if case.stream.payloads == case.stream.records:
            assert seen.checkpoint == plain.checkpoint
        if case.fault is not None and not case.crash_at:
            supervised_fault(case, seen)
    return seen


# -- the generator ---------------------------------------------------------------------

NAMES = st.sampled_from(["q", "pre", "agg", "flows", "top"]) | st.text(
    "abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=5
).filter(lambda name: name.upper() not in KEYWORDS)


@st.composite
def targets(draw: Any, shape: str, family: Family) -> ExecTarget:
    """A deployment the legality table can describe.  A composed WHERE
    that raises runs serially: an error ends a run, and how far a shard,
    a journal or a server had got by then is no operator's semantics."""
    durable = draw(st.sampled_from([False, False, True]))
    shed = draw(st.sampled_from([None, None, None, 24]))
    if family.raises or (shape == "served" and len(family.texts) > 1):
        shape = "serial"
    if shape == "serial":
        return ExecTarget() if family.raises else ExecTarget(durable=durable, shed_threshold=shed)
    if shape == "served":
        return ExecTarget(serve=True, durable=durable, shed_threshold=shed)
    return ExecTarget(
        shards=draw(st.sampled_from([2, 1])),
        supervise=draw(st.sampled_from([False, False, False, True])),
        durable=durable, shed_threshold=shed,
    )


def shardable(family: Family) -> bool:
    return not refusals(Case(family, stream(()), target=ExecTarget(shards=2)))[0]


#: the sets two shards can run (most others hold a global state set or a
#: key-less group, which the legality table refuses)
SHARDABLE = sorted(name for name, family in FAMILIES.items() if shardable(family))


@st.composite
def cases(draw: Any) -> Case:
    shape = draw(st.sampled_from(["serial", "sharded", "sharded", "served"]))
    keyed = shape == "sharded" and draw(st.integers(0, 4)) > 0
    pool = SHARDABLE if keyed else sorted(FAMILIES)
    key = draw(st.sampled_from(pool + ["composed"] * (len(pool) // 3)))
    family = draw(composed(keyed)) if key == "composed" else FAMILIES[key]
    target = draw(targets(shape, family))
    validate = draw(st.sampled_from([False, False, True]))
    late_ok = not (target.sharded and family.selects)
    drawn = draw(streams(family, validate, late_ok))
    n = len(drawn.payloads)
    offsets = st.integers(1, max(n - 1, 1))
    fault: Optional[Tuple[Any, ...]] = None
    if target.supervise and not validate and draw(st.booleans()):
        fault = (draw(st.sampled_from(["kill", "drop_result", "corrupt"])),
                 draw(st.integers(0, target.shards - 1)), draw(st.integers(1, 3)))
    elif target.durable and draw(st.booleans()):
        fault = ("crash", draw(st.integers(1, 4)))
    plain = not (target.durable or target.serve or fault or n < 2)
    first, second = draw(NAMES), draw(NAMES)
    names = (first, second + "b" if second == first else second)
    # a record under the first query's output schema names no stream
    registries = instance(Case(family, drawn)).registries
    schema = compile_query(family.texts[0].format(*names), registries, query_name=first).output_schema
    drawn = replace(drawn, payloads=tuple(
        Record(schema, (0,) * len(schema)) if p == "query_schema" else p for p in drawn.payloads
    ))
    return Case(
        family,
        drawn,
        names=names,
        target=target,
        vectorize=draw(st.booleans()),
        cuts=tuple(draw(st.lists(offsets, max_size=8))),
        batch_size=draw(st.sampled_from([16, 64, 1000])),
        checkpoint_at=draw(st.none() | offsets) if plain else None,
        fault=fault,
        supervision=SupervisionPolicy(
            checkpoint_interval=draw(st.sampled_from([8, 2])),
            journal_capacity=draw(st.sampled_from([64, 4])),
        ) if target.supervise else None,
        validate=validate,
    )


@given(cases())
def test_every_deployment_agrees_with_the_oracle(case: Case) -> None:
    seen = agree(case)
    event(f"{case.target.describe()}{' vectorized' if case.vectorize else ''}:"
          f" {'refused' if seen is None else 'error' if seen.error else 'ran'}")


# -- the oracle is anchored, not only agreed with --------------------------------------


def packet(time: Any, src: int = 1, length: int = 100) -> Record:
    return Record.from_mapping(TCP_SCHEMA, {"time": time, "srcIP": src, "len": length})


def tally_library() -> StatefulLibrary:
    """``bump()`` counts a supergroup's tuples; its state starts a window
    from the last window's count (``state_init``); ``seen()`` reads it."""
    library = StatefulLibrary()

    @library.state("tally")
    class Tally(StatefulState):
        def __init__(self) -> None:
            self.seen = 0

        @classmethod
        def initial(cls, old: Optional["Tally"]) -> "Tally":
            state = cls()
            state.seen = old.seen if old is not None else 0
            return state

    @library.sfun("bump", state="tally")
    def bump(state: Tally) -> bool:
        state.seen += 1
        return True

    library.add_sfun("seen", "tally", lambda state: state.seen)
    return library


#: name -> (query, stream, rows worked out by hand from PAPER.md §1)
ANCHORS = {
    # srcIP 3 makes three groups: the cleaning phase evicts 2 and 3
    # (count 1), count_distinct$ drops to 1, and 4 brings it to 2
    "cleaning evicts, count_distinct$ follows": (
        "SELECT tb, srcIP, count(*), count_distinct$(*) FROM TCP"
        " GROUP BY time/10 as tb, srcIP SUPERGROUP tb"
        " CLEANING WHEN count_distinct$(*) > 2 CLEANING BY count(*) > 1",
        [packet(0, 1), packet(1, 1), packet(2, 2), packet(3, 3), packet(4, 4)],
        [(0, 1, 2, 2), (0, 4, 1, 2)],
    ),
    # at the close, HAVING rejects 1 (count_distinct$ 4 -> 3), keeps 2,
    # rejects 3 (-> 2), keeps 4: each survivor sees the groups before it gone
    "HAVING rejects in insertion order": (
        "SELECT tb, srcIP, count(*), count_distinct$(*) FROM TCP"
        " GROUP BY time/10 as tb, srcIP SUPERGROUP tb HAVING count(*) > 1",
        [packet(0, 1), packet(1, 2), packet(2, 2), packet(3, 3), packet(4, 4), packet(5, 4)],
        [(0, 2, 2, 3), (0, 4, 2, 2)],
    ),
    # the state carried into windows 1 and 2 starts from the count so far
    "state_init carries an SFUN state over": (
        "SELECT tb, count(*), seen() FROM TCP WHERE bump() = TRUE GROUP BY time/10 as tb",
        [packet(0), packet(1), packet(10), packet(11), packet(12), packet(25)],
        [(0, 2, 2), (1, 3, 5), (2, 1, 6)],
    ),
}


@pytest.mark.parametrize("name", list(ANCHORS))
def test_the_oracle_is_anchored(name: str) -> None:
    text, records, rows = ANCHORS[name]
    instances = []
    for _ in range(2):
        instances.append(deploy(libraries=[tally_library()]))
    reference = Oracle(instances[0].registries)
    reference.add(text, "q")
    assert reference.run(records)["q"] == rows
    instances[1].add_query(text, name="q")
    instances[1].run(iter(records))
    assert [r.values for r in instances[1].results("q")] == rows


# -- one late-tuple policy for every windowed operator ------------------------------------

#: a record of window 0 after window 1 opened, re-sent by each of two sources
LATE = [packet(0, 1), packet(0, 2), packet(2, 1), packet(2, 2), packet(0, 1), packet(0, 2), packet(3, 2)]


@pytest.mark.parametrize("vectorize", [False, True], ids=["tuple", "vectorized"])
def test_an_aggregation_drops_a_late_record_like_the_sampling_operator(vectorize: bool) -> None:
    """It used to close the open window and emit window 0 a second time."""
    case = Case(Family(("SELECT tb, count(*) FROM TCP GROUP BY time/2 as tb",)), stream(LATE),
                vectorize=vectorize, cuts=(5,))
    seen = agree(case)
    assert seen.rows["q"] == canonical([(0, 2), (1, 3)], True)
    assert seen.deployment.metrics.total("operator_late_tuples_total", query="q") == 2
    sampling = Case(Family((case.family.texts[0] + " SUPERGROUP tb CLEANING WHEN 1 = 0 CLEANING BY 1 = 1",)), stream(LATE))
    assert agree(sampling).rows == seen.rows


@pytest.mark.parametrize("vectorize", [False, True], ids=["tuple", "vectorized"])
def test_an_unorderable_window_id_is_counted_and_opens_no_window(vectorize: bool) -> None:
    records = [packet(0), with_time(packet(0), None), packet(0), packet(1)]
    seen = agree(Case(Family(("SELECT tb, count(*) FROM TCP GROUP BY time as tb",)), stream(records),
                      vectorize=vectorize))
    assert seen.rows["q"] == canonical([(0, 2), (1, 1)], True)
    assert seen.deployment.metrics.total("operator_incomparable_tuples_total", query="q") == 1


@pytest.mark.parametrize("supervise", [False, True], ids=["inline", "supervised"])
def test_two_shards_drop_a_late_record_like_serial(supervise: bool) -> None:
    """The MERGE used to refuse shard 1: ``violated ordering: 0 after 1``."""
    text = "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/2 as tb, srcIP"
    expected = agree(Case(Family((text,)), stream(LATE))).rows
    sharded = agree(Case(Family((text,)), stream(LATE), target=ExecTarget(shards=2, supervise=supervise)))
    assert sharded.rows["q"] == sorted(expected["q"], key=repr)


# -- the corpus exercises what it claims to -------------------------------------------------

_BURSTY = stream(late(TRACES["bursty"], [100]))
CORPUS = {
    "sampling": Case(FAMILIES["subset_sum"], _BURSTY, cuts=(40, 80)),
    "aggregation": Case(FAMILIES["aggregate"], _BURSTY, vectorize=True),
    "supervised kill": Case(
        FAMILIES["subset_sum_per_source"], _BURSTY, target=ExecTarget(shards=2, supervise=True),
        cuts=tuple(range(20, 160, 20)), fault=("kill", 0, 2),
    ),
    "durable crash": Case(FAMILIES["subset_sum"], _BURSTY, target=ExecTarget(durable=True),
                          batch_size=16, fault=("crash", 2)),
}


def test_the_corpus_exercises_the_operators() -> None:
    """Guard on the generator: windows close mid-stream, a late tuple is
    dropped, cleaning phases run, a supervised kill fires and is
    recovered, a durable crash resumes — or the agreement is vacuous."""
    seen = {name: agree(case) for name, case in CORPUS.items()}
    for name in ("sampling", "aggregation"):
        total = seen[name].deployment.metrics.total
        assert total("operator_windows_total", query="q") > 2
        assert total("operator_late_tuples_total", query="q") == 1
    assert seen["sampling"].deployment.metrics.total("operator_cleaning_phases_total") > 0
    assert seen["supervised kill"].deployment.last_supervision.restarts == {0: 1}
    assert seen["durable crash"].resumed
