"""The two-level Gigascope-like runtime (paper §3, Figure 1).

Queries whose FROM clause names a registered *source stream* are low-level
queries: each fed batch hands them that stream's admitted records as one
run.  Gigascope restricts low-level nodes to cheap data reduction —
"Currently only selection and (partial) aggregation are supported"
(paper §7.2) — so when a sampling
query is submitted directly against a source stream the runtime does what
the paper did: it interposes an automatic low-level pass-through selection
query and runs the sampling operator at the high level.  Every tuple a
low-level query forwards upward is charged a ``tuple_copy`` (the dominant
cost in the paper's Fig 5 discussion); replacing the pass-through with a
prefiltering low-level query (Fig 6) is done by submitting that query
explicitly and pointing the sampling query at its name.

The runtime is synchronous: :meth:`Gigascope.run` drives a record iterator
through admission, the low-level operators, and on through the query
DAG; each query's output is retained on its handle (the "App" sink of
Figure 1) and also forwarded to any downstream queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from time import perf_counter
from typing import (
    Any, Collection, Dict, Iterable, List, NamedTuple, Optional, Sequence,
    Tuple,
)

from repro.errors import ExecutionError, PlanningError, SchemaError
from repro.analysis.legality import ExecTarget
from repro.dsms.aggregates import default_aggregate_registry
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.durability import Appended, batches, run_batches
from repro.dsms.functions import default_function_registry
from repro.dsms.operators import build_operator
from repro.dsms.operators.base import Operator
from repro.dsms.parser import QueryPlan, Registries, analyze, compile_query, parse_query
from repro.dsms.parser import plan as plan_query
from repro.dsms.stateful import StatefulLibrary
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import NULL_TRACE, TraceSink
from repro.streams.records import Record, records_of
from repro.streams.schema import Ordering, StreamSchema, coerce_record
from repro.streams.sources import QuarantineStream
from repro.core.superaggregates import default_superaggregate_registry


_SCHEMA_OF = attrgetter("schema")


class StreamRun(tuple):
    """A batch :func:`run_stream` found to be one run of ``stream``,
    frozen with that verdict: whoever fans it out to several instances
    checks it once, and each instance reads the verdict instead."""

    stream: str

    def __new__(cls, records: Sequence[Record], stream: str) -> "StreamRun":
        run = super().__new__(cls, records)
        run.stream = stream
        return run

    def __reduce__(self) -> Tuple[Any, ...]:
        # Its schema once, then its rows' values: vouched for where it was
        # cut, the run is rebuilt unchecked on the far side.
        schema = self[0].schema if self else None
        return _unpickle_run, (schema, [r.values for r in self], self.stream)


def _unpickle_run(schema: Optional[StreamSchema], rows: List[tuple], stream: str) -> StreamRun:
    return StreamRun(records_of(schema, rows), stream)


def run_stream(batch: Sequence[Any]) -> Optional[str]:
    """The stream a non-empty ``batch`` is one *run* of — exact ``Record``
    instances that all carry the first one's schema — or None."""
    if type(batch) is StreamRun:
        return batch.stream
    if (
        list(map(type, batch)).count(Record) == len(batch)
        and list(map(_SCHEMA_OF, batch)).count(batch[0].schema) == len(batch)
    ):
        return batch[0].schema.name
    return None

#: help text of the two per-stream counters every fed batch lands in
_STREAM_HELP = {
    "stream_records_total": "records offered to the stream (before admission)",
    "stream_ingested_total": "records admitted to the stream's low-level queries",
}


class Refusal(NamedTuple):
    """How one kind of unprocessed record is accounted: the cost ``op``
    charged per record, the per-stream ``counter`` (and its ``help``), the
    trace ``event``, and the ``note`` downstream sampling operators are
    told."""

    op: str
    counter: str
    help: str
    event: str
    note: str


#: Every way an offered record goes unprocessed, keyed by its
#: ``run_report()["streams"]`` column — the only place that names these
#: operations, counters and events.  On every deployment's folded registry
#: ``stream_records_total == stream_ingested_total + Σ`` these counters.
REFUSALS: Dict[str, Refusal] = {
    # overload: past shed_threshold records of one second of stream time
    "shed": Refusal(
        "tuple_shed", "stream_shed_total",
        "records refused at admission under overload", "shed", "note_shed",
    ),
    "quarantined": Refusal(
        "tuple_quarantined", "stream_quarantined_total",
        "records dead-lettered at admission (malformed input)",
        "quarantine", "note_quarantined",
    ),
    "quota_shed": Refusal(
        "quota_shed", "stream_quota_shed_total",
        "records refused at the serving edge by a tenant quota",
        "quota_shed", "note_shed",
    ),
    "poison_skipped": Refusal(
        "poison_skip", "serve_poison_skipped_total",
        "records skipped at the serving edge because the query's circuit"
        " breaker is open",
        "poison_skip", "note_shed",
    ),
}


def account_refusal(
    host: Any, kind: str, stream: str, count: int, offered: bool,
    fields: Optional[Dict[str, Any]] = None,
) -> None:
    """Charge, count and trace ``count`` records of ``stream`` that
    ``host`` (any deployment: it has ``cost``, ``metrics``, ``trace``)
    does not process, the way :data:`REFUSALS` says for ``kind``.

    ``offered``: count them in ``stream_records_total`` too — False when
    an instance's own admission refuses (it counted the batch already),
    True outside one (serving edge, SPLIT edge).  ``fields`` replace the
    trace event's default ``{stream, count}``.
    """
    row = REFUSALS[kind]
    host.cost.charge(stream, row.op, count)
    if offered:
        name = "stream_records_total"
        host.metrics.counter(name, help=_STREAM_HELP[name], stream=stream).inc(count)
    host.metrics.counter(row.counter, help=row.help, stream=stream).inc(count)
    if host.trace.enabled:
        host.trace.emit(row.event, **(fields or {"stream": stream, "count": count}))


#: ``run_report()`` columns and the series each one sums: per source
#: stream, one per :data:`REFUSALS` kind; per sampling query, what its
#: operator dropped
_STREAM_COLUMNS = {kind: row.counter for kind, row in REFUSALS.items()}
#: per source stream, records lost or waiting after admission: none, as
#: a fed batch is handed whole to the stream's low-level queries
_ADMITTED_COLUMNS = {"drops": 0, "backlog": 0}
_QUERY_COLUMNS = {
    column: f"operator_{column}_total"
    for column in ("late_tuples", "incomparable_tuples", "shed_tuples", "quarantined_tuples")
}


def registry_report(
    host: Any, streams: Iterable[str], handles: Sequence[QueryHandle]
) -> Dict[str, Any]:
    """The ``run_report()`` of any deployment ``host`` (it has
    ``metrics``, ``vectorize``): the columns of each of ``streams`` and
    of each sampling query among ``handles``, read off its registry and
    summed over ``shard`` labels; under ``vectorize``, also the nodes
    that fell back to the tuple engine, and why."""
    total = host.metrics.total
    report: Dict[str, Any] = {
        "streams": {
            stream: {
                **_ADMITTED_COLUMNS,
                **{
                    column: int(total(name, stream=stream))
                    for column, name in _STREAM_COLUMNS.items()
                },
            }
            for stream in streams
        },
        "queries": {
            handle.name: {
                column: int(total(name, query=handle.name, operator="sampling"))
                for column, name in _QUERY_COLUMNS.items()
            }
            for handle in handles
            if handle.operator.kind_label == "sampling"
        },
    }
    if host.vectorize:
        fallbacks = {
            handle.name: handle.operator.vectorize_fallback
            for handle in handles
            if handle.operator.execution_mode != "vectorized"
        }
        if fallbacks:
            report["vectorize"] = {"fallbacks": fallbacks}
    return report


class StreamShed:
    """``shed=N`` on one source stream: at most ``limit`` records per
    value of its first increasing attribute (``column``; ``time``, so per
    second, for TCP and PKT).  A record whose value does not compare
    greater than the current one — late, equal, ``None``, NaN — counts
    against the current value's allowance.  The decision is a function
    of the stream's prefix, so any cut into batches, a SPLIT after it and
    a resume from its state ``(value, admitted)`` shed the same records.
    """

    __slots__ = ("column", "limit", "value", "admitted")

    def __init__(self, schema: StreamSchema, limit: int) -> None:
        increasing = [a.name for a in schema.attributes if a.ordering is Ordering.INCREASING]
        if not increasing:
            raise PlanningError(f"stream {schema.name!r} has no increasing attribute to shed by")
        self.column, self.limit = schema.index_of(increasing[0]), limit
        self.value: Any = None  # the current value: None before the first orderable one
        self.admitted = 0  # how many records the current value admitted

    def cut(self, run: Sequence[Record]) -> List[Tuple[Sequence[Record], int]]:
        """``run`` in stream order as pieces: each admitted slice, and
        how many records are shed right after it."""
        column, limit, value, admitted = self.column, self.limit, self.value, self.admitted
        pieces: List[Tuple[Sequence[Record], int]] = []
        start = end = 0  # run[start:end]: admitted, not yet a piece
        for i, record in enumerate(run):
            t = record.values[column]
            try:
                newer = t > value if value is not None else t is not None and t == t
            except TypeError:
                newer = False
            if newer:
                value, admitted = t, 0
            if admitted < limit:
                admitted += 1
                if end != i:  # records end .. i - 1 were shed
                    pieces.append((run[start:end], i - end))
                    start = i
                end = i + 1
        self.value, self.admitted = value, admitted
        pieces.append((run[start:end], len(run) - end))
        return pieces


def own_state(host: Any, since: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The run state ``host`` (any deployment: it has ``cost``,
    ``metrics``, ``trace``) owns itself, for its ``checkpoint(since)`` to
    carry beside its children's: of the trace, the events since ``since``;
    of each :class:`StreamShed` in its ``sheds``, its state.  State that
    is shared is owned — and checkpointed — once, by whoever handed it
    out (see ``_InlinePool.checkpoint_all``)."""
    state = {
        "cost_accounts": host.cost.accounts() if host.cost.enabled else {},
        "metrics": host.metrics.checkpoint(),
        "trace": host.trace.checkpoint(since.get("trace") if since else None),
    }
    sheds = getattr(host, "sheds", None)
    if sheds:
        state["shedding"] = {stream: (s.value, s.admitted) for stream, s in sheds.items()}
    return state


def restore_own_state(host: Any, state: Dict[str, Any]) -> None:
    """Reinstate :func:`own_state` from ``state``; balances only if it
    carries any (a shard of a shared model carries none)."""
    shedding, sheds = state.get("shedding", {}), getattr(host, "sheds", {})
    if set(shedding) != set(sheds):
        raise ExecutionError(f"checkpoint does not match this deployment: it sheds"
                             f" streams {sorted(shedding)}, the deployment {sorted(sheds)}")
    if state.get("cost_accounts") and host.cost.enabled:
        host.cost.reset()
        host.cost.absorb(state["cost_accounts"])
    for stream, (value, admitted) in shedding.items():
        sheds[stream].value, sheds[stream].admitted = value, admitted
    # In place: series bound to operators stay valid, and counts a
    # replay of registrations bumped are overwritten, not added to.
    host.metrics.restore(state["metrics"])
    if host.trace.enabled:
        host.trace.restore(state["trace"])


def admit_payload(
    payload: Any,
    schemas: Dict[str, StreamSchema],
    streams: Collection[str],
    validate: bool,
) -> Tuple[str, Optional[Record], Optional[str]]:
    """Route one fed payload to a source stream and, when ``validate``,
    validate and coerce it against that stream's schema: ``(stream,
    record, None)``, or ``(stream, None, reason)`` for a payload the
    caller must dead-letter.  Without ``validate`` nothing is refused
    that way: a non-record or a record for an unregistered stream raises
    :class:`ExecutionError`."""
    schema = payload.schema if isinstance(payload, Record) else None
    if schema is None and validate and len(streams) == 1:
        # Raw payloads (mappings, value tuples) are only routable when
        # the deployment hosts a single source stream.
        schema = schemas[next(iter(streams))]
    if schema is None:
        if validate:
            reason = f"cannot route a {type(payload).__name__} payload to a stream"
            return "__unroutable__", None, reason
        raise ExecutionError(f"cannot ingest a {type(payload).__name__}: not a Record")
    stream = schema.name
    if stream not in streams:
        reason = f"record for unregistered stream {stream!r}"
        if validate:
            return stream, None, reason
        raise ExecutionError(reason)
    if not validate:
        return stream, payload, None
    try:
        return stream, coerce_record(schema, payload), None
    except SchemaError as exc:
        return stream, None, str(exc)


@dataclass
class QueryHandle:
    """One registered query: its plan, operator, topology and sink."""

    name: str
    text: str
    level: str  # "low" | "high"
    source: str  # source stream or upstream query name
    operator: Operator
    #: what ``text`` compiled to (a MERGE node has no text to compile)
    plan: Optional[QueryPlan] = None
    results: List[Record] = field(default_factory=list)
    keep_results: bool = True
    forwarded: int = 0  # tuples this node pushed to downstream queries
    #: the operator is fed per source (``process_many_from``: a merge)
    #: rather than through ``process_many`` — resolved once, at registration
    fed_per_source: bool = False
    #: this node's ``query_forwarded_total`` series, resolved on first
    #: forward (a node that never forwards registers no series)
    forwarded_series: Optional[Counter] = None
    #: the pass-through feeder :meth:`Gigascope.add_query` inserted for
    #: this query, which it reads (paper §7.2), or None
    feeder: Optional[str] = None

    @property
    def output_schema(self) -> StreamSchema:
        return self.operator.output_schema


class Gigascope:
    """A miniature DSMS instance hosting source streams and queries."""

    #: the ``mode`` this deployment's journal entries carry
    journal_mode = "serial"

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        shed_threshold: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceSink] = None,
        profile: bool = False,
        quarantine: Optional[QuarantineStream] = None,
        validate_admission: bool = False,
        vectorize: bool = False,
    ) -> None:
        """``shed_threshold`` enables load shedding by stream time: each
        source stream admits at most this many records per second
        (:class:`StreamShed`), whatever the batch cut, and the rest is
        *shed*, accounted as :data:`REFUSALS` says.  ``None`` disables
        shedding (the default); a threshold under 1 is a
        :class:`ValueError`, a stream with no increasing attribute a
        :class:`PlanningError`.

        ``metrics`` / ``trace`` attach an instance-wide metrics registry
        and trace sink; every operator registered afterwards is bound to
        them (docs/OBSERVABILITY.md).  Defaults: a private registry and
        the no-op trace sink.  ``profile`` additionally charges wall time
        per operator call into ``operator_seconds{query,phase}``.

        ``validate_admission`` hardens the ingest edge: every fed payload
        is validated (and, where possible, coerced) against its stream
        schema (:func:`admit_payload`), and records that fail — NaN
        window ids, wrong types, non-records — are routed to the
        dead-letter ``quarantine`` stream and accounted as
        ``"quarantined"`` refusals instead of raising mid-query.
        ``quarantine`` defaults to a private bounded
        :class:`QuarantineStream`; pass one to share it with a resilient
        source or inspect it afterwards.

        ``vectorize`` executes selection and plain-aggregation operators
        on the columnar batch engine (DESIGN.md §11): a stream's admitted
        run is wrapped into a :class:`RecordBatch` and whole batches flow
        through compiled numpy closures, with records rebuilt only at
        output edges.  Plans the batch engine cannot express (SFUNs,
        superaggregates, nondeterministic scalars, custom aggregates)
        fall back per operator to the tuple path; results are
        byte-identical either way.
        """
        ExecTarget(shed_threshold=shed_threshold)  # refuses a threshold under 1
        self.cost = cost_model or NULL_COST_MODEL
        self.shed_threshold = shed_threshold
        self.validate_admission = validate_admission
        self.vectorize = vectorize
        self.quarantine = (
            quarantine if quarantine is not None else QuarantineStream()
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else NULL_TRACE
        self.profile = profile
        self.registries = Registries(
            schemas={},
            scalars=default_function_registry(),
            aggregates=default_aggregate_registry(),
            superaggregates=default_superaggregate_registry(),
            stateful=StatefulLibrary(),
        )
        #: the registered source streams, in registration order
        self._streams: List[str] = []
        #: per source stream, its shed rule (only under ``shed_threshold``)
        self.sheds: Dict[str, StreamShed] = {}
        self._queries: Dict[str, QueryHandle] = {}
        self._order: List[str] = []  # insertion order == topological order
        self._downstream: Dict[str, List[str]] = {}
        self._auto_counter = 0
        #: the low-level nodes, in registration order, while an
        #: incremental run is open
        self._session: Optional[List[QueryHandle]] = None
        #: per-stream counter series by (metric name, stream), resolved
        #: on first use (``MetricsRegistry.restore`` mutates series in
        #: place, so the references stay valid)
        self._stream_series: Dict[Tuple[str, str], Counter] = {}

    # -- registration -----------------------------------------------------------

    def register_stream(self, schema: StreamSchema) -> None:
        """Register a source stream."""
        if schema.name in self.registries.schemas:
            raise PlanningError(f"stream {schema.name!r} already registered")
        if self.shed_threshold is not None:
            self.sheds[schema.name] = StreamShed(schema, self.shed_threshold)
        self.registries.schemas[schema.name] = schema
        self._streams.append(schema.name)

    def use_stateful_library(self, library: StatefulLibrary) -> None:
        """Merge an SFUN pack into this instance's registries."""
        self.registries.stateful = self.registries.stateful.merge(library)

    def register_scalar(self, name: str, fn, deterministic: bool = True) -> None:
        self.registries.scalars.register(name, fn, deterministic=deterministic)

    @property
    def target(self) -> ExecTarget:
        """This deployment as the legality table sees it."""
        return ExecTarget(shed_threshold=self.shed_threshold)

    def lint(self, text: str, name: str = "query"):
        """Statically analyze a query against this instance's registries
        and its :attr:`target`, without compiling or registering it;
        returns a ``LintResult``."""
        from repro.analysis.linter import lint_query

        return lint_query(text, self.registries, filename=name, target=self.target)

    # -- queries -----------------------------------------------------------------

    def add_query(
        self,
        text: str,
        name: Optional[str] = None,
        keep_results: bool = True,
        low_level_aggregation: bool = False,
    ) -> QueryHandle:
        """Compile and register one query.

        The query's FROM clause may name a source stream or a previously
        registered query.  The query's own output schema is registered
        under ``name`` so later queries can read from it.

        ``low_level_aggregation`` lets a plain aggregation query run
        directly at the low level (paper Figure 1: "Low-level queries
        perform initial fast selection and aggregation") instead of behind
        an auto-inserted pass-through feeder — early data reduction that
        avoids the per-tuple copy cost.  Sampling queries always run at
        the high level (paper §7.2: the low level supports only selection
        and partial aggregation).  The feeder's name is the handle's
        ``feeder``.
        """
        if name is None:
            self._auto_counter += 1
            name = f"q{self._auto_counter}"
        if name in self.registries.schemas:
            raise PlanningError(f"name {name!r} already in use")

        plan = compile_query(text, self.registries, query_name=name)
        source = plan.analyzed.ast.from_stream
        reads_source_stream = source in self._streams
        feeder: Optional[str] = None

        if low_level_aggregation and plan.kind != "aggregation":
            raise PlanningError(
                "low_level_aggregation applies only to plain aggregation"
                f" queries, not {plan.kind!r}"
            )

        if (
            reads_source_stream
            and plan.kind in ("sampling", "aggregation")
            and not (plan.kind == "aggregation" and low_level_aggregation)
        ):
            # Paper §7.2: only selection runs at the low level, so a heavy
            # query against a raw stream needs a low-level feeder.  Insert
            # the pass-through selection the paper used (and measured).
            feeder = f"{name}__lowsel"
            self._add_passthrough_selection(source, feeder)
            try:
                # Read the feeder, with every span still in the text the
                # user registered (an error points at what they wrote).
                ast = replace(parse_query(text), from_stream=feeder)
                plan = plan_query(analyze(ast, self.registries), self.registries, name)
            except Exception:
                # The feeder must not outlive the query it was inserted
                # for; a leaked __lowsel node would shadow the name and
                # keep forwarding (and charging for) every tuple.
                self._remove_query(feeder)
                raise
            source = feeder
            reads_source_stream = False

        level = "low" if reads_source_stream else "high"
        if level == "high" and source not in self._queries:
            raise PlanningError(
                f"query {name!r} reads from {source!r}, which is neither a"
                " source stream nor a registered query"
            )

        operator = build_operator(
            plan, self.cost, account=name, vectorize=self.vectorize
        )
        operator.bind_obs(self.metrics, self.trace, name)
        if self.vectorize and operator.execution_mode != "vectorized":
            # The fallback is a per-plan decision made here, once — put
            # it where reports and scrapes can see it, not just stderr.
            if operator.vectorize_fallback is None:
                operator.vectorize_fallback = "this plan kind runs per-tuple"
            self.metrics.counter(
                "vectorize_fallback_total",
                help="queries that fell back to the tuple path under"
                " vectorize=True",
                query=name,
            ).inc()
        handle = QueryHandle(
            name=name,
            text=text,
            level=level,
            source=source,
            operator=operator,
            plan=plan,
            keep_results=keep_results,
            feeder=feeder,
        )
        self._queries[name] = handle
        self._order.append(name)
        self._downstream.setdefault(source, []).append(name)
        self.registries.schemas[name] = operator.output_schema
        return handle

    def add_merge(self, name: str, sources: List[str]) -> QueryHandle:
        """Merge the outputs of several same-schema queries into one stream.

        The merge preserves ordering on the sources' shared ordered
        attribute, so windowed queries can read from it (Gigascope's MERGE
        operator).  Sources must be previously registered queries.
        """
        from repro.dsms.operators.merge import MergeOperator

        if name in self.registries.schemas:
            raise PlanningError(f"name {name!r} already in use")
        if len(sources) < 2:
            raise PlanningError("a merge needs at least two sources")
        schemas = []
        for source in sources:
            if source not in self._queries:
                raise PlanningError(
                    f"merge source {source!r} is not a registered query"
                )
            schemas.append(self._queries[source].output_schema)
        first = schemas[0]
        if any(s.attributes != first.attributes for s in schemas[1:]):
            raise PlanningError("merge sources must share one schema")

        operator = MergeOperator(first, sources)
        operator.bind_obs(self.metrics, self.trace, name)
        handle = QueryHandle(
            name=name,
            text=f"MERGE {':'.join(sources)}",
            level="high",
            source=sources[0],
            operator=operator,
            keep_results=True,
            fed_per_source=True,
        )
        self._queries[name] = handle
        self._order.append(name)
        for source in sources:
            self._downstream.setdefault(source, []).append(name)
        self.registries.schemas[name] = operator.output_schema
        return handle

    def _add_passthrough_selection(self, stream: str, name: str) -> QueryHandle:
        schema = self.registries.schemas[stream]
        select_list = ", ".join(schema.names)
        handle = self.add_query(
            f"SELECT {select_list} FROM {stream}", name=name, keep_results=False
        )
        # Reading the fed batch is free and the copy upward is charged
        # once, in emit (paper §3): do not perform it again here, per tuple.
        handle.operator.forward_input()
        return handle

    def _remove_query(self, name: str) -> None:
        """Unregister a query added during a failed composite operation."""
        handle = self._queries.pop(name)
        self._order.remove(name)
        self.registries.schemas.pop(name, None)
        downstream = self._downstream.get(handle.source)
        if downstream and name in downstream:
            downstream.remove(name)
            if not downstream:
                del self._downstream[handle.source]

    def query(self, name: str) -> QueryHandle:
        try:
            return self._queries[name]
        except KeyError:
            raise ExecutionError(f"unknown query {name!r}") from None

    def query_handles(self) -> List[QueryHandle]:
        """Every registered query handle, in registration (topo) order."""
        return [self._queries[name] for name in self._order]

    # -- execution ----------------------------------------------------------------

    def run(self, records: Iterable[Record], batch_size: int = 4096) -> int:
        """Drive a record stream through the system; returns records read.

        Records are routed to their schema's stream.  After the iterator
        is exhausted every operator is flushed in topological order, so
        trailing windows are emitted.
        """
        return run_batches(self, batches(records, batch_size))

    # Incremental driving — what every driver is written against (the
    # one feed loop in repro.dsms.durability, the shard pools, the
    # serving engine): start() once, feed() any number of batches, then
    # finish() once to flush trailing windows or abandon() to drop the
    # run unflushed; checkpoint()/restore() at any batch boundary.

    def start(self) -> None:
        """Begin an incremental run of the low-level nodes registered now."""
        if self._session is not None:
            raise ExecutionError("instance is already running; finish() first")
        self._session = [h for h in self.query_handles() if h.level == "low"]

    def feed(self, records: Iterable[Record]) -> int:
        """Push one batch of records through the DAG; returns batch size.
        The batch is read, never kept or changed."""
        if self._session is None:
            raise ExecutionError("start() the instance before feeding it")
        if not isinstance(records, (list, tuple)):
            records = list(records)  # a generator has no length
        if not records:
            return 0
        return self._run_batch(records, self._session)

    def finish(self) -> None:
        """End an incremental run: flush every operator in topo order."""
        if self._session is None:
            raise ExecutionError("instance is not running")
        try:
            self._flush_all()
        finally:
            self._session = None

    def abandon(self) -> None:
        """Drop an open run without flushing it (a no-op when idle)."""
        self._session = None

    def windows_closed(self) -> int:
        """Windows closed so far, by every windowed node — whether or
        not it kept a row; the durable feed loop commits early when
        this grew."""
        return int(self.metrics.total("operator_windows_total"))

    def refuse(
        self, kind: str, stream: str, count: int, offered: bool = True,
        fields: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Account ``count`` records of ``stream`` this instance does not
        process (:func:`account_refusal`; ``kind`` is a :data:`REFUSALS`
        row) and tell the sampling operators downstream.  Public for the
        serving edge, which refuses whole batches this instance never
        saw — ``"quota_shed"``, ``"poison_skipped"`` — hence ``offered``.
        """
        if count > 0:
            account_refusal(self, kind, stream, count, offered, fields=fields)
            self._notify(REFUSALS[kind].note, stream, count)

    def _run_batch(self, batch: Sequence[Any], nodes: List[QueryHandle]) -> int:
        """Admit ``batch`` and hand each stream's admitted run, or under
        ``shed_threshold`` each piece :class:`StreamShed` leaves of it,
        to that stream's low-level ``nodes`` (:meth:`_run_nodes`)."""
        runs = self._admit_batch(batch)
        if not self.sheds:
            self._run_nodes(runs, nodes)
            return len(batch)
        # A slice runs before the records shed after it are refused: a sampling
        # operator counts them in the window a record-by-record run has open.
        for stream, run in runs.items():
            for piece, shed in self.sheds[stream].cut(run):
                self._run_nodes({stream: piece}, nodes)
                self.refuse("shed", stream, shed, offered=False)
        return len(batch)

    def _run_nodes(self, runs: Dict[str, Sequence[Record]], nodes: List[QueryHandle]) -> None:
        """Count each stream's admitted run ingested and hand it to that
        stream's low-level ``nodes``, in order, as it is: the nodes never
        keep or change it.  Columnar nodes of one stream share one batch,
        and a column converts once, for whoever touches it first."""
        for stream, run in runs.items():
            self._stream_counter("stream_ingested_total", stream).inc(len(run))
        columnar: Dict[str, Any] = {}
        for handle in nodes:
            run = runs.get(handle.source)
            if not run:
                continue
            if handle.operator.execution_mode == "vectorized":
                if handle.source not in columnar:
                    from repro.dsms.vectorized.batch import RecordBatch

                    columnar[handle.source] = RecordBatch.from_records(
                        self.registries.schemas[handle.source], run
                    )
                run = columnar[handle.source]
            self._dispatch(handle, run)

    def _admit_batch(self, batch: Sequence[Any]) -> Dict[str, Sequence[Record]]:
        """The records of one fed batch to admit, per stream, in order.

        A *run* — exact ``Record`` instances that all carry the first
        one's schema, named after a registered stream — is admitted
        whole, in a constant number of Python calls.  ``list.count``
        compares by identity before equality, so nothing is hashed or
        compared at Python level unless schema objects differ (a worker's
        unpickled records share one equal to the registered schema, not
        identical with it); the contract stays name-only.  A
        :class:`StreamRun` is a run by the verdict it carries, checked
        where it was fanned out.  Anything else
        goes payload by payload through :meth:`_admit_payload`.  A batch
        that raises has admitted and counted nothing.
        """
        offered: Dict[str, int] = {}
        by_stream: Dict[str, Any] = {}
        stream = None if self.validate_admission else run_stream(batch)
        if stream in self._streams:
            offered[stream], by_stream[stream] = len(batch), batch
        else:
            for payload in batch:
                stream, record = self._admit_payload(payload)
                offered[stream] = offered.get(stream, 0) + 1
                if record is not None:
                    by_stream.setdefault(stream, []).append(record)
        for stream, count in offered.items():
            self._stream_counter("stream_records_total", stream).inc(count)
        return by_stream

    def _stream_counter(self, name: str, stream: str) -> Counter:
        """One of the per-batch stream counters, resolved once per stream."""
        series = self._stream_series.get((name, stream))
        if series is None:
            series = self._stream_series[name, stream] = self.metrics.counter(
                name, help=_STREAM_HELP[name], stream=stream
            )
        return series

    def _admit_payload(self, payload: Any) -> Tuple[str, Optional[Record]]:
        """Route one fed payload (:func:`admit_payload`) and dead-letter
        it if refused: ``(stream, record)``, or ``(stream, None)``."""
        stream, record, reason = admit_payload(
            payload, self.registries.schemas, self._streams, self.validate_admission
        )
        if reason is not None:
            self.refuse(
                "quarantined", stream, 1, offered=False,
                fields={"stream": stream, "reason": reason},
            )
            self.quarantine.put(reason, payload, source=stream)
        return stream, record

    def _notify(self, note: str, stream: str, count: int) -> None:
        """Tell every query downstream of ``stream`` (transitively) that
        ``count`` of its input tuples never reached it — ``note`` (a
        :data:`REFUSALS` column) names why — so sampling operators can
        expose the loss in their per-window stats."""
        seen = set()
        frontier = [stream]
        while frontier:
            node = frontier.pop()
            for child in self._downstream.get(node, ()):
                if child in seen:
                    continue
                seen.add(child)
                told = getattr(self._queries[child].operator, note, None)
                if told is not None:
                    told(count)
                frontier.append(child)

    def _dispatch(
        self,
        handle: QueryHandle,
        run: Collection[Record],
        from_source: Optional[str] = None,
    ) -> None:
        """Hand one run to a node, and the run it emits onward: what
        the call returned — or, if it raised, the output list, which is
        owned here and not by the operator, so rows emitted before an
        operator raises mid-run still reach ``results`` and the node's
        children before the error leaves ``feed``."""
        operator = handle.operator
        emitted: Collection[Record] = []
        if self.profile:
            started = perf_counter()
        try:
            if handle.fed_per_source:
                operator.process_many_from(from_source, run, emitted)
            else:
                emitted = operator.process_many(run, emitted)
        finally:
            if self.profile:
                self.observe_seconds(handle.name, "process", started)
            self.emit(handle.name, emitted)

    def observe_seconds(self, query: str, phase: str, started: float) -> None:
        """One ``operator_seconds`` sample, taken under ``profile``: node
        ``query``'s ``phase`` (process, flush; a served follower's
        replay), begun at ``started`` (``perf_counter``)."""
        self.metrics.histogram(
            "operator_seconds",
            help="wall time per operator call",
            query=query,
            phase=phase,
        ).observe(perf_counter() - started)

    def emit(self, name: str, run: Collection[Record]) -> None:
        """Hand on ``run`` as what query node ``name`` just emitted:
        retain it and give it to each child as it is.  A column batch
        builds its records only here — for a retained sink, or inside a
        per-tuple child — and once.

        Every node's output passes through here.  Public for the serving
        layer's shared-feed replay, where another instance already ran
        the shared low-level prefix over the batch.
        """
        if self._session is None:
            raise ExecutionError("start() the instance before emitting into it")
        if not run:
            return
        handle = self.query(name)
        if handle.keep_results:
            handle.results.extend(run)
        downstream = self._downstream.get(name)
        if not downstream:
            return
        # Forwarding to another query is the copy the paper charges for.
        count = len(run)
        handle.forwarded += count
        self.cost.charge(name, "tuple_copy", count)
        self._forwarded_series(handle).inc(count)
        for child_name in downstream:
            self._dispatch(self._queries[child_name], run, name)

    def _forwarded_series(self, handle: QueryHandle) -> Counter:
        series = handle.forwarded_series
        if series is None:
            series = handle.forwarded_series = self.metrics.counter(
                "query_forwarded_total",
                help="tuples pushed to downstream queries",
                query=handle.name,
            )
        return series

    def _flush_all(self) -> None:
        for name in self._order:
            handle = self._queries[name]
            if self.profile:
                started = perf_counter()
            outputs = handle.operator.flush()
            if self.profile:
                self.observe_seconds(name, "flush", started)
            self.emit(name, outputs)
            # A flushed node is exhausted: release any downstream merge
            # watermark it was holding.
            for child_name in self._downstream.get(name, ()):
                child = self._queries[child_name]
                if hasattr(child.operator, "end_source"):
                    self.emit(child_name, child.operator.end_source(name))

    # -- crash-recovery checkpoints -------------------------------------------------

    def checkpoint(self, since: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Picklable view of all mutable run state at a batch boundary
        (``Operator.checkpoint``): pickle it to keep it past the next feed.

        Captures every query node: operator state, retained results (value
        tuples emitted since ``since``) and forwarded-tuple counters — plus
        what the instance owns itself (:func:`own_state`).  Nothing waits
        between batches, so nothing else is: a supervisor replays the
        journalled batches that postdate the checkpoint.
        """
        held = since.get("queries", {}) if since else {}
        queries = {}
        for name in self._order:
            handle = self._queries[name]
            mark = held.get(name, {})
            start = mark.get("results", 0)
            queries[name] = {
                "operator": handle.operator.checkpoint(mark.get("operator")),
                "results": Appended(start, [row.values for row in handle.results[start:]]),
                "forwarded": handle.forwarded,
            }
        return {"queries": queries, **own_state(self, since)}

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reinstate a :meth:`checkpoint` taken from an identically
        registered instance (same streams and queries, in order); the
        instance takes ownership of ``snapshot``."""
        queries = snapshot["queries"]
        if set(queries) != set(self._order):
            raise ExecutionError(
                "checkpoint does not match this instance: snapshot has"
                f" queries {sorted(queries)}, instance has {sorted(self._order)}"
            )
        for name in self._order:
            entry = queries[name]
            handle = self._queries[name]
            handle.operator.restore(entry["operator"])
            handle.results[:] = [Record(handle.output_schema, row) for row in entry["results"].items]
            handle.forwarded = entry["forwarded"]
        restore_own_state(self, snapshot)

    # -- reporting ------------------------------------------------------------------

    def results(self, name: str) -> List[Record]:
        return self.query(name).results

    def run_report(self) -> Dict[str, Any]:
        """Overload/degradation counters (:func:`registry_report`).

        Everything here is a tuple the answer silently does *not*
        include — the report makes degradation visible instead of silent.
        """
        return registry_report(self, self._streams, self.query_handles())

    def explain(self) -> str:
        """Render the query DAG (levels, sources, operators, cost)."""
        from repro.dsms.explain import explain_instance

        return explain_instance(self)

    def cpu_percent(self, name: str, stream_seconds: float) -> float:
        """CPU% of one query node under the cost model."""
        return self.cost.cpu_percent(name, stream_seconds)
