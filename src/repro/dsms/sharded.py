"""Sharded runtime: hash-partitioned SPLIT / MERGE execution.

The paper runs its sampling operator inside Gigascope on live 100 kpps
feeds.  Sharding buys this reproduction fault isolation and state
partitioning, not throughput: one serial
:class:`~repro.dsms.runtime.Gigascope` outruns both shard pools
(docs/PERFORMANCE.md, "Shards").  Group-by sampling is
embarrassingly partitionable — every algorithm's state (reservoir,
subset-sum threshold, heavy-hitter counters) lives in group/supergroup
tables keyed by group-by values — so hash-partitioning the source stream
on a non-ordered group-by key makes all operator state shard-local, and
the existing :class:`~repro.dsms.operators.merge.MergeOperator` (the
paper's ordered merge) recombines shard outputs without disturbing the
windowed ordering downstream queries rely on.

Architecture::

                       +-> shard 0: Gigascope (full query DAG) -+
    records --SPLIT----+-> shard 1: Gigascope (full query DAG) -+--MERGE--> results
     (hash of          +-> ...                                  -+  (per query,
      partition col)                                                watermark)

* **SPLIT** — each source stream gets one *partition column*, inferred
  by the planner (:func:`repro.dsms.parser.planner.partition_info`) from
  every query reading the stream; records route to shard
  ``stable_hash(record[column]) % shards``.  The route follows the
  key's value, as GROUP BY does (``0.0`` and ``-0.0``, ``1`` and
  ``True`` route alike), and a key that repeats is hashed once per run:
  the SPLIT memoises key → shard, emptied at ``_ROUTE_MEMO_KEYS``, and
  stops consulting the memo for a while when most of a batch misses it.
  The same pass vouches for a batch that is one run of a stream: its
  buckets ship as ``StreamRun`` tuples that no shard checks again.
* **shards** — full replicas of the query DAG, held by a *shard pool*.
  There are exactly two pools and they differ only in where the
  :class:`Gigascope` instances live: :class:`_InlinePool` (default)
  drives them in this process, batch-interleaved and fully
  deterministic; ``supervise=True`` runs them in forked workers under a
  :class:`~repro.dsms.resilience.ShardSupervisor`, which exchanges
  pickled batches over queues, a run's rows as value tuples (``fork``
  start method, so SFUN closures need no pickling) and restarts crashed
  or stalled workers from checkpoints.  Both answer the same calls — ``start``,
  ``ship``, ``checkpoint_all``, ``finish``, ``close`` — so one round is
  one :meth:`ShardedGigascope.feed`: validate and shed at the SPLIT
  edge, split, ``pool.ship(buckets)``, drain the MERGE.  The pool is crossed once
  per round, never per record.  A shard checkpoints as a serial host
  does: ``{"seq": n, **Gigascope.checkpoint(since)}`` per shard.
* **MERGE** — one :class:`MergeOperator` per registered query recombines
  the shard outputs on the query's ordered output attribute, releasing
  a sorted slice of its buffer cut at the watermark; a shard that
  finishes releases its watermark via ``end_source``.

Semantics: for queries whose partition constraints are satisfiable (see
``partition_info``), a sharded run produces the same window output as
the serial runtime up to within-window row order (the serial operator
emits a window's groups in hash-table insertion order, which interleaves
shard-owned keys arbitrarily; :func:`canonical_rows` gives the common
canonical form): rows with equal merge-attribute values come in
pool-dependent order (DESIGN.md §2).  One documented edge: a shard that
receives *no* tuple for an entire window never observes that window
boundary, so window-to-window SFUN carryover on that shard skips the
silent window (the serial operator would have dropped the carryover
state); dense feeds — the paper's operating regime — never hit this.

Cost accounting: every shard charges the shared cost model (inline)
or its own forked copy whose balances the parent absorbs afterwards
(supervised), both under the plain query name — so ``cpu_percent`` and
the Fig 5/6 benchmarks read one aggregate account per query, exactly as
with the serial runtime.
"""

from __future__ import annotations

from zlib import crc32
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, PlanningError
from repro.analysis.legality import ExecTarget, require_runnable
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.durability import batches, run_batches
from repro.dsms.operators.merge import MergeOperator
from repro.dsms.parser import compile_query
from repro.dsms.parser.planner import partition_info
from repro.dsms.resilience import ShardSupervisor, SupervisionPolicy, SupervisionReport
from repro.dsms.runtime import (
    Gigascope, QueryHandle, StreamRun, StreamShed, account_refusal,
    admit_payload, own_state, registry_report, restore_own_state,
)
from repro.dsms.stateful import StatefulLibrary
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACE, TraceSink
from repro.streams.records import Record
from repro.streams.schema import StreamSchema
from repro.streams.sources import QuarantineStream


#: distinct keys the SPLIT's route memo holds before it starts afresh
_ROUTE_MEMO_KEYS = 4096
#: batches the SPLIT hashes without its memo after one in which most
#: records missed it (a feed of fresh keys, e.g. spoofed sources)
_ROUTE_MEMO_PAUSE = 64


def stable_hash(value: Any) -> int:
    """Deterministic, process-independent hash for partition routing.

    Python's builtin ``hash`` is salted per process for strings, so it
    cannot route records consistently between a parent and its forked
    workers; CRC32 of the value's ``repr`` is stable everywhere.  Keys
    of the schema types that compare equal hash equal, as they group
    together: a ``bool`` or an integral ``float`` (``-0.0`` too) hashes
    as the ``int`` it equals.  So routing follows the key's value, not
    its spelling, and a memo of key → shard
    (:meth:`ShardedGigascope._split`) cannot split a group.
    """
    kind = type(value)
    if kind is not int and kind is not str:
        if isinstance(value, int):
            value = int(value)
        elif isinstance(value, float):
            value = int(value) if value.is_integer() else float(value)
    return crc32(repr(value).encode())


def canonical_rows(records: Sequence[Record]) -> List[Tuple[Any, ...]]:
    """Window output in canonical order: sorted by the ordered attribute,
    then by the full value tuple.

    Within a window the serial operator emits groups in insertion order
    while the sharded merge emits them in shard order; both orders are
    permutations of the same rows, and sorting makes serial and sharded
    outputs comparable byte for byte.
    """
    rows: List[Tuple[Any, Tuple[Any, ...]]] = []
    for record in records:
        ordered = record.schema.ordered_attributes()
        key_index = record.schema.index_of(ordered[0].name) if ordered else 0
        rows.append((record.values[key_index], record.values))
    rows.sort()
    return [values for _, values in rows]


@dataclass
class ShardedQueryHandle:
    """One query registered on every shard, with the merged sink."""

    name: str
    text: str
    output_schema: StreamSchema
    keep_results: bool = True
    #: merged (order-recombined) output across all shards
    results: List[Record] = field(default_factory=list)
    #: the per-shard handles (note: under ``supervise`` the parent's
    #: copies stay empty — shard results live in the worker processes)
    shard_handles: List[QueryHandle] = field(default_factory=list)


@dataclass(frozen=True)
class _Node:
    """Partition bookkeeping for one stream or query node."""

    #: source streams this node transitively reads from
    roots: frozenset
    #: root column names that stay shard-colocated through this node
    passthrough: frozenset


class _MergeSink:
    """Recombines one query's shard outputs through a MergeOperator."""

    def __init__(self, handle: ShardedQueryHandle) -> None:
        self.handle = handle
        # Rows the shard handles already hold come from an earlier run()
        # on inline shards and were merged then; start past them.
        self.cursors = [len(h.results) for h in handle.shard_handles]
        self.sources = [f"shard{i}" for i in range(len(self.cursors))]
        # MergeOperator needs >= 2 sources; one shard is a pass-through.
        self.operator = (
            MergeOperator(handle.output_schema, self.sources)
            if len(self.sources) > 1
            else None
        )

    def drain(self, shard: int, produced: Sequence[Record]) -> None:
        """Feed any records the shard produced since the last drain."""
        cursor = self.cursors[shard]
        if len(produced) <= cursor:
            return
        self.cursors[shard] = len(produced)
        if self.operator is None:
            self._sink(list(produced[cursor:]))
            return
        self._sink(
            self.operator.process_many_from(self.sources[shard], produced[cursor:])
        )

    def finish(self, results: Sequence[Dict[str, List[Record]]]) -> None:
        """Feed every shard's remaining rows and release its watermark."""
        for shard, rows in enumerate(results):
            self.drain(shard, rows[self.handle.name])
            if self.operator is not None:
                self._sink(self.operator.end_source(self.sources[shard]))

    def _sink(self, outputs: List[Record]) -> None:
        if outputs and self.handle.keep_results:
            self.handle.results.extend(outputs)


class _InlinePool:
    """The shard pool whose :class:`Gigascope` instances live in this
    process (``owner._instances``): shards advance batch by batch,
    fully deterministic, and nothing is pickled.

    Answers the same calls as :class:`ShardSupervisor`, the pool whose
    instances live in forked workers.
    """

    #: no workers, so nothing to report (cf. ``ShardSupervisor.report``)
    report = None

    def __init__(self, owner: "ShardedGigascope") -> None:
        self.owner = owner
        #: batches shipped per shard, numbered like the supervisor's so a
        #: journal written here resumes on supervised shards and back
        self._seq = [0] * owner.shards

    def start(self, resume_state: Dict[int, Dict[str, Any]]) -> None:
        instances = self.owner._instances
        for shard, state in resume_state.items():
            self._seq[shard] = state["seq"]
            # A worker's checkpoint carries the balances of its private
            # model; here every shard charges the owner's one model.
            self.owner.cost.absorb(state.pop("cost_accounts", {}))
            instances[shard].restore(state)
        for instance in instances:
            instance.start()

    def ship(self, buckets: List[Sequence[Record]]) -> None:
        instances = self.owner._instances
        for shard, bucket in enumerate(buckets):
            if bucket:
                self._seq[shard] += 1
                instances[shard].feed(bucket)

    # A round boundary is a consistent cut: feed() runs a batch through
    # before it returns, so a shard's checkpoint covers all input shipped
    # to it.

    def checkpoint_all(self, since: Dict[int, Any]) -> Dict[int, Dict[str, Any]]:
        """Each live shard's ``checkpoint(since[shard])`` at its seq.  Every
        inline shard charges the owner's cost model, which the owner
        checkpoints once — so no balances here (a worker restoring them
        as its own would count them once per shard)."""
        return {
            shard: {"seq": seq, **instance.checkpoint(since.get(shard)), "cost_accounts": {}}
            for shard, (seq, instance) in enumerate(zip(self._seq, self.owner._instances))
        }

    def finish(self) -> List[Dict[str, List[Record]]]:
        owner = self.owner
        for instance in owner._instances:
            instance.finish()
        results = [
            {name: instance.query(name).results for name in owner._order}
            for instance in owner._instances
        ]
        for shard, instance in enumerate(owner._instances):
            owner._absorb_shard_obs(
                shard,
                instance.metrics.checkpoint(),
                list(instance.trace.events) if instance.trace.enabled else [],
            )
            # Zero the shard registry (in place, so bound operator
            # series survive): a second run() must not re-fold this
            # run's counts into the parent.
            instance.metrics.reset()
            if instance.trace.enabled:
                instance.trace.events.clear()
        return results

    def close(self) -> None:
        """Abandon any shard still mid-run (a no-op after finish)."""
        for instance in self.owner._instances:
            instance.abandon()


class ShardedGigascope:
    """A DSMS instance that executes every query on N shards: per-key
    state partitioned, and under ``supervise`` each shard's failures
    isolated in its own worker (not a throughput feature; see the
    module docstring).

    Mirrors the :class:`Gigascope` API (``register_stream``,
    ``use_stateful_library``, ``add_query``, ``add_merge``, ``run``,
    ``results``, ``run_report``, ``cpu_percent``, ``explain``); queries
    must satisfy the partition rules of :func:`partition_info` or
    ``add_query`` raises a :class:`PlanningError` explaining why the
    query cannot shard.
    """

    #: the ``mode`` this deployment's journal entries carry
    journal_mode = "sharded"

    def __init__(
        self,
        shards: int = 2,
        *,
        cost_model: Optional[CostModel] = None,
        queue_depth: int = 8,
        supervise: bool = False,
        supervision: Optional[SupervisionPolicy] = None,
        shed_threshold: Optional[int] = None,
        fault_plan: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceSink] = None,
        quarantine: Optional["QuarantineStream"] = None,
        validate_admission: bool = False,
        vectorize: bool = False,
        profile: bool = False,
    ) -> None:
        """``shards`` is the number of shard instances; ``cost_model``
        is charged by every one of them.

        ``supervise=True`` runs the shards in forked workers under a
        :class:`ShardSupervisor` instead of in this process: crashed or
        stalled shards restart and recover from the batch journal /
        operator checkpoints, per ``supervision`` (a
        :class:`SupervisionPolicy`, default policy if None; passing one
        implies ``supervise``).  ``queue_depth`` bounds each worker's
        input queue (batches), so a wedged worker backpressures the
        splitter instead of buffering unboundedly.  ``shed_threshold``
        is the serial rule (at most that many records of a stream per
        second of stream time), applied in the parent before the SPLIT:
        shards get no threshold, and the rows are the serial run's.
        ``fault_plan`` (a :class:`repro.testing.faults.FaultPlan`)
        injects deterministic worker failures for tests; ignored by
        inline shards.

        ``metrics`` / ``trace`` attach the parent-side metrics registry
        and trace sink.  Each shard instance keeps its *own* registry
        (and, when tracing is on, its own sink); after a run the parent
        absorbs every shard's series stamped with a ``shard`` label, so
        ``metrics.total(name, query=...)`` aggregates across shards while
        the per-shard series stay distinguishable.  Under ``supervise``
        the snapshots cross the fork boundary with the results.  The
        folded registry is the one :meth:`run_report` reads.

        ``validate_admission`` validates every record at the SPLIT edge
        — in the parent, the same for both pools — and routes
        uncoercible records to ``quarantine`` (a
        :class:`repro.streams.sources.QuarantineStream`; a private
        bounded one by default) instead of shipping them to a worker
        where the failure would surface as a shard crash.  Like every
        record the parent itself refuses (shed ones too) they are
        accounted in the parent registry, with no ``shard`` label, as
        offered and as refused (``runtime.REFUSALS``).

        ``vectorize`` / ``profile`` are every shard instance's (see
        :class:`Gigascope`); a shard's ``operator_seconds`` histograms
        fold into the parent registry under its ``shard`` label like
        every other series.
        """
        if shards < 1:
            raise PlanningError("shards must be >= 1")
        if queue_depth < 1:
            raise PlanningError("queue_depth must be >= 1")
        self.shards = shards
        self.supervise = supervise or supervision is not None
        self.cost = cost_model or NULL_COST_MODEL
        self.queue_depth = queue_depth
        self.supervision = supervision
        self.shed_threshold = shed_threshold
        self.fault_plan = fault_plan
        #: SupervisionReport of the most recent supervised run (else None)
        self.last_supervision: Optional[SupervisionReport] = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else NULL_TRACE
        self.validate_admission = validate_admission
        self.quarantine = (
            quarantine if quarantine is not None else QuarantineStream()
        )
        self.vectorize = vectorize
        self.profile = profile
        # Strictness is enforced once, centrally, in add_query; the shard
        # instances receive pre-vetted text and never re-lint it.
        self._instances = [
            Gigascope(
                cost_model=self.cost,
                trace=TraceSink() if self.trace.enabled else None,
                vectorize=vectorize,
                profile=profile,
            )
            for _ in range(shards)
        ]
        self._handles: Dict[str, ShardedQueryHandle] = {}
        self._order: List[str] = []
        self._nodes: Dict[str, _Node] = {}
        self._streams: List[str] = []
        self.sheds: Dict[str, StreamShed] = {}  # as Gigascope.sheds
        #: per root stream: (query name, acceptable partition columns)
        self._constraints: Dict[str, List[Tuple[str, frozenset]]] = {}
        self._partition: Dict[str, str] = {}
        self._auto_counter = 0
        #: the open run's shard pool, SPLIT routes and MERGE sinks
        self._pool: Any = None
        self._route: Dict[str, int] = {}
        #: the open run's SPLIT memo: partition key -> shard index
        self._shard_of: Dict[Any, int] = {}
        #: batches left before the SPLIT consults its memo again
        self._memo_pause = 0
        self._sinks: List[_MergeSink] = []
        #: per shard ``{"seq": n, **checkpoint}`` the next start() seeds
        self._resume_state: Dict[int, Dict[str, Any]] = {}

    # -- registration -----------------------------------------------------------

    @property
    def registries(self):
        """Registries of shard 0 (all shards are kept identical)."""
        return self._instances[0].registries

    def register_stream(self, schema: StreamSchema) -> None:
        if self.shed_threshold is not None:
            self.sheds[schema.name] = StreamShed(schema, self.shed_threshold)
        for instance in self._instances:
            instance.register_stream(schema)
        nonordered = frozenset(
            a.name for a in schema.attributes if not a.ordering.is_ordered
        )
        self._nodes[schema.name] = _Node(frozenset({schema.name}), nonordered)
        self._streams.append(schema.name)
        self._constraints[schema.name] = []

    def use_stateful_library(self, library: StatefulLibrary) -> None:
        for instance in self._instances:
            instance.use_stateful_library(library)

    def register_scalar(self, name: str, fn, deterministic: bool = True) -> None:
        for instance in self._instances:
            instance.register_scalar(name, fn, deterministic=deterministic)

    @property
    def target(self) -> ExecTarget:
        """This deployment as the legality table sees it."""
        return ExecTarget(
            shards=self.shards,
            supervise=self.supervise,
            shed_threshold=self.shed_threshold,
        )

    def lint(self, text: str, name: str = "query"):
        from repro.analysis.linter import lint_query

        return lint_query(text, self.registries, filename=name, target=self.target)

    # -- queries -----------------------------------------------------------------

    def add_query(
        self,
        text: str,
        name: Optional[str] = None,
        keep_results: bool = True,
        low_level_aggregation: bool = False,
    ) -> ShardedQueryHandle:
        """Register one query on every shard (see :meth:`Gigascope.add_query`).

        Beyond the serial checks, the query must pass every row of the
        legality table this deployment's :attr:`target` holds it to
        (:mod:`repro.analysis.legality`: an ordered output attribute for
        the recombining MERGE, partitionable operator state, state that
        checkpoints under ``supervise``), and one of its
        partition columns must survive the upstream query chain.
        """
        if name is None:
            self._auto_counter += 1
            name = f"q{self._auto_counter}"
        if name in self._nodes:
            raise PlanningError(f"name {name!r} already in use")

        plan = compile_query(text, self._instances[0].registries, query_name=name)
        source = plan.analyzed.ast.from_stream
        node = self._nodes.get(source)
        if node is None:
            raise PlanningError(
                f"query {name!r} reads from {source!r}, which is neither a"
                " source stream nor a registered query"
            )
        require_runnable(self.target, plan, self.registries, name, PlanningError)
        # What the table cannot know: the upstream query chain.
        info = partition_info(plan)
        if info.candidates is not None:
            effective = frozenset(info.candidates) & node.passthrough
            if not effective:
                raise PlanningError(
                    f"cannot shard query {name!r}: none of its candidate"
                    f" partition columns {sorted(info.candidates)} survives"
                    " the upstream query chain (colocated columns:"
                    f" {sorted(node.passthrough)})"
                )
            for root in node.roots:
                self._constraints[root].append((name, effective))
        self._nodes[name] = _Node(
            node.roots, frozenset(info.passthrough) & node.passthrough
        )

        shard_handles = [
            instance.add_query(
                text,
                name=name,
                keep_results=True,  # shard outputs feed the merge
                low_level_aggregation=low_level_aggregation,
            )
            for instance in self._instances
        ]
        handle = ShardedQueryHandle(
            name=name,
            text=text,
            output_schema=shard_handles[0].output_schema,
            keep_results=keep_results,
            shard_handles=shard_handles,
        )
        self._handles[name] = handle
        self._order.append(name)
        return handle

    def add_merge(self, name: str, sources: List[str]) -> ShardedQueryHandle:
        """Merge same-schema queries inside every shard (then re-merge
        the shard outputs like any other query)."""
        if name in self._nodes:
            raise PlanningError(f"name {name!r} already in use")
        nodes = []
        for source in sources:
            if source not in self._handles:
                raise PlanningError(
                    f"merge source {source!r} is not a registered query"
                )
            nodes.append(self._nodes[source])
        shard_handles = [
            instance.add_merge(name, sources) for instance in self._instances
        ]
        roots: frozenset = frozenset().union(*(n.roots for n in nodes))
        passthrough = nodes[0].passthrough
        for n in nodes[1:]:
            passthrough &= n.passthrough
        self._nodes[name] = _Node(roots, passthrough)
        handle = ShardedQueryHandle(
            name=name,
            text=shard_handles[0].text,
            output_schema=shard_handles[0].output_schema,
            keep_results=True,
            shard_handles=shard_handles,
        )
        self._handles[name] = handle
        self._order.append(name)
        return handle

    def query(self, name: str) -> ShardedQueryHandle:
        try:
            return self._handles[name]
        except KeyError:
            raise ExecutionError(f"unknown query {name!r}") from None

    def query_handles(self) -> List[QueryHandle]:
        """Shard 0's query handles, in registration order (all shards run
        identical DAGs, so one shard's capability records speak for all)."""
        return [
            self._handles[name].shard_handles[0] for name in self._order
        ]

    def results(self, name: str) -> List[Record]:
        return self.query(name).results

    # -- partition resolution -----------------------------------------------------

    def partition_column(self, stream: str) -> str:
        """The partition column chosen for one source stream."""
        self._resolve_partitions()
        try:
            return self._partition[stream]
        except KeyError:
            raise ExecutionError(f"unknown stream {stream!r}") from None

    def _resolve_partitions(self) -> None:
        for stream in self._streams:
            constraints = self._constraints[stream]
            if constraints:
                common = frozenset.intersection(
                    *(candidates for _, candidates in constraints)
                )
                if not common:
                    per_query = ", ".join(
                        f"{query}: {sorted(candidates)}"
                        for query, candidates in constraints
                    )
                    raise PlanningError(
                        f"stream {stream!r} has no partition column acceptable"
                        f" to every query ({per_query}); split the queries"
                        " across instances or align their keys"
                    )
            else:
                common = self._nodes[stream].passthrough
                if not common:
                    raise PlanningError(
                        f"stream {stream!r} has no non-ordered attribute to"
                        " partition on"
                    )
            # Deterministic choice: first acceptable column in schema order.
            schema = self._instances[0].registries.schemas[stream]
            self._partition[stream] = next(
                name for name in schema.names if name in common
            )

    def _route_indices(self) -> Dict[str, int]:
        self._resolve_partitions()
        schemas = self._instances[0].registries.schemas
        return {
            stream: schemas[stream].index_of(column)
            for stream, column in self._partition.items()
        }

    # -- execution ----------------------------------------------------------------

    def run(self, records: Iterable[Record], batch_size: int = 4096) -> int:
        """SPLIT the record stream across the shards, MERGE their outputs.

        Returns the number of records read (like :meth:`Gigascope.run`),
        malformed ones quarantined at the SPLIT edge included.
        """
        return run_batches(self, batches(records, batch_size))

    # The same incremental surface as Gigascope, one round per feed().

    def start(self) -> None:
        """Begin a run: open the shard pool, seeded by the last
        :meth:`restore` if there was one."""
        if self._pool is not None:
            raise ExecutionError("instance is already running; finish() first")
        self._route = self._route_indices()
        self._shard_of, self._memo_pause = {}, 0
        self._sinks = [_MergeSink(self._handles[name]) for name in self._order]
        self._pool = (
            ShardSupervisor(self, policy=self.supervision, fault_plan=self.fault_plan)
            if self.supervise
            else _InlinePool(self)
        )
        self.last_supervision = self._pool.report
        try:
            self._pool.start(self._resume_state)
        except BaseException:
            self.abandon()
            raise
        self._resume_state = {}

    def feed(self, batch: List[Record]) -> int:
        """One round: validate and shed at the SPLIT edge, split, ship,
        drain the MERGE; returns the batch size."""
        pool = self._pool
        if pool is None:
            raise ExecutionError("start() the instance before feeding it")
        offered = len(batch)
        if self.validate_admission:
            batch = self._validate_edge(batch)
        if self.sheds:
            batch = self._shed_edge(batch)
        pool.ship(self._split(batch))
        for sink in self._sinks:
            handles = sink.handle.shard_handles
            for shard in range(self.shards):
                sink.drain(shard, handles[shard].results)
        return offered

    def finish(self) -> None:
        """End the run: collect every shard — its rows, and its registry
        folded into :attr:`metrics` — and MERGE what is left."""
        if self._pool is None:
            raise ExecutionError("instance is not running")
        try:
            results = self._pool.finish()
        finally:
            self.abandon()
        for sink in self._sinks:
            sink.finish(results)

    def abandon(self) -> None:
        """Reap an open run's pool without collecting it (a no-op when
        idle)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def windows_closed(self) -> int:
        """Constant: under supervision windows close inside the workers,
        invisible here until checkpointed, so durable commits over
        either pool come every ``commit_interval`` rounds only."""
        return 0

    def checkpoint(self, since: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Picklable state at a round boundary: what the parent owns itself
        (``runtime.own_state``: its trace since ``since``, its shed
        rules) — SPLIT-edge refusals (quarantine, shed) are counted,
        charged and traced outside every shard — and per shard the serial checkpoint since
        ``since`` of its first ``n`` batches, ``{"seq": n, **checkpoint}``
        (DESIGN.md §8).  Once the run has finished the shards are gone and
        its state is the merged results."""
        state = own_state(self, since)
        if self._pool is None:
            state["results"] = {
                name: list(self._handles[name].results) for name in self._order
            }
            return state
        state["shards"] = self._pool.checkpoint_all(since.get("shards", {}) if since else {})
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Reinstate a :meth:`checkpoint`, its pieces joined: a finished run's
        results at once, an open run's shards at the next :meth:`start`."""
        if "results" in state:
            for name, rows in state["results"].items():
                self.query(name).results[:] = rows
        else:
            self._resume_state = dict(state["shards"])
        restore_own_state(self, state)

    def _validate_edge(self, batch: List[Any]) -> List[Record]:
        """Validate/coerce one batch at the SPLIT edge; dead-letter failures.

        Runs in the parent so both pools get identical admission
        behavior, and a malformed record is refused *before* it can
        crash a worker mid-query — so no shard ever counts it as offered.
        """
        admitted: List[Record] = []
        for payload in batch:
            stream, record, reason = admit_payload(
                payload, self.registries.schemas, self._streams, True
            )
            if reason is None:
                admitted.append(record)
                continue
            account_refusal(
                self, "quarantined", stream, 1, offered=True,
                fields={"stream": stream, "reason": reason},
            )
            self.quarantine.put(reason, payload, source=stream)
        return admitted

    def _shed_edge(self, batch: Sequence[Any]) -> List[Any]:
        """What each stream's :class:`StreamShed` leaves of ``batch`` to
        split, a stream's records in order; a payload of no shedding
        stream is kept, for :meth:`_split` to refuse."""
        runs: Dict[Any, List[Any]] = {}
        for payload in batch:
            stream = getattr(getattr(payload, "schema", None), "name", None)
            runs.setdefault(stream, []).append(payload)
        kept: List[Any] = []
        for stream, run in runs.items():
            shed = self.sheds.get(stream)
            for piece, count in shed.cut(run) if shed else [(run, 0)]:
                kept += piece
                if count:
                    account_refusal(self, "shed", stream, count, offered=True)
        return kept

    def _split(self, batch: Sequence[Record]) -> List[Sequence[Record]]:
        """Bucket one batch by shard, and vouch for it in the same pass:
        the buckets of a run (``run_stream``'s: exact ``Record``s of the
        first one's schema, here by identity) ship as ``StreamRun`` tuples
        no shard checks again; those of any other batch as plain lists.
        A key's shard is hashed the first time the run sees it and
        memoised after (an unhashable key is hashed every time); the
        memo starts afresh at ``_ROUTE_MEMO_KEYS`` keys.  A miss costs
        more than the hash it saves a hit, so after a batch in which
        most records missed the next ``_ROUTE_MEMO_PAUSE`` batches hash
        every record before a batch tries the memo again: on
        ``ddos_feed``'s attack seconds this loop takes nearly twice as long
        without the pause (docs/PERFORMANCE.md)."""
        shards, route, shard_of = self.shards, self._route, self._shard_of
        buckets: List[List[Record]] = [[] for _ in range(shards)]
        memo, misses = not self._memo_pause, 0
        schema, run = None, True
        for record in batch:
            if type(record) is not Record or record.schema is not schema:
                try:
                    index = route[record.schema.name]
                except (KeyError, AttributeError):
                    # Refuse it as the serial runtime's admission would: raises.
                    admit_payload(record, self.registries.schemas, self._streams, False)
                    raise
                # Only the first record opens a run; any later change ends it.
                run, schema = schema is None and type(record) is Record, record.schema
            key = record.values[index]
            if not memo:
                shard = stable_hash(key) % shards
            else:
                try:
                    shard = shard_of[key]
                except KeyError:
                    misses += 1
                    shard = stable_hash(key) % shards
                    if len(shard_of) >= _ROUTE_MEMO_KEYS:
                        shard_of.clear()
                    shard_of[key] = shard
                except TypeError:
                    misses += 1
                    shard = stable_hash(key) % shards
            buckets[shard].append(record)
        if not memo:
            self._memo_pause -= 1
        elif misses * 2 > len(batch):
            self._memo_pause = _ROUTE_MEMO_PAUSE
        return list(map(StreamRun, buckets, [schema.name] * shards)) if run and schema is not None else buckets

    def _absorb_shard_obs(
        self, shard: int, metrics_snapshot: Optional[dict], trace_events: list
    ) -> None:
        """Fold one shard's metric/trace state into the parent, stamped
        with the ``shard`` label so per-shard series stay separable."""
        if metrics_snapshot:
            self.metrics.absorb(metrics_snapshot, extra_labels={"shard": shard})
        if self.trace.enabled and trace_events:
            self.trace.absorb(trace_events, shard=shard)

    # -- reporting ------------------------------------------------------------------

    def cpu_percent(self, name: str, stream_seconds: float) -> float:
        """Aggregate CPU% of one query across all shards (one account)."""
        return self.cost.cpu_percent(name, stream_seconds)

    def run_report(self) -> Dict[str, Any]:
        """Overload counters read off :attr:`metrics`, summed over
        shards — the one :func:`~repro.dsms.runtime.registry_report`
        :meth:`Gigascope.run_report` reads too.  A shard's series count
        once :meth:`finish` has folded them in; what the parent refused
        itself is there from the start.  The shape is exactly the serial
        runtime's.
        """
        return registry_report(
            self, self._streams, self._instances[0].query_handles()
        )

    def explain(self) -> str:
        """Render the sharding layout plus one shard's query DAG."""
        lines = [
            f"ShardedGigascope(shards={self.shards},"
            f" supervise={self.supervise})"
        ]
        try:
            self._resolve_partitions()
            for stream in self._streams:
                lines.append(
                    f"  split {stream} by hash({self._partition[stream]})"
                    f" % {self.shards}"
                )
        except PlanningError as exc:
            lines.append(f"  (partition unresolved: {exc})")
        for name in self._order:
            lines.append(f"  merge {name} on its ordered attribute")
        lines.append("  per-shard DAG:")
        lines.extend("    " + line for line in self._instances[0].explain().splitlines())
        return "\n".join(lines)
