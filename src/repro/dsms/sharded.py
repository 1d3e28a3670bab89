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
  ``stable_hash(record[column]) % shards``.
* **shards** — full replicas of the query DAG, held by a *shard pool*.
  There are exactly two pools and they differ only in where the
  :class:`Gigascope` instances live: :class:`_InlinePool` (default)
  drives them in this process, batch-interleaved and fully
  deterministic; ``supervise=True`` runs them in forked workers under a
  :class:`~repro.dsms.resilience.ShardSupervisor`, which exchanges
  pickled record batches over queues (POSIX ``fork`` start method, so
  SFUN closures need no pickling) and restarts crashed or stalled
  workers from checkpoints.  Both answer the same calls — ``start``,
  ``ship``, ``add_shard``, ``checkpoint_all`` / ``states`` /
  ``install_states``, ``finish``, ``close`` — so one round is one
  :meth:`ShardedGigascope.feed`: validate at the SPLIT edge, split,
  ``pool.ship(buckets)``, drain the MERGE, rebalance barrier.  The
  pool is crossed once per round, never per record.
* **MERGE** — one :class:`MergeOperator` per registered query recombines
  the shard outputs on the query's ordered output attribute; a shard
  that finishes releases its watermark via ``end_source``.

Semantics: for queries whose partition constraints are satisfiable (see
``partition_info``), a sharded run produces the same window output as
the serial runtime up to within-window row order (the serial operator
emits a window's groups in hash-table insertion order, which interleaves
shard-owned keys arbitrarily; :func:`canonical_rows` gives the common
canonical form).  One documented edge: a shard that receives *no* tuple
for an entire window never observes that window boundary, so
window-to-window SFUN carryover on that shard skips the silent window
(the serial operator would have dropped the carryover state); dense
feeds — the paper's operating regime — never hit this.

Cost accounting: every shard charges the shared cost model (inline)
or its own forked copy whose balances the parent absorbs afterwards
(supervised), both under the plain query name — so ``cpu_percent`` and
the Fig 5/6 benchmarks read one aggregate account per query, exactly as
with the serial runtime.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, PlanningError
from repro.analysis.legality import ExecTarget, require_runnable
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.durability import batches, run_batches
from repro.dsms.operators.merge import MergeOperator
from repro.dsms.parser import compile_query
from repro.dsms.parser.planner import partition_info
from repro.dsms.rebalance import (
    MigrationDeferred,
    RebalancePolicy,
    Rebalancer,
    RoutingTable,
    migrate_states,
)
from repro.dsms.resilience import ShardSupervisor, SupervisionPolicy, SupervisionReport
from repro.dsms.runtime import (
    Gigascope, QueryHandle, account_refusal, admit_payload, own_state,
    registry_report, restore_own_state,
)
from repro.dsms.stateful import StatefulLibrary
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACE, TraceSink
from repro.streams.records import Record
from repro.streams.schema import StreamSchema
from repro.streams.sources import QuarantineStream


def stable_hash(value: Any) -> int:
    """Deterministic, process-independent hash for partition routing.

    Python's builtin ``hash`` is salted per process for strings, so it
    cannot route records consistently between a parent and its forked
    workers; CRC32 of the value's ``repr`` is stable everywhere.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


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
        self._bind(len(self.cursors))

    def _bind(self, shards: int) -> None:
        self.sources = [f"shard{i}" for i in range(shards)]
        # MergeOperator needs >= 2 sources; one shard is a pass-through.
        self.operator = (
            MergeOperator(self.handle.output_schema, self.sources)
            if shards > 1
            else None
        )
        self.cursors += [0] * (shards - len(self.cursors))

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
        if len(results) > len(self.sources):
            # The pool grew mid-run (rebalance), which defers all merging
            # to this point, so nothing has been fed to the old operator.
            self._bind(len(results))
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
    fully deterministic, nothing is pickled unless a journal asks.

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

    def start(self, resume_state: Dict[int, Tuple[int, bytes]]) -> None:
        instances = self.owner._instances
        for shard, (seq, blob) in resume_state.items():
            self._seq[shard] = seq
            state = pickle.loads(blob)
            # A blob a worker wrote carries the balances of its private
            # model; here every shard charges the owner's one model.
            self.owner.cost.absorb(state.pop("cost_accounts", {}))
            instances[shard].restore(state)
        for instance in instances:
            instance.start()

    def ship(self, buckets: List[List[Record]]) -> None:
        instances = self.owner._instances
        for shard, bucket in enumerate(buckets):
            if bucket:
                self._seq[shard] += 1
                instances[shard].feed(bucket)

    def add_shard(self, shard: int) -> None:
        self._seq.append(0)
        self.owner._instances[shard].start()

    # A round boundary is a consistent cut: feed() drains the rings, so
    # a shard's checkpoint covers all input shipped to it.

    def states(self) -> Dict[int, Dict[str, Any]]:
        return {
            shard: self.owner.shard_state(shard) for shard in range(self.owner.shards)
        }

    def install_states(self, states: Dict[int, Dict[str, Any]]) -> None:
        for shard, state in states.items():
            self.owner._instances[shard].restore(state)

    def checkpoint_all(self) -> Dict[int, Tuple[int, bytes]]:
        return {
            shard: (self._seq[shard], pickle.dumps(state))
            for shard, state in self.states().items()
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
            instance.sync_ring_metrics()
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
        ring_capacity: int = 65536,
        strict: bool = False,
        queue_depth: int = 8,
        supervise: bool = False,
        supervision: Optional[SupervisionPolicy] = None,
        shed_threshold: Optional[int] = None,
        fault_plan: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceSink] = None,
        quarantine: Optional["QuarantineStream"] = None,
        validate_admission: bool = False,
        rebalance: Any = None,
        vectorize: bool = False,
        profile: bool = False,
    ) -> None:
        """Beyond the PR-2 parameters:

        ``supervise=True`` runs the shards in forked workers under a
        :class:`ShardSupervisor` instead of in this process: crashed or
        stalled shards restart and recover from the batch journal /
        operator checkpoints, per ``supervision`` (a
        :class:`SupervisionPolicy`, default policy if None; passing one
        implies ``supervise``).  ``queue_depth`` bounds each worker's
        input queue (batches), so a wedged worker backpressures the
        splitter instead of buffering unboundedly.  ``shed_threshold``
        enables graceful degradation: each shard's Gigascope sheds
        admission beyond that ring backlog, and the supervisor sheds
        batches when a shard's input queue stays at that depth.
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
        record the parent itself refuses (curation, a saturated shard
        queue) they are accounted in the parent registry, with no
        ``shard`` label, as offered and as refused (``runtime.REFUSALS``).

        ``rebalance`` enables elastic skew-aware sharding (``True`` for
        the default policy, or a :class:`RebalancePolicy`): routing goes
        through a :class:`RoutingTable` instead of the pure hash modulo,
        and a :class:`Rebalancer` watches per-shard load to split hot
        key ranges, migrate operator state between shards via the
        checkpoint/restore snapshots, scale the shard pool, and — under
        ``policy.curate`` — downsample an unmigratable hot key's traffic
        with shed-style cost accounting.

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
        self.strict = strict
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
        self._ring_capacity = ring_capacity
        self.vectorize = vectorize
        self.profile = profile
        if rebalance:
            policy = (
                rebalance
                if isinstance(rebalance, RebalancePolicy)
                else RebalancePolicy()
            )
            self._rebalancer: Optional[Rebalancer] = Rebalancer(
                policy, RoutingTable.default(shards)
            )
        else:
            self._rebalancer = None
        #: registration calls replayed onto pool-grown shard instances
        self._replay_log: List[Tuple[str, tuple]] = []
        # Strictness is enforced once, centrally, in add_query; the shard
        # instances receive pre-vetted text and never re-lint it.
        self._instances = [self._new_instance() for _ in range(shards)]
        self._handles: Dict[str, ShardedQueryHandle] = {}
        self._order: List[str] = []
        self._nodes: Dict[str, _Node] = {}
        self._streams: List[str] = []
        #: per root stream: (query name, acceptable partition columns)
        self._constraints: Dict[str, List[Tuple[str, frozenset]]] = {}
        self._partition: Dict[str, str] = {}
        self._auto_counter = 0
        #: the open run's shard pool, SPLIT routes and MERGE sinks
        self._pool: Any = None
        self._route: Dict[str, int] = {}
        self._sinks: List[_MergeSink] = []
        #: per shard ``(seq, pickled checkpoint)`` the next start() seeds
        self._resume_state: Dict[int, Tuple[int, bytes]] = {}

    # -- registration -----------------------------------------------------------

    def _new_instance(self) -> Gigascope:
        return Gigascope(
            cost_model=self.cost,
            ring_capacity=self._ring_capacity,
            shed_threshold=self.shed_threshold,
            trace=TraceSink() if self.trace.enabled else None,
            vectorize=self.vectorize,
            profile=self.profile,
        )

    def _ensure_pool(self, size: int) -> List[int]:
        """Grow the shard pool to ``size`` instances; returns new ids.

        The pool only grows — a scale-*down* simply routes no traffic to
        the retired shards, which stay alive to report the results and
        state they already hold.  New instances replay the registration
        log so they carry the identical query DAG.
        """
        added: List[int] = []
        while self.shards < size:
            shard = self.shards
            instance = self._new_instance()
            for kind, args in self._replay_log:
                if kind == "stream":
                    instance.register_stream(*args)
                elif kind == "library":
                    instance.use_stateful_library(*args)
                elif kind == "scalar":
                    name, fn, deterministic = args
                    instance.register_scalar(name, fn, deterministic=deterministic)
                elif kind == "query":
                    text, name, low_level = args
                    instance.add_query(
                        text,
                        name=name,
                        keep_results=True,
                        low_level_aggregation=low_level,
                        strict=False,
                    )
            self._instances.append(instance)
            for name in self._order:
                self._handles[name].shard_handles.append(instance.query(name))
            self.shards += 1
            added.append(shard)
        return added

    @property
    def registries(self):
        """Registries of shard 0 (all shards are kept identical)."""
        return self._instances[0].registries

    def register_stream(self, schema: StreamSchema) -> None:
        for instance in self._instances:
            instance.register_stream(schema)
        self._replay_log.append(("stream", (schema,)))
        nonordered = frozenset(
            a.name for a in schema.attributes if not a.ordering.is_ordered
        )
        self._nodes[schema.name] = _Node(frozenset({schema.name}), nonordered)
        self._streams.append(schema.name)
        self._constraints[schema.name] = []

    def use_stateful_library(self, library: StatefulLibrary) -> None:
        for instance in self._instances:
            instance.use_stateful_library(library)
        self._replay_log.append(("library", (library,)))

    def register_scalar(self, name: str, fn, deterministic: bool = True) -> None:
        for instance in self._instances:
            instance.register_scalar(name, fn, deterministic=deterministic)
        self._replay_log.append(("scalar", (name, fn, deterministic)))

    @property
    def target(self) -> ExecTarget:
        """This deployment as the legality table sees it."""
        return ExecTarget(
            shards=self.shards,
            supervise=self.supervise,
            rebalance=self._rebalancer is not None,
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
        strict: Optional[bool] = None,
    ) -> ShardedQueryHandle:
        """Register one query on every shard (see :meth:`Gigascope.add_query`).

        Beyond the serial checks, the query must pass every row of the
        legality table this deployment's :attr:`target` holds it to
        (:mod:`repro.analysis.legality`: an ordered output attribute for
        the recombining MERGE, partitionable operator state, state that
        checkpoints under ``supervise`` / ``rebalance``), and one of its
        partition columns must survive the upstream query chain.
        """
        if name is None:
            self._auto_counter += 1
            name = f"q{self._auto_counter}"
        if name in self._nodes:
            raise PlanningError(f"name {name!r} already in use")

        strict = self.strict if strict is None else strict
        plan = compile_query(
            text, self._instances[0].registries, query_name=name, strict=strict
        )
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
                strict=False,
            )
            for instance in self._instances
        ]
        self._replay_log.append(("query", (text, name, low_level_aggregation)))
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
        if self._rebalancer is not None:
            raise PlanningError(
                "rebalance does not support in-shard MERGE nodes: a"
                " MergeOperator's watermark state is keyed by source, not"
                " by partition value, so it cannot migrate between shards"
            )
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
        self._sinks = [_MergeSink(self._handles[name]) for name in self._order]
        self._pool = (
            ShardSupervisor(
                self,
                policy=self.supervision,
                fault_plan=self.fault_plan,
                shed_threshold=self.shed_threshold,
            )
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
        """One round: validate at the SPLIT edge, split, ship, drain the
        MERGE (or hold the rebalance barrier); returns the batch size."""
        pool = self._pool
        if pool is None:
            raise ExecutionError("start() the instance before feeding it")
        offered = len(batch)
        if self.validate_admission:
            batch = self._validate_edge(batch)
        pool.ship(self._split(batch, self._route))
        if self._rebalancer is None:
            for sink in self._sinks:
                handles = sink.handle.shard_handles
                for shard in range(self.shards):
                    sink.drain(shard, handles[shard].results)
        else:
            # The shard pool can grow mid-run, so the merge is deferred
            # to finish() (sized to the final pool); shard handles keep
            # full results either way.
            self._rebalance(pool)
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

    def shard_state(self, shard: int) -> Dict[str, Any]:
        """A checkpoint of the parent-side instance of ``shard``: an
        inline pool's live one (a view the rebalance barrier restores
        before the next feed), or the pristine copy a worker is forked
        from.  Both charge this deployment's cost model, which
        :meth:`checkpoint` carries once — so no balances here (a worker
        restoring them as its own would count them once per shard)."""
        state = self._instances[shard].checkpoint()
        state["cost_accounts"] = {}
        return state

    def checkpoint(self) -> Dict[str, Any]:
        """Picklable state at a round boundary (after the rebalance
        barrier, so post-migration checkpoints and the routing table
        travel together): every shard's ``(seq, pickled checkpoint)``,
        the routing snapshot when rebalancing, and what the parent owns
        itself (``runtime.own_state``) — SPLIT-edge refusals (quarantine,
        curation, queue shed) are counted, charged and traced outside
        every shard.  Once the run has finished the shards are gone and
        its state is the merged results."""
        state = own_state(self)
        if self._pool is None:
            state["results"] = {
                name: list(self._handles[name].results) for name in self._order
            }
            return state
        state["shards"] = self._pool.checkpoint_all()
        state["routing"] = self.routing_snapshot()
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Reinstate a :meth:`checkpoint`: a finished run's results at
        once, an open run's shards at the next :meth:`start`."""
        if "results" in state:
            for name, rows in state["results"].items():
                self.query(name).results[:] = rows
        else:
            self._resume_state = {
                int(shard): (seq, blob)
                for shard, (seq, blob) in state["shards"].items()
            }
            routing = state.get("routing")
            if (routing is None) != (self._rebalancer is None):
                raise ExecutionError(
                    "the journal and this instance disagree about"
                    " rebalance=...: the journal"
                    f" {'has no' if routing is None else 'carries a'}"
                    " routing table; resume with the same configuration"
                    " as the original run"
                )
            if routing is not None:
                # The replay routes — and keeps re-deciding — under the
                # journalled routing history.
                self._ensure_pool(routing["pool"])
                self._rebalancer.restore(routing["rebalancer"])
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

    def _split(
        self, batch: Sequence[Record], route: Dict[str, int]
    ) -> List[List[Record]]:
        buckets: List[List[Record]] = [[] for _ in range(self.shards)]
        rebalancer = self._rebalancer
        for record in batch:
            try:
                index = route[record.schema.name]
            except (KeyError, AttributeError):
                # Refuse it as the serial runtime's admission would: raises.
                admit_payload(record, self.registries.schemas, self._streams, False)
                raise
            value = record.values[index]
            if rebalancer is None:
                buckets[stable_hash(value) % self.shards].append(record)
            else:
                shard, admit = rebalancer.route_record(
                    stable_hash(value), value, record.schema.name
                )
                if admit:
                    buckets[shard].append(record)
        if rebalancer is not None:
            self._account_curated(rebalancer.drain_curated())
        return buckets

    def _account_curated(self, per_stream: Dict[str, int]) -> None:
        """Curated (hot-key downsampled) records are shed records; the
        curation counter keeps the by-cause breakdown."""
        for stream, count in per_stream.items():
            self.metrics.counter(
                "rebalance_curated_total",
                help="records dropped by hot-key curation at the split edge",
                stream=stream,
            ).inc(count)
            account_refusal(
                self, "shed", stream, count, offered=True,
                event="rebalance_curate", fields={"stream": stream, "dropped": count},
            )

    def _absorb_shard_obs(
        self, shard: int, metrics_snapshot: Optional[dict], trace_events: list
    ) -> None:
        """Fold one shard's metric/trace state into the parent, stamped
        with the ``shard`` label so per-shard series stay separable."""
        if metrics_snapshot:
            self.metrics.absorb(metrics_snapshot, extra_labels={"shard": shard})
        if self.trace.enabled and trace_events:
            self.trace.absorb(trace_events, shard=shard)

    # -- rebalancing --------------------------------------------------------------

    def _rebalance(self, pool: Any) -> None:
        """Round-boundary decision point: plan, migrate state, commit.

        Every shipped batch is behind the barrier (inline rings are
        drained; a worker's checkpoint request queues behind its
        batches), so the shard checkpoints are a consistent migration
        point.  The pool installs the rewritten snapshots so that a
        worker crash at any point mid-migration recovers from the
        post-migration set (see ``ShardSupervisor.install_checkpoints``).
        """
        rebalancer = self._rebalancer
        assert rebalancer is not None
        plan = rebalancer.maybe_plan()
        if plan is None:
            return
        if not plan.reroutes:
            rebalancer.commit(plan)
            self._note_rebalance(rebalancer, migrated=(0, 0))
            return
        for shard in self._ensure_pool(plan.table.shard_count):
            pool.add_shard(shard)
        try:
            states, changed, moved = migrate_states(
                self, pool.states(), plan.table
            )
        except MigrationDeferred as exc:
            rebalancer.defer(plan, str(exc))
            self._note_rebalance(rebalancer, deferred=str(exc))
            return
        pool.install_states({shard: states[shard] for shard in sorted(changed)})
        rebalancer.commit(plan, moved)
        self._note_rebalance(rebalancer, migrated=moved)

    def _note_rebalance(
        self,
        rebalancer: Rebalancer,
        migrated: Optional[Tuple[int, int]] = None,
        deferred: Optional[str] = None,
    ) -> None:
        """Mirror one rebalance decision into metrics and the trace."""
        if deferred is not None:
            self.metrics.counter(
                "rebalance_deferred_total",
                help="rebalance plans deferred (shard windows not aligned)",
            ).inc()
            if self.trace.enabled:
                self.trace.emit("rebalance_defer", reason=deferred)
            return
        assert migrated is not None
        self.metrics.counter(
            "rebalance_plans_total", help="rebalance plans committed"
        ).inc()
        self.metrics.counter(
            "rebalance_migrated_groups_total",
            help="operator groups migrated between shards",
        ).inc(migrated[0])
        self.metrics.gauge(
            "rebalance_routing_version", help="committed routing-table version"
        ).set(rebalancer.table.version)
        self.metrics.gauge(
            "rebalance_active_shards",
            help="shards the routing table currently routes to",
        ).set(rebalancer.table.shard_count)
        if self.trace.enabled:
            self.trace.emit(
                "rebalance_plan",
                version=rebalancer.table.version,
                shards=rebalancer.table.shard_count,
                migrated_groups=migrated[0],
                migrated_supergroups=migrated[1],
                pinned=sorted(rebalancer.table.hot.values()),
            )

    def routing_snapshot(self) -> Optional[Dict[str, Any]]:
        """Picklable routing/rebalancer state for the durable journal."""
        if self._rebalancer is None:
            return None
        return {"pool": self.shards, "rebalancer": self._rebalancer.checkpoint()}

    # -- reporting ------------------------------------------------------------------

    def cpu_percent(self, name: str, stream_seconds: float) -> float:
        """Aggregate CPU% of one query across all shards (one account)."""
        return self.cost.cpu_percent(name, stream_seconds)

    def run_report(self) -> Dict[str, Any]:
        """Overload counters read off :attr:`metrics`, summed over
        shards — the one :func:`~repro.dsms.runtime.registry_report`
        :meth:`Gigascope.run_report` reads too.  A shard's series count
        once :meth:`finish` has folded them in; what the parent refused
        itself is there from the start (:attr:`last_supervision` keeps
        queue shedding by shard).

        When rebalancing is enabled the report grows a ``rebalance``
        section (plans, migrations, pins, scale events, curated
        records, the routing table); without it the shape is exactly
        the serial runtime's ``{streams, queries}``.
        """
        report = registry_report(
            self, self._streams, self._instances[0].query_handles()
        )
        if self._rebalancer is not None:
            report["rebalance"] = {
                **self._rebalancer.report.as_dict(),
                "routing": self._rebalancer.table.to_json(),
            }
        return report

    def explain(self) -> str:
        """Render the sharding layout plus one shard's query DAG."""
        lines = [
            f"ShardedGigascope(shards={self.shards},"
            f" supervise={self.supervise})"
        ]
        try:
            self._resolve_partitions()
            for stream in self._streams:
                if self._rebalancer is not None:
                    table = self._rebalancer.table
                    lines.append(
                        f"  split {stream} by"
                        f" routing_table[hash({self._partition[stream]})]"
                        f" (v{table.version}, {len(table.slots)} slots,"
                        f" {table.shard_count} shards)"
                    )
                else:
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
