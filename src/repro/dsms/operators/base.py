"""Push-based operator protocol.

Operators consume their input a *run* at a time — whatever stretch of
records the caller has at hand, in order: a ring poll, a parent's
output (a column batch included), one record — through
:meth:`Operator.process_many`, the one entry of every operator on
either engine, and return the run they emitted; :meth:`flush` closes any
trailing window at end of stream.  The runtime chains operators by
handing each node's output run to the downstream node.  Decisions stay
per tuple and in order, so how a stream is cut into runs changes no row,
counter, charge or checkpoint (DESIGN.md §2).

Checkpoint protocol (DESIGN.md §8): :meth:`Operator.checkpoint` decouples
— the snapshot is picklable and stays valid while the operator runs on;
:meth:`Operator.restore` takes ownership — on a freshly built operator
of the same plan; keep a snapshot you will restore twice by pickling it.
Only an operator reads its own snapshot: state moves between shards
through :meth:`Operator.split_snapshot` / :meth:`Operator.merge_snapshot`,
and the one key anyone else may read is a windowed operator's
``"current_window"`` (``dsms/rebalance.py`` checks that shards agree on
it before moving anything).  Every piece of run state has one owner:

========================== ================ ============================== ================================
state                      owner            who checkpoints it             who may restore it
========================== ================ ============================== ================================
group / supergroup tables  the operator     Operator.checkpoint            the same plan's operator
SFUN states, by name       stateful library checkpoint_states (gated)      restore_states, equal library
retained rows, forwarded   Gigascope        Gigascope.checkpoint           identically registered instance
metrics, trace, cycles     its deployment   runtime.own_state, once        restore_own_state (absent: kept)
routing + rebalancer state Rebalancer       ShardedGigascope.checkpoint    same rebalance= configuration
breakers, dead letters     serving engine   StandingQueryEngine.checkpoint engine holding the same queries
========================== ================ ============================== ================================

Rings are in no checkpoint (a batch boundary drains them), nor are
quarantine payloads (they may not pickle).  "Gated": every consumer of
operator checkpoints — a durable journal, supervised workers,
rebalancing, a journalled serve — first passes the one gate, rows
SA305/SA306 of :data:`repro.analysis.legality.RULES`.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Collection, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACE, TraceSink
from repro.streams.records import Record
from repro.streams.schema import StreamSchema


class Operator:
    """Base class for executable operators."""

    #: Schema of the records this operator emits.
    output_schema: StreamSchema

    #: value of the ``operator`` label on this operator's metric series
    kind_label = "operator"

    # -- static capabilities ----------------------------------------------
    #
    # Introspectable without running the operator.

    #: "tuple" or "vectorized" — which engine executes this operator's
    #: hot path (the vectorized subclasses override it).
    execution_mode: str = "tuple"

    #: Set by the factory when ``vectorize=True`` was requested but this
    #: plan had to fall back to the tuple path: the human-readable reason
    #: (SFUN, superaggregate, custom aggregate, ...).
    vectorize_fallback: "str | None" = None

    # -- observability -----------------------------------------------------
    #
    # Every operator carries metric series for the tuple-conservation
    # identity ``in == filtered + rows_out`` (selections) or
    # ``in == filtered + admitted + late + incomparable`` (windowed
    # operators, one late-tuple policy: :meth:`_late`; docs/OBSERVABILITY.md).
    # Series are resolved once, at bind time, into plain attributes so the
    # per-tuple cost is one integer add.  Operators built standalone (unit
    # tests) bind a private registry; the runtime re-binds them onto the
    # instance-wide registry before any tuple flows.

    def bind_obs(
        self, metrics: MetricsRegistry, trace: TraceSink, query: str
    ) -> None:
        """Attach this operator's metric series and trace sink."""
        self.obs_metrics = metrics
        self.obs_trace = trace
        self.obs_query = query
        self._bind_series()

    def _bind_series(self) -> None:
        """Resolve metric series (subclasses extend, then call super)."""
        common = {"query": self.obs_query, "operator": self.kind_label}
        m = self.obs_metrics
        self.m_in = m.counter(
            "operator_tuples_in_total",
            help="input tuples presented to the operator",
            **common,
        )
        self.m_filtered = m.counter(
            "operator_tuples_filtered_total",
            help="input tuples rejected by WHERE",
            **common,
        )
        self.m_rows_out = m.counter(
            "operator_rows_out_total",
            help="output records emitted (per window for windowed operators)",
            **common,
        )

    def _default_obs(self, query: str) -> None:
        """Bind a private registry (constructor fallback; see bind_obs)."""
        self.bind_obs(MetricsRegistry(), NULL_TRACE, query)

    # -- windowed operators: their series, their one late-tuple policy --

    def _bind_window_series(self, **labels: str) -> None:
        """What a windowed operator counts beyond every operator's series:
        the rest of its identity (:meth:`_late` counts two of the terms),
        its windows and its groups."""
        counter = self.obs_metrics.counter
        self.m_admitted = counter(
            "operator_tuples_admitted_total",
            help="tuples that passed WHERE and fed a group",
            **labels,
        )
        self.m_late = counter(
            "operator_late_tuples_total",
            help="tuples dropped because their window already closed",
            **labels,
        )
        self.m_incomparable = counter(
            "operator_incomparable_tuples_total",
            help="tuples dropped because their window id was unorderable",
            **labels,
        )
        self.m_windows = counter("operator_windows_total", help="windows closed", **labels)
        self.m_groups_created = counter(
            "operator_groups_created_total", help="group-table inserts", **labels
        )
        self.m_having_rejected = counter(
            "operator_having_rejected_total",
            help="groups rejected by HAVING at window close",
            **labels,
        )

    def _late(self, window: Any, current: Any, count: int = 1) -> Optional[str]:
        """Asked only when ``window`` differs from the open ``current``:
        ``"late"`` when it orders before it (that window was emitted),
        ``"incomparable"`` when it cannot be ordered against it (a None
        timestamp) — the ``count`` tuples are counted and dropped and the
        open window stays open — or None: ``window`` opens."""
        if current is None:
            return None
        try:
            if not window < current:
                return None
            kind, counter = "late", self.m_late
        except TypeError:
            kind, counter = "incomparable", self.m_incomparable
        counter.inc(count)
        return kind

    def process_many(
        self, records: Iterable[Record], out: Optional[List[Record]] = None
    ) -> Collection[Record]:
        """Consume a run of records in order and return the run you
        emitted — ``out`` if you appended to it.

        Rows go into ``out`` (a fresh list when omitted) as they are
        emitted: it is owned by the caller, so when an error escapes it
        still holds every row emitted before it.  Only an operator that
        emits a run's rows together or not at all (the columnar
        selection) may leave ``out`` alone and return its own run.

        The one per-tuple body of every operator.  Operation counts and
        metric increments accumulate in locals and are settled once, in
        a ``finally``: when an error escapes, the operator has counted
        and charged exactly the records it consumed, the failing one
        included.
        """
        raise NotImplementedError

    def process(self, record: Record) -> Collection[Record]:
        """A run of one."""
        return self.process_many((record,))

    def flush(self) -> List[Record]:
        """End-of-stream: emit anything still buffered (default: nothing)."""
        return []

    def checkpoint(self) -> Any:
        """Picklable snapshot of mutable operator state.

        ``None`` means the operator is stateless (the default — plain
        selections have nothing to recover).  Stateful operators return a
        structure fully decoupled from their live state, so the snapshot
        stays valid while the operator keeps processing.
        """
        return None

    def restore(self, snapshot: Any) -> None:
        """Reinstate a :meth:`checkpoint` snapshot (stateless: no-op);
        the operator takes ownership of it, nothing is copied again."""
        if snapshot is not None:
            raise ExecutionError(
                f"{type(self).__name__} is stateless but was given a"
                f" non-empty snapshot ({type(snapshot).__name__})"
            )

    def split_snapshot(
        self, snapshot: Any, column: str, route: Callable[[Any], int], src: int
    ) -> Dict[int, Any]:
        """Cut out of ``snapshot`` — a :meth:`checkpoint` of this plan
        taken on shard ``src``; not live state, so a parent's pristine
        operator answers for a worker's — the state whose ``column``
        value ``route`` sends elsewhere; returns it by destination.
        Default: none (stateless, or not keyed by ``column``)."""
        return {}

    def merge_snapshot(self, snapshot: Any, part: Any, window: Any) -> Tuple[int, int]:
        """Fold one :meth:`split_snapshot` part into ``snapshot``, which
        adopts the in-flight ``window`` if it has none open; returns the
        ``(groups, supergroups)`` that moved in."""
        raise ExecutionError(f"{type(self).__name__} has no state to merge")

    def run(self, records: Iterable[Record]) -> Iterator[Record]:
        """Drive the operator over a whole stream."""
        for record in records:
            yield from self.process(record)
        yield from self.flush()
