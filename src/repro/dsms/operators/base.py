"""Push-based operator protocol.

Operators consume their input a *run* at a time — whatever stretch of
records the caller has at hand, in order: a ring poll, a parent's
output, one record — through :meth:`Operator.process_many`, and append
zero or more output records; :meth:`flush` closes any trailing window
at end of stream.  The runtime chains operators by handing each node's
output run to the downstream node.  Decisions stay per tuple and in
order, so how a stream is cut into runs changes no row, counter, charge
or checkpoint (DESIGN.md §2).

Operators also support crash-recovery checkpoints: :meth:`checkpoint`
returns a picklable snapshot of all mutable state and :meth:`restore`
reinstates it on a freshly built operator of the same plan.  The shard
supervisor uses this pair to resume a replacement worker from the last
checkpoint instead of replaying the whole stream.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

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
    # Introspectable without running the operator: the durable runner and
    # the execution-safety analyzer (rules SA3xx) read these to decide up
    # front whether a deployment is safe, instead of finding out mid-run.

    #: Whether :meth:`checkpoint`/:meth:`restore` capture *all* mutable
    #: state (every shipped operator does; an operator holding state it
    #: cannot snapshot overrides this to False).
    supports_checkpoint: bool = True

    #: SFUN state names this operator's plan requires (set by the
    #: factory from the analyzed query; empty for stateless plans).
    required_states: Tuple[str, ...] = ()

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
    # operators; see docs/OBSERVABILITY.md).  Series are resolved once,
    # at bind time, into plain attributes so the per-tuple cost is one
    # integer add.  Operators built standalone (unit tests) bind a
    # private registry; the runtime re-binds them onto the instance-wide
    # registry before any tuple flows.

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

    def process_many(
        self, records: Iterable[Record], out: Optional[List[Record]] = None
    ) -> List[Record]:
        """Consume a run of records in order; append what they emit to
        ``out`` (a fresh list when omitted) and return it.

        The one per-tuple body of every operator.  Operation counts and
        metric increments accumulate in locals and are settled once, in
        a ``finally``: when an error escapes, the operator has counted
        and charged exactly the records it consumed, the failing one
        included, and ``out`` — owned by the caller — still holds every
        row emitted before it.
        """
        raise NotImplementedError

    def process(self, record: Record) -> List[Record]:
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
        """Reinstate a :meth:`checkpoint` snapshot (stateless: no-op)."""
        if snapshot is not None:
            raise ExecutionError(
                f"{type(self).__name__} is stateless but was given a"
                f" non-empty snapshot ({type(snapshot).__name__})"
            )

    def run(self, records: Iterable[Record]) -> Iterator[Record]:
        """Drive the operator over a whole stream."""
        for record in records:
            yield from self.process(record)
        yield from self.flush()
