"""Common-subexpression sharing at the split edge (docs/SERVING.md).

Gigascope's deployment model is many standing queries over a few heavy
feeds (paper §1): almost all of the per-tuple work is the *low-level*
prefix — reading the fed batch, evaluating the shared prefilter, and
copying survivors up the SPLIT edge.  When two standing queries compile
to the same low-level prefix, the serving layer runs that prefix **once**
and replays its effects into every other subscriber:

* :func:`share_signature` decides whether a served instance may share
  at all, whether its compiled plan *has* a shareable prefix and what
  it is, by walking the operator-phase DAG from
  :func:`repro.analysis.dataflow.build_plan_graph` — the graph the
  SA2xx dataflow lints analyze; lint rule SA401 reports its answer;
* :func:`capture_feed` feeds a batch to the *canonical* (first
  registered) instance of a signature group normally, capturing the
  low-level node's emitted records plus the exact metric-counter and
  cost-account deltas the shared prefix produced;
* :func:`taking` feeds a leader, its low-level node taking its run from
  the engine's one scan of the batch for every group's leader
  (:func:`repro.dsms.node.emit_scan`), settling what the node would;
* :func:`replay_feed` applies those deltas — relabelled to the
  follower's node names — to every other member, then hands the
  captured run to the follower's low-level node as its own output
  (:meth:`Gigascope.emit`): retention, the SPLIT-edge copy and the
  follower's own high-level operator run exactly as they would solo.

The replay is *exact*, not approximate: every counter an instance would
have produced running solo is either regenerated natively (everything
downstream of the split edge) or transplanted as a delta (everything on
the shared prefix), so a shared run is byte-identical to a solo run —
the property ``tests/serving/test_equivalence.py`` enforces for every
pair and triple of example queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import build_plan_graph
from repro.dsms.expr import EvalContext, ScalarCall, find_nodes
from repro.dsms.node import take
from repro.dsms.parser.planner import QueryPlan, partition_info
from repro.errors import ReproError
from repro.obs.metrics import Counter, LabelItems
from repro.streams.records import Record

#: the counters one captured feed moved, each as (metric name, sorted label items)
Shape = Tuple[Tuple[str, LabelItems], ...]
#: a follower's replay cache, by the leader's low-level node: the last shape
#: replayed from it and the follower's own counters for that shape
ReplaySeries = Dict[str, Tuple[Shape, List[Counter]]]


@dataclass(frozen=True)
class ShareSignature:
    """Identity of one shareable low-level prefix.

    Two standing queries may share one physical low-level node iff their
    signatures compare equal: same source stream, same canonical SELECT
    list, same canonical WHERE.  An auto-inserted pass-through feeder
    (``SELECT <all columns> FROM stream``) canonicalises to the same
    signature as an explicit user selection of the whole stream, so the
    two shapes share naturally.

    ``split_keys`` records which source columns would keep the SPLIT
    edge hash-compatible across the group under sharded serving
    (derived from :func:`~repro.dsms.parser.planner.partition_info`);
    it is informational metadata, deliberately excluded from equality so
    differing GROUP BYs do not defeat prefilter sharing.
    """

    stream: str
    select: Tuple[str, ...]
    where: str
    split_keys: Tuple[str, ...] = field(default=(), compare=False, hash=False)

    def describe(self) -> str:
        where = f" WHERE {self.where}" if self.where else ""
        return f"{self.stream}: SELECT {', '.join(self.select)}{where}"


def share_signature(
    plan: QueryPlan,
    registries: Any,
    *,
    shed_threshold: Optional[int] = None,
    validate_admission: bool = False,
    reads_query: bool = False,
) -> Tuple[Optional[ShareSignature], Optional[str]]:
    """The shareable-prefix signature of one compiled plan, or a reason.

    Returns ``(signature, None)`` when the query can share its served
    feed, ``(None, reason)`` when it cannot.  This is the engine's whole
    sharing decision and what lint rule SA401 reports: the keywords say
    what the serving instance is (its ``shed_threshold`` and
    ``validate_admission``; ``reads_query``: its source is another
    registered query), the rest is read off the plan.
    """
    if shed_threshold is not None:
        return None, "overload shedding decisions are instance-local"
    if validate_admission:
        return None, "admission validation quarantines per instance"
    if reads_query:
        return None, "the query reads from another registered query"
    analyzed = plan.analyzed
    source = analyzed.ast.from_stream
    if source not in registries.schemas:
        return None, f"unknown source {source!r}"
    schema = registries.schemas[source]

    if plan.kind == "stateful_selection":
        return None, (
            "a stateful selection holds one global SFUN state set, so its"
            " low-level node cannot be shared with other queries"
        )

    if plan.kind in ("sampling", "aggregation"):
        # The runtime interposes a pass-through low-level feeder for
        # these (paper §7.2); the feeder is the shareable node.  Its
        # canonical shape: project every stream column, no predicate.
        split = partition_info(plan)
        return (
            ShareSignature(
                stream=source,
                select=tuple(schema.names),
                where="",
                split_keys=tuple(split.candidates or ()),
            ),
            None,
        )

    # A plain selection *is* the low-level node.  Its shareable prefix
    # is the whole plan: walk the phase DAG and canonicalise the WHERE
    # and SELECT expressions via their rendered form.
    graph = build_plan_graph(plan)
    where_parts: List[str] = []
    select_parts: List[str] = []
    for node in graph.topological():
        for clause, expr in node.exprs:
            rendered = str(expr)
            if node.kind == "where":
                where_parts.append(rendered)
            elif node.kind == "select":
                select_parts.append(rendered)
            for call in find_nodes(expr, ScalarCall):
                if not registries.scalars.is_deterministic(call.name):
                    return None, (
                        f"nondeterministic scalar {call.name}() in the"
                        f" {clause} clause: replaying its outputs to other"
                        " subscribers would freeze one random draw"
                    )
    split = partition_info(plan)
    return (
        ShareSignature(
            stream=source,
            select=tuple(select_parts),
            where=" AND ".join(where_parts),
            split_keys=tuple(split.candidates or ()),
        ),
        None,
    )


@dataclass
class BatchCapture:
    """Everything one canonical feed produced on the shared prefix."""

    low_name: str
    #: the run the low-level node emitted, as its entry returned it
    outputs: Collection[Record]
    #: the counters the prefix moved, interned: the leader's last shape when equal
    shape: Shape
    #: what each counter of ``shape`` moved by, in its order; none negative
    deltas: List[int]
    #: the leader's help text of a metric, for a follower resolving a new shape
    help_text: Callable[[str], Optional[str]]
    cost_deltas: Dict[str, int]


#: one member's share of a scan (``repro.dsms.node.emit_scan``): the
#: member's rows and its clauses' calls
Run = Tuple[List[Record], EvalContext]


def taking(
    gs: Any, low_name: Optional[str], run: Optional[Run], batch: Sequence[Record],
    runs: Optional[List[Any]] = None,
) -> None:
    """Feed ``batch`` to ``gs``, its low-level node *taking* ``run`` — it
    is handed the whole batch the scan read — or, without one, running
    itself, keeping what it returns in ``runs``; then its entry is
    restored as it was."""
    operator = gs.query(low_name).operator
    original = operator.process_many
    bound = vars(operator).get("process_many")  # a generated node's, or None

    def entry(records: Any, out: List[Record]) -> Collection[Record]:
        # One run per feed; a run that raises fails the feed, and the
        # group fails over.
        if run is not None:
            out = take(operator, records, out, *run)
        else:
            out = original(records, out)
        if runs is not None:
            runs.append(out)
        return out

    operator.process_many = entry
    try:
        gs.feed(batch)
    finally:
        if bound is None:
            del operator.process_many
        else:
            operator.process_many = bound


def capture_feed(
    gs: Any, low_name: str, high_name: Optional[str], batch: Sequence[Record],
    run: Optional[Run] = None, last: Shape = (),
) -> BatchCapture:
    """Feed ``batch`` to the canonical instance, capturing prefix effects.

    The low-level node's run entry (``process_many``) is shimmed for the
    duration of the feed, then restored as it was, to keep the run it
    returns — a record list, or on the columnar engine a batch, which
    followers take as it is — and to take ``run``, the node's share of a
    scan, when there is one.  Counter deltas are the difference of two
    reads of the registry (:meth:`~repro.obs.metrics.MetricsRegistry.counter_values`),
    cost deltas of two reads of the accounts.  Deltas attributable to the
    canonical query's own *high-level* operator are excluded (each
    follower regenerates those natively via :func:`replay_feed`), as is
    the SPLIT-edge copy accounting (``query_forwarded_total`` and its
    ``tuple_copy`` cycles), which the follower's own runtime performs
    because followers differ in whether a downstream operator exists.

    The non-zero counter deltas are a :data:`Shape` — their series, in
    registration order — and the deltas, checked here, once for every
    follower, never to be negative (a counter does not decrease).  A shape
    equal to ``last``, the leader's previous one, is returned as ``last``
    itself, so a follower tells a same-shape batch by identity.
    """
    low = gs.query(low_name)
    metrics_before = gs.metrics.counter_values()
    cost_before = gs.cost.accounts() if gs.cost.enabled else {}
    forwarded_before = low.forwarded

    runs: List[Collection[Record]] = []
    taking(gs, low_name, run, batch, runs)

    forwarded = low.forwarded - forwarded_before
    shape: List[Tuple[str, LabelItems]] = []
    deltas: List[int] = []
    for key, value in gs.metrics.counter_values().items():
        delta = value - metrics_before.get(key, 0)
        if not delta:
            continue
        name, labels = key
        query = dict(labels).get("query")
        if high_name is not None and query == high_name:
            continue
        if name == "query_forwarded_total" and query == low_name:
            continue
        if delta < 0:
            raise ReproError(f"counter {name} cannot decrease (by={delta})")
        shape.append(key)
        deltas.append(delta)

    cost_deltas: Dict[str, int] = {}
    if gs.cost.enabled:
        for account, cycles in gs.cost.accounts().items():
            delta = cycles - cost_before.get(account, 0)
            if account == high_name:
                continue
            if account == low_name:
                delta -= gs.cost.book.tuple_copy * forwarded
            if delta:
                cost_deltas[account] = delta

    interned = tuple(shape)
    return BatchCapture(
        low_name=low_name,
        outputs=runs[0] if runs else [],
        shape=last if interned == last else interned,
        deltas=deltas,
        help_text=gs.metrics.help_text,
        cost_deltas=cost_deltas,
    )


def replay_feed(gs: Any, low_name: str, capture: BatchCapture, series: ReplaySeries) -> None:
    """Re-enact one captured feed on a follower instance.

    Adds the shared-prefix deltas to the follower's counters, then emits
    the captured run from the follower's low-level node: the runtime
    retains it, performs the follower's own SPLIT-edge copy and
    dispatches it to the high-level operator as if that node had produced
    it.  Under ``profile`` the transplant is the low-level node's
    ``operator_seconds`` sample, ``phase="replay"``.

    ``series`` is the follower's cache, by the leader's node: the last
    shape replayed from it and the follower's counters for that shape,
    each series relabelled from the leader's node name to the follower's.
    A batch of the same shape (the same object: :func:`capture_feed`
    interns it) only adds; a new shape — a zero delta dropped, another
    leader after a failover, a restored leader — resolves its counters
    once.  A restore mutates series in place, so a held counter stays
    the follower's.
    """
    started = perf_counter() if gs.profile else 0.0
    held = series.get(capture.low_name)
    if held is None or held[0] is not capture.shape:
        counters = []
        for name, labels in capture.shape:
            relabelled = dict(labels)
            if relabelled.get("query") == capture.low_name:
                relabelled["query"] = low_name
            counters.append(gs.metrics.counter(name, help=capture.help_text(name), **relabelled))
        held = series[capture.low_name] = (capture.shape, counters)
    for counter, delta in zip(held[1], capture.deltas):
        counter.value += delta
    if gs.cost.enabled and capture.cost_deltas:
        gs.cost.absorb({
            (low_name if account == capture.low_name else account): cycles
            for account, cycles in capture.cost_deltas.items()
        })
    if gs.profile:  # what the follower's low-level node does instead of running
        gs.observe_seconds(low_name, "replay", started)
    gs.emit(low_name, capture.outputs)
