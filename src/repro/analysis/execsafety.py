"""Execution-safety analysis: the SA3xx rule family.

PR 5's runtimes refuse unsafe configurations — but only at runtime,
deep inside :class:`~repro.dsms.sharded.ShardedGigascope` and
:class:`~repro.dsms.durability.DurableRunner`, after the stream is
already flowing.  This pass reports the same refusals at *compile time*:
``repro lint --target shards=4,durable`` answers "would this query run
under that deployment?" before a single tuple is fed.

The rules mirror the runtime refusal sites **one to one** (the mapping
is pinned by ``tests/analysis/test_execsafety.py``):

``SA301``
    The query's output has no ordered attribute, so the recombining
    MERGE of sharded execution has nothing to order on
    (``ShardedGigascope.add_query``).
``SA302``
    The query's operator state cannot be hash-partitioned: no acceptable
    partition column per :func:`~repro.dsms.parser.planner.
    partition_info` (``ShardedGigascope.add_query``).
``SA303``
    Durable resume plus load shedding: shedding decisions depend on
    wall-clock queue depths, so a resumed run could silently diverge
    (``DurableRunner.__init__``).
``SA305``
    A deployment that snapshots operator state — a durable journal, or
    supervised workers restarting from checkpoints
    (:attr:`ExecTarget.checkpoints`) — needs every SFUN state in the
    plan to be checkpointable; a state class declaring
    ``checkpointable = False`` (it holds unsnapshottable resources)
    cannot ride one (``DurableRunner.__init__``,
    ``ShardedGigascope.add_query`` under ``supervise``).
``SA306``
    Elastic rebalancing migrates operator state between shards through
    the same checkpoint/restore snapshots, so a state class declaring
    ``checkpointable = False`` means its operator state is not
    migratable across shard boundaries
    (``ShardedGigascope.add_query`` under ``rebalance=``).

All SA3xx diagnostics are **errors** — the runtime would hard-refuse —
and the whole family is gated on an :class:`ExecTarget`: without
``--target`` nothing here runs, because a query that never leaves the
serial runtime has no execution-safety obligations.

Like the sampling pass, the computed facts ride the generic dataflow
engine (:mod:`repro.analysis.dataflow`) and are exported on
``plan.annotations["execsafety"]`` for later layers (ROADMAP item 3's
elastic sharding reads the same shardability verdicts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.dataflow import (
    DataflowAnalysis,
    DataflowResult,
    PlanGraph,
    PlanNode,
    build_plan_graph,
    run_dataflow,
)
from repro.analysis.diagnostics import DiagnosticCollector
from repro.dsms.expr import Expr, StatefulCall, find_nodes
from repro.dsms.parser.analyzer import AnalyzedQuery, Registries
from repro.dsms.parser.planner import QueryPlan, partition_info
from repro.dsms.span import Span


@dataclass(frozen=True)
class ExecTarget:
    """A deployment configuration to lint against.

    Parsed from the CLI's ``--target`` value; mirrors the constructor
    surface of the runtimes it models (``ShardedGigascope(shards=...,
    supervise=..., shed_threshold=...)`` wrapped in a ``DurableRunner``
    when ``durable``).
    """

    shards: Optional[int] = None
    supervise: bool = False
    durable: bool = False
    rebalance: bool = False
    serve: bool = False
    shed_threshold: Optional[int] = None

    @property
    def sharded(self) -> bool:
        """True when sharded execution (SPLIT/MERGE) is requested at all;
        ``ShardedGigascope.add_query`` enforces its plan rules even for a
        single shard."""
        return self.shards is not None

    @property
    def checkpoints(self) -> bool:
        """True when the deployment snapshots operator state as it runs
        (rule SA305): a durable journal, or supervised shard workers.
        ``rebalance`` snapshots too, under its own rule id (SA306)."""
        return self.durable or (self.sharded and self.supervise)

    def describe(self) -> str:
        parts: List[str] = []
        if self.shards is not None:
            parts.append(f"shards={self.shards}")
        if self.supervise:
            parts.append("supervise")
        if self.durable:
            parts.append("durable")
        if self.rebalance:
            parts.append("rebalance")
        if self.serve:
            parts.append("serve")
        if self.shed_threshold is not None:
            parts.append(f"shed={self.shed_threshold}")
        return ",".join(parts) or "serial"

    def to_json(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "supervise": self.supervise,
            "durable": self.durable,
            "rebalance": self.rebalance,
            "serve": self.serve,
            "shed_threshold": self.shed_threshold,
        }


def parse_target(text: str) -> ExecTarget:
    """Parse a ``--target`` value like ``shards=4,durable,supervise``.

    Grammar: comma-separated items, each a flag (``durable`` /
    ``supervise`` / ``rebalance`` / ``serve``) or a keyed value
    (``shards=N`` / ``shed=N``).  Raises :class:`ValueError` with a usage hint on
    anything else.
    """
    target: Dict[str, Any] = {}
    for raw in text.split(","):
        item = raw.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in ("durable", "supervise", "rebalance", "serve"):
            if value:
                raise ValueError(
                    f"target flag {key!r} takes no value (got {item!r})"
                )
            target[key] = True
        elif key in ("shards", "shed"):
            try:
                number = int(value)
            except ValueError:
                raise ValueError(
                    f"target {key!r} needs an integer value (got {item!r})"
                ) from None
            if number < 1:
                raise ValueError(f"target {key!r} must be >= 1 (got {number})")
            target["shed_threshold" if key == "shed" else key] = number
        else:
            raise ValueError(
                f"unknown target item {item!r}; expected"
                " shards=N, shed=N, durable, supervise, rebalance, or serve"
            )
    return ExecTarget(**target)


@dataclass(frozen=True)
class ExecFact:
    """The abstract execution-capability state of one plan edge.

    ``states`` are the SFUN state names the upstream phases require;
    ``non_checkpointable`` is the subset whose state class opts out of
    :meth:`~repro.dsms.stateful.StatefulState.checkpoint`.
    """

    states: Tuple[str, ...] = ()
    non_checkpointable: Tuple[str, ...] = ()

    @property
    def checkpointable(self) -> bool:
        return not self.non_checkpointable

    def to_json(self) -> Dict[str, Any]:
        return {
            "states": list(self.states),
            "non_checkpointable": list(self.non_checkpointable),
            "checkpointable": self.checkpointable,
        }


class ExecSafetyAnalysis(DataflowAnalysis[ExecFact]):
    """Forward propagation of :class:`ExecFact` over the plan DAG."""

    def __init__(self, registries: Registries) -> None:
        self._registries = registries

    def boundary(self, node: PlanNode) -> ExecFact:
        return ExecFact()

    def transfer(self, node: PlanNode, fact: ExecFact) -> ExecFact:
        states = list(fact.states)
        bad = list(fact.non_checkpointable)
        for _clause, expr in node.exprs:
            for call in find_nodes(expr, StatefulCall):
                assert isinstance(call, StatefulCall)
                if call.state_name in states:
                    continue
                states.append(call.state_name)
                if not self._registries.stateful.checkpointable(call.state_name):
                    bad.append(call.state_name)
        if len(states) == len(fact.states):
            return fact
        return ExecFact(tuple(states), tuple(bad))

    def join(self, facts: List[ExecFact]) -> ExecFact:
        states = list(facts[0].states)
        bad = list(facts[0].non_checkpointable)
        for other in facts[1:]:
            for name in other.states:
                if name not in states:
                    states.append(name)
            for name in other.non_checkpointable:
                if name not in bad:
                    bad.append(name)
        return ExecFact(tuple(states), tuple(bad))


def analyze_execsafety(
    plan: QueryPlan,
    target: Optional[ExecTarget] = None,
    graph: Optional[PlanGraph] = None,
) -> DataflowResult[ExecFact]:
    """Run the capability dataflow over ``plan`` and export annotations.

    ``plan.annotations["execsafety"]`` gets the per-edge facts plus the
    plan-level verdicts (shardability, partition candidates,
    checkpointability) that ROADMAP item 3's elastic sharding will read.
    """
    if graph is None:
        graph = build_plan_graph(plan)
    result = run_dataflow(graph, ExecSafetyAnalysis(plan.registries))
    output = result.out_facts[graph.topological()[-1].node_id]
    info = partition_info(plan)
    plan.annotations["execsafety"] = {
        "edges": {
            f"{src}->{dst}": fact.to_json()
            for (src, dst), fact in sorted(result.edge_facts.items())
        },
        "target": target.to_json() if target is not None else None,
        "mergeable": bool(plan.output_schema.ordered_attributes()),
        "partition_candidates": (
            None if info.candidates is None else list(info.candidates)
        ),
        "shardable": info.candidates is None or bool(info.candidates),
        "checkpointable": output.checkpointable,
        "states": list(output.states),
    }
    return result


def _stateful_call_span(
    analyzed: AnalyzedQuery, state_name: Optional[str] = None
) -> Optional[Span]:
    """Span of the first SFUN call (optionally of one state) in the query."""
    ast = analyzed.ast
    exprs: List[Optional[Expr]] = [
        ast.where,
        *[item.expr for item in ast.select],
        ast.having,
        ast.cleaning_when,
        ast.cleaning_by,
    ]
    for expr in exprs:
        if expr is None:
            continue
        for call in find_nodes(expr, StatefulCall):
            assert isinstance(call, StatefulCall)
            if state_name is None or call.state_name == state_name:
                return call.span
    return None


def check_execsafety(
    analyzed: AnalyzedQuery,
    plan: QueryPlan,
    registries: Registries,
    collector: DiagnosticCollector,
    target: Optional[ExecTarget],
) -> None:
    """Run the SA3xx execution-safety rules over a compiled plan."""
    graph = build_plan_graph(plan)
    result = analyze_execsafety(plan, target, graph)
    if target is None:
        return

    if target.sharded:
        _check_mergeable(analyzed, plan, target, collector)
        _check_partitionable(analyzed, plan, target, collector)
    if target.durable:
        _check_durable_shedding(analyzed, target, collector)
    _check_snapshottable_states(analyzed, result, target, collector)


def _check_mergeable(
    analyzed: AnalyzedQuery,
    plan: QueryPlan,
    target: ExecTarget,
    collector: DiagnosticCollector,
) -> None:
    if plan.output_schema.ordered_attributes():
        return
    collector.error(
        "SA301",
        f"cannot shard this query (target {target.describe()}): its output"
        " has no ordered attribute for the recombining MERGE",
        analyzed.ast.clause_span("SELECT"),
        hint="select the window variable (an ordered column) first;"
        " ShardedGigascope.add_query refuses this plan at runtime",
    )


def _check_partitionable(
    analyzed: AnalyzedQuery,
    plan: QueryPlan,
    target: ExecTarget,
    collector: DiagnosticCollector,
) -> None:
    info = partition_info(plan)
    if info.candidates is None or info.candidates:
        return
    span = (
        _stateful_call_span(analyzed)
        if plan.kind == "stateful_selection"
        else analyzed.ast.clause_span("GROUP BY")
    ) or analyzed.ast.clause_span("FROM")
    collector.error(
        "SA302",
        f"cannot shard this query (target {target.describe()}):"
        f" {info.reason}",
        span,
        hint="ShardedGigascope.add_query refuses this plan at runtime",
    )


def _check_durable_shedding(
    analyzed: AnalyzedQuery, target: ExecTarget, collector: DiagnosticCollector
) -> None:
    if target.shed_threshold is None:
        return
    collector.error(
        "SA303",
        f"target {target.describe()} combines durable resume with load"
        " shedding: shedding depends on wall-clock queue depths, so a"
        " resumed run could shed differently and silently diverge",
        analyzed.ast.clause_span("FROM"),
        hint="drop shed=N from the target (DurableRunner refuses the"
        " combination at construction)",
    )


def _check_snapshottable_states(
    analyzed: AnalyzedQuery,
    result: DataflowResult[ExecFact],
    target: ExecTarget,
    collector: DiagnosticCollector,
) -> None:
    """SA305 and SA306 from the one predicate: the plan's SFUN states
    that opt out of checkpoints, against each consumer of checkpoints
    the target names."""
    final = result.out_facts[result.graph.topological()[-1].node_id]
    for state in final.non_checkpointable:
        span = _stateful_call_span(analyzed, state)
        if target.sharded and target.rebalance:
            collector.error(
                "SA306",
                f"SFUN state {state!r} declares checkpointable=False, so its"
                f" operator state is not migratable across shard boundaries"
                f" (target {target.describe()})",
                span,
                hint="run without rebalancing or make the state snapshottable"
                " (ShardedGigascope.add_query refuses the plan at runtime"
                " when rebalance= is set)",
            )
        if target.checkpoints:
            collector.error(
                "SA305",
                f"SFUN state {state!r} declares checkpointable=False, so this"
                f" query cannot ride a durable journal commit or a worker"
                f" checkpoint (target {target.describe()})",
                span,
                hint="make the state checkpointable (implement"
                " checkpoint()/restore() and drop the opt-out) or run without"
                " durable / supervise (DurableRunner refuses it at"
                " construction, ShardedGigascope.add_query under supervise)",
            )
