"""Generic dataflow analysis over the compiled operator plan.

The planner compiles a query into a :class:`~repro.dsms.parser.planner.
QueryPlan`; at runtime that plan becomes a chain of operator *phases*
(tuple admission, grouping, aggregate update, cleaning, HAVING, output —
paper §5/§6).  This module reifies those phases as an explicit DAG of
:class:`PlanNode` s so analysis passes can *propagate abstract facts
along its edges* instead of re-walking clause ASTs ad hoc:

* :func:`build_plan_graph` decomposes one ``QueryPlan`` into the phase
  DAG the operator will actually execute (``source → where → group →
  aggregate → cleaning → having → select → output``, with absent clauses
  skipped);
* :class:`DataflowAnalysis` is the abstract pass: a boundary fact for
  source edges, a transfer function per node, and a join for confluences
  (the graph is a chain today, but MERGE nodes fan in — the engine
  handles general DAGs);
* :func:`run_dataflow` walks the graph in topological order and records
  the fact on every edge, returned as a :class:`DataflowResult`.

One pass rides on this engine today: :mod:`repro.analysis.sampling_algebra`
(sampling-soundness facts, rules SA2xx).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.dsms.expr import Expr
from repro.dsms.parser.planner import QueryPlan
from repro.dsms.span import Span
from repro.streams.schema import StreamSchema

F = TypeVar("F")

#: (clause name, expression) pair carried by a node.
ClauseExpr = Tuple[str, Expr]


@dataclass(frozen=True)
class PlanNode:
    """One operator phase of a compiled plan.

    ``kind`` is one of ``source``, ``where``, ``group``, ``aggregate``,
    ``cleaning``, ``having``, ``select``, ``output`` (and ``merge`` for
    fan-in nodes of multi-query graphs).  ``exprs`` are the clause
    expressions the phase evaluates; ``span`` anchors diagnostics about
    the phase itself.
    """

    node_id: str
    kind: str
    exprs: Tuple[ClauseExpr, ...] = ()
    span: Optional[Span] = None
    schema: Optional[StreamSchema] = None

    def __str__(self) -> str:
        return f"{self.node_id}[{self.kind}]"


@dataclass(frozen=True)
class PlanEdge:
    """A directed dataflow edge between two plan nodes."""

    src: str
    dst: str


@dataclass
class PlanGraph:
    """The operator-phase DAG of one (or more chained) compiled plans."""

    plan: QueryPlan
    nodes: Dict[str, PlanNode] = field(default_factory=dict)
    edges: List[PlanEdge] = field(default_factory=list)

    def add_node(self, node: PlanNode) -> PlanNode:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate plan node {node.node_id!r}")
        self.nodes[node.node_id] = node
        return node

    def add_edge(self, src: PlanNode, dst: PlanNode) -> PlanEdge:
        edge = PlanEdge(src.node_id, dst.node_id)
        self.edges.append(edge)
        return edge

    def node(self, node_id: str) -> PlanNode:
        return self.nodes[node_id]

    def predecessors(self, node_id: str) -> List[PlanNode]:
        return [self.nodes[e.src] for e in self.edges if e.dst == node_id]

    def successors(self, node_id: str) -> List[PlanNode]:
        return [self.nodes[e.dst] for e in self.edges if e.src == node_id]

    def sources(self) -> List[PlanNode]:
        """Nodes with no incoming edge (the stream taps)."""
        targets = {e.dst for e in self.edges}
        return [n for n in self.nodes.values() if n.node_id not in targets]

    def topological(self) -> List[PlanNode]:
        """Nodes in topological order (raises on a cycle)."""
        indegree: Dict[str, int] = {node_id: 0 for node_id in self.nodes}
        for edge in self.edges:
            indegree[edge.dst] += 1
        ready = [
            node_id for node_id, degree in sorted(indegree.items())
            if degree == 0
        ]
        order: List[PlanNode] = []
        while ready:
            node_id = ready.pop(0)
            order.append(self.nodes[node_id])
            for succ in self.successors(node_id):
                indegree[succ.node_id] -= 1
                if indegree[succ.node_id] == 0:
                    ready.append(succ.node_id)
        if len(order) != len(self.nodes):
            raise ValueError("plan graph contains a cycle")
        return order

    def first_of_kind(self, kind: str) -> Optional[PlanNode]:
        for node in self.topological():
            if node.kind == kind:
                return node
        return None

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.topological())


def build_plan_graph(plan: QueryPlan, name: str = "q") -> PlanGraph:
    """Decompose one compiled plan into its operator-phase DAG.

    The chain mirrors the evaluation order of the runtime operators
    (paper §5): tuples are admitted by WHERE, routed to their group,
    folded into aggregates and superaggregates, periodically cleaned,
    filtered by HAVING at the window border, and projected by SELECT.
    Phases a query does not use are omitted, so a plain selection
    compiles to ``source → where → select → output``.
    """
    analyzed = plan.analyzed
    ast = analyzed.ast
    graph = PlanGraph(plan)

    def nid(kind: str) -> str:
        return f"{name}.{kind}"

    previous = graph.add_node(
        PlanNode(
            nid("source"),
            "source",
            span=ast.clause_span("FROM"),
            schema=analyzed.schema,
        )
    )

    def chain(node: PlanNode) -> PlanNode:
        nonlocal previous
        graph.add_node(node)
        graph.add_edge(previous, node)
        previous = node
        return node

    if ast.where is not None:
        chain(
            PlanNode(
                nid("where"),
                "where",
                exprs=(("WHERE", ast.where),),
                span=ast.clause_span("WHERE") or ast.where.span,
            )
        )

    if analyzed.group_by:
        chain(
            PlanNode(
                nid("group"),
                "group",
                exprs=tuple(
                    ("GROUP BY", item.expr) for item in analyzed.group_by
                ),
                span=ast.clause_span("GROUP BY"),
            )
        )

    if analyzed.aggregates or analyzed.superaggregates:
        chain(
            PlanNode(
                nid("aggregate"),
                "aggregate",
                exprs=tuple(
                    ("AGGREGATE", node)
                    for node in (*analyzed.aggregates, *analyzed.superaggregates)
                ),
                span=ast.clause_span("GROUP BY"),
            )
        )

    if ast.cleaning_when is not None or ast.cleaning_by is not None:
        cleaning_exprs: List[ClauseExpr] = []
        if ast.cleaning_when is not None:
            cleaning_exprs.append(("CLEANING WHEN", ast.cleaning_when))
        if ast.cleaning_by is not None:
            cleaning_exprs.append(("CLEANING BY", ast.cleaning_by))
        chain(
            PlanNode(
                nid("cleaning"),
                "cleaning",
                exprs=tuple(cleaning_exprs),
                span=ast.clause_span("CLEANING WHEN")
                or ast.clause_span("CLEANING BY"),
            )
        )

    if ast.having is not None:
        chain(
            PlanNode(
                nid("having"),
                "having",
                exprs=(("HAVING", ast.having),),
                span=ast.clause_span("HAVING") or ast.having.span,
            )
        )

    chain(
        PlanNode(
            nid("select"),
            "select",
            exprs=tuple(
                ("SELECT", item.expr)
                for item in ast.select
                if item.expr is not None
            ),
            span=ast.clause_span("SELECT"),
        )
    )
    chain(
        PlanNode(
            nid("output"),
            "output",
            span=ast.clause_span("SELECT"),
            schema=plan.output_schema,
        )
    )
    return graph


@dataclass
class DataflowResult(Generic[F]):
    """Per-edge facts computed by :func:`run_dataflow`.

    ``edge_facts`` maps ``(src id, dst id)`` to the fact flowing along
    that edge; ``out_facts`` maps a node id to the fact it emits.
    """

    graph: PlanGraph
    edge_facts: Dict[Tuple[str, str], F] = field(default_factory=dict)
    out_facts: Dict[str, F] = field(default_factory=dict)

    def fact_out_of(self, node_id: str) -> F:
        return self.out_facts[node_id]

    def fact_into(self, node_id: str) -> Optional[F]:
        """The joined fact entering ``node_id`` (None for source nodes)."""
        incoming = [
            fact for (_, dst), fact in self.edge_facts.items() if dst == node_id
        ]
        if not incoming:
            return None
        result = incoming[0]
        return result


class DataflowAnalysis(Generic[F]):
    """A forward dataflow pass: boundary fact, transfer, join.

    Subclasses define the fact type ``F`` and override the three hooks.
    Facts should be immutable (frozen dataclasses): the engine reuses
    them freely across edges.
    """

    def boundary(self, node: PlanNode) -> F:
        """The fact flowing out of a source node."""
        raise NotImplementedError

    def transfer(self, node: PlanNode, fact: F) -> F:
        """The fact flowing out of ``node`` given the joined input fact."""
        raise NotImplementedError

    def join(self, facts: List[F]) -> F:
        """Combine facts at a fan-in (default: single-predecessor only)."""
        if len(facts) != 1:
            raise NotImplementedError(
                f"{type(self).__name__} does not define join() but the"
                f" graph has a {len(facts)}-way confluence"
            )
        return facts[0]


def run_dataflow(graph: PlanGraph, analysis: DataflowAnalysis[F]) -> DataflowResult[F]:
    """Propagate ``analysis`` facts through ``graph`` (single forward pass).

    The graph is acyclic (operators never feed backwards), so one
    topological sweep reaches the fixed point.
    """
    result: DataflowResult[F] = DataflowResult(graph)
    for node in graph.topological():
        predecessors = graph.predecessors(node.node_id)
        if not predecessors:
            out = analysis.boundary(node)
        else:
            incoming = [
                result.edge_facts[(pred.node_id, node.node_id)]
                for pred in predecessors
            ]
            joined = analysis.join(incoming)
            out = analysis.transfer(node, joined)
        result.out_facts[node.node_id] = out
        for succ in graph.successors(node.node_id):
            result.edge_facts[(node.node_id, succ.node_id)] = out
    return result
