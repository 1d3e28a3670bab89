"""Planner: turn an analyzed query into an executable specification.

The planner's jobs:

* split group-by variables into window (ordered) / supergroup / plain
  index sets the operator can evaluate positionally;
* resolve each superaggregate into a factory call specification (value
  expression + constant arguments) and determine its feeding discipline
  by instantiating a prototype;
* derive the output stream schema from the SELECT list (the first
  selected ordered group-by variable keeps its ``increasing`` marker so
  downstream queries can window on it);
* choose the operator kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import PlanningError
from repro.dsms.expr import (
    AggregateCall,
    ColumnRef,
    Expr,
    Literal,
    Star,
    SuperAggregateCall,
    column_names,
)
from repro.dsms.parser.analyzer import AnalyzedQuery, Registries, analyze
from repro.dsms.parser.ast import GroupByItem, QueryAst, SelectItem
from repro.dsms.parser.parser import parse_query
from repro.streams.schema import Attribute, Ordering, StreamSchema


@dataclass(frozen=True)
class SuperAggSpec:
    """Instantiation recipe for one superaggregate slot."""

    name: str
    value_expr: Expr
    const_args: Tuple[Any, ...]
    feeds: str  # "group" | "tuple"
    slot: int


@dataclass
class SamplingSpec:
    """Everything the sampling operator needs to run one query."""

    analyzed: AnalyzedQuery
    select_items: Tuple[SelectItem, ...]
    where: Optional[Expr]
    having: Optional[Expr]
    cleaning_when: Optional[Expr]
    cleaning_by: Optional[Expr]
    group_by: Tuple[GroupByItem, ...]
    ordered_indices: Tuple[int, ...]
    supergroup_indices: Tuple[int, ...]
    nonordered_supergroup_indices: Tuple[int, ...]
    aggregates: Tuple[AggregateCall, ...]
    superaggregates: Tuple[SuperAggSpec, ...]
    state_names: Tuple[str, ...]
    output_schema: StreamSchema

    @property
    def group_by_names(self) -> Tuple[str, ...]:
        return tuple(item.name for item in self.group_by)


@dataclass
class QueryPlan:
    """A planned query, ready for operator construction.

    ``annotations`` carries analysis results attached after planning —
    the sampling-soundness pass stores its per-edge facts and estimator
    verdicts under ``"sampling"`` (see
    :func:`repro.analysis.sampling_algebra.analyze_sampling`) so later
    layers can read them without re-running the analysis.
    """

    kind: str  # "sampling" | "aggregation" | "selection" | "stateful_selection"
    analyzed: AnalyzedQuery
    sampling: Optional[SamplingSpec]
    output_schema: StreamSchema
    registries: Registries
    annotations: Dict[str, Any] = field(default_factory=dict)


_OUTPUT_NAME_FALLBACK = "col{index}"


def _output_schema(
    query_name: str,
    select_items: Sequence[SelectItem],
    ordered_names: Sequence[str],
) -> StreamSchema:
    attributes: List[Attribute] = []
    used: set = set()
    ordered_marked = False
    for index, item in enumerate(select_items):
        if item.alias:
            name = item.alias
        elif isinstance(item.expr, ColumnRef):
            name = item.expr.name
        else:
            name = _OUTPUT_NAME_FALLBACK.format(index=index)
        base, suffix = name, 1
        while name in used:
            suffix += 1
            name = f"{base}_{suffix}"
        used.add(name)
        ordering = Ordering.NONE
        if (
            not ordered_marked
            and isinstance(item.expr, ColumnRef)
            and item.expr.name in ordered_names
        ):
            ordering = Ordering.INCREASING
            ordered_marked = True
        attributes.append(Attribute(name, "int", ordering))
    return StreamSchema(query_name, attributes)


def _superagg_specs(
    analyzed: AnalyzedQuery, registries: Registries
) -> Tuple[SuperAggSpec, ...]:
    specs: List[SuperAggSpec] = []
    group_by_names = set(analyzed.group_by_names)
    for node in analyzed.superaggregates:
        # The paper writes both count_distinct$(*) and count_distinct$():
        # an empty argument list means "no per-group value", i.e. Star.
        value_expr = node.args[0] if node.args else Star()
        const_args: List[Any] = []
        for arg in node.args[1:]:
            if not isinstance(arg, Literal):
                raise PlanningError(
                    f"superaggregate {node.name}$: arguments after the first"
                    f" must be constants, got {arg}"
                )
            const_args.append(arg.value)
        prototype = registries.superaggregates.create(node.name, const_args)
        if prototype.feeds == "group" and not isinstance(value_expr, Star):
            bad = [c for c in column_names(value_expr) if c not in group_by_names]
            if bad:
                raise PlanningError(
                    f"group-fed superaggregate {node.name}$ may only reference"
                    f" group-by variables; {bad} are not"
                )
        specs.append(
            SuperAggSpec(
                name=node.name,
                value_expr=value_expr,
                const_args=tuple(const_args),
                feeds=prototype.feeds,
                slot=node.slot,
            )
        )
    return tuple(specs)


def plan(analyzed: AnalyzedQuery, registries: Registries, query_name: str = "Q") -> QueryPlan:
    """Build a :class:`QueryPlan` from an analyzed query."""
    if analyzed.kind in ("selection", "stateful_selection"):
        # A selection passes source columns through unchanged, so ordered
        # attributes of the source stay ordered in the output (downstream
        # queries window on them — e.g. the auto-inserted low-level feeder).
        source_ordered = [a.name for a in analyzed.schema.ordered_attributes()]
        output_schema = _output_schema(
            query_name, analyzed.ast.select, source_ordered
        )
        return QueryPlan(
            kind=analyzed.kind,
            analyzed=analyzed,
            sampling=None,
            output_schema=output_schema,
            registries=registries,
        )

    output_schema = _output_schema(
        query_name, analyzed.ast.select, analyzed.ordered_names
    )

    group_by_names = list(analyzed.group_by_names)
    ordered_indices = tuple(
        group_by_names.index(name) for name in analyzed.ordered_names
    )
    supergroup_indices = tuple(
        group_by_names.index(name) for name in analyzed.supergroup_names
    )
    nonordered = tuple(
        group_by_names.index(name)
        for name in analyzed.supergroup_names
        if name not in analyzed.ordered_names
    )

    spec = SamplingSpec(
        analyzed=analyzed,
        select_items=analyzed.ast.select,
        where=analyzed.ast.where,
        having=analyzed.ast.having,
        cleaning_when=analyzed.ast.cleaning_when,
        cleaning_by=analyzed.ast.cleaning_by,
        group_by=analyzed.group_by,
        ordered_indices=ordered_indices,
        supergroup_indices=supergroup_indices,
        nonordered_supergroup_indices=nonordered,
        aggregates=analyzed.aggregates,
        superaggregates=_superagg_specs(analyzed, registries),
        state_names=analyzed.state_names,
        output_schema=output_schema,
    )
    return QueryPlan(
        kind=analyzed.kind,
        analyzed=analyzed,
        sampling=spec,
        output_schema=output_schema,
        registries=registries,
    )


# ---------------------------------------------------------------------------
# Partition-key inference (sharded execution support)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionInfo:
    """How one planned query constrains hash-partitioned execution.

    The sharded runtime splits a source stream across shards by hashing
    one *partition column*; a query is shard-safe when every pair of
    tuples that can interact through operator state lands on the same
    shard.  ``candidates`` are the source-column names that guarantee
    this for the query (``None`` means the query is stateless across
    partitions and accepts any partition column; an empty tuple means
    the query cannot be sharded at all — ``reason`` says why).

    ``passthrough`` lists output columns that remain *colocated* after
    this query: if the stream is partitioned on column ``c`` and ``c``
    is in ``passthrough``, all output rows sharing a ``c`` value are
    produced on one shard, so a downstream query may partition on it.
    """

    candidates: Optional[Tuple[str, ...]]
    passthrough: Tuple[str, ...]
    reason: str = ""


def _identity_output_names(select_items: Sequence[SelectItem]) -> List[str]:
    """Output columns that are a bare source column under its own name."""
    names = []
    for item in select_items:
        if isinstance(item.expr, ColumnRef) and (
            item.alias is None or item.alias == item.expr.name
        ):
            names.append(item.expr.name)
    return names


def _bare_nonordered_groupby(
    items: Sequence[GroupByItem], ordered_names: Sequence[str]
) -> List[str]:
    """Non-ordered group-by variables defined as a bare source column."""
    return [
        item.name
        for item in items
        if item.name not in ordered_names
        and isinstance(item.expr, ColumnRef)
        and item.expr.name == item.name
    ]


def partition_info(plan: QueryPlan) -> PartitionInfo:
    """Derive the sharding constraints of one planned query.

    The rules follow where operator state lives:

    * **selection** — stateless per tuple: unconstrained.
    * **stateful selection** — one global SFUN state set: cannot shard.
    * **aggregation** — state per group: any non-ordered bare-column
      group-by variable keeps each group shard-local.
    * **sampling** with SFUN states or superaggregates — state per
      supergroup: a non-ordered bare-column *supergroup* variable is
      required (all of a supergroup's tuples must share a shard).
    * **sampling** without shared state — falls back to the aggregation
      rule (groups are then independent).
    """
    analyzed = plan.analyzed
    select_passthrough = _identity_output_names(analyzed.ast.select)
    if plan.kind == "selection":
        return PartitionInfo(None, tuple(select_passthrough))
    if plan.kind == "stateful_selection":
        return PartitionInfo(
            (),
            (),
            "a stateful selection keeps one global SFUN state set, so its"
            " tuples cannot be split across shards; run it serially or"
            " rewrite it as a sampling query with a SUPERGROUP",
        )

    group_candidates = _bare_nonordered_groupby(
        analyzed.group_by, analyzed.ordered_names
    )
    # Grouped output columns stay colocated only when they are group-by
    # variables (each output row inherits its group's value).
    passthrough = tuple(
        name for name in select_passthrough if name in group_candidates
    )

    spec = plan.sampling
    if spec is not None and (spec.state_names or spec.superaggregates):
        supergroup_items = [spec.group_by[i] for i in spec.nonordered_supergroup_indices]
        candidates = _bare_nonordered_groupby(
            supergroup_items, analyzed.ordered_names
        )
        reason = (
            "sampling state (SFUN states / superaggregates) is shared per"
            " supergroup, and the supergroup has no non-ordered bare-column"
            " variable to hash-partition on; add one, e.g."
            " SUPERGROUP BY <window var>, <key column>"
        )
    else:
        candidates = group_candidates
        reason = (
            "no non-ordered bare-column GROUP BY variable to hash-partition"
            " on; every shard would emit its own partial row per window"
        )
    return PartitionInfo(tuple(candidates), passthrough, reason if not candidates else "")


def compile_query(text: str, registries: Registries, query_name: str = "Q") -> QueryPlan:
    """Parse, analyze and plan a query text in one call."""
    ast = parse_query(text)
    analyzed = analyze(ast, registries)
    assert analyzed is not None  # raise mode always returns or raises
    return plan(analyzed, registries, query_name=query_name)
