"""Query-plan explanation: the EXPLAIN of this miniature DSMS.

``explain(plan)`` renders a human-readable description of a compiled
query — operator kind, window variables, supergroup key, aggregate and
superaggregate slots, required SFUN states, and the output schema — the
information an operator engineer needs to predict cost and verify that
the analyzer understood the query as intended.

``explain_instance(gigascope)`` renders the whole query DAG of a runtime
instance, including the auto-inserted low-level feeders and per-node cost
accounts when a cost model is attached.
"""

from __future__ import annotations

from typing import List

from repro.dsms.parser.planner import QueryPlan


def explain(plan: QueryPlan) -> str:
    """One compiled query, rendered."""
    lines: List[str] = []
    analyzed = plan.analyzed
    lines.append(f"Query kind : {plan.kind}")
    lines.append(f"Source     : {analyzed.ast.from_stream}")
    lines.append(
        "Output     : "
        + ", ".join(
            f"{attr.name}{' [ordered]' if attr.ordering.is_ordered else ''}"
            for attr in plan.output_schema
        )
    )
    if analyzed.ast.where is not None:
        lines.append(f"WHERE      : {analyzed.ast.where}")

    if plan.kind in ("selection", "stateful_selection"):
        if analyzed.state_names:
            lines.append(f"States     : {', '.join(analyzed.state_names)} (global)")
        return "\n".join(lines)

    lines.append(
        "Group by   : "
        + ", ".join(f"{item.name} = {item.expr}" for item in analyzed.group_by)
    )
    lines.append(
        "Window     : ("
        + ", ".join(analyzed.ordered_names)
        + ") — output on change"
    )
    if plan.kind == "sampling":
        spec = plan.sampling
        assert spec is not None
        lines.append(
            "Supergroup : ("
            + ", ".join(analyzed.supergroup_names)
            + ")"
        )
        if spec.aggregates:
            lines.append(
                "Aggregates : "
                + ", ".join(
                    f"[{node.slot}] {node}" for node in spec.aggregates
                )
            )
        if spec.superaggregates:
            lines.append(
                "Superaggs  : "
                + ", ".join(
                    f"[{sa.slot}] {sa.name}$({sa.value_expr}"
                    + (
                        ", " + ", ".join(map(str, sa.const_args))
                        if sa.const_args
                        else ""
                    )
                    + f") <{sa.feeds}-fed>"
                    for sa in spec.superaggregates
                )
            )
        if spec.state_names:
            lines.append(
                "States     : "
                + ", ".join(spec.state_names)
                + " (one per supergroup, carried across windows)"
            )
        if spec.cleaning_when is not None:
            lines.append(f"Clean when : {spec.cleaning_when}")
            lines.append(f"Clean by   : {spec.cleaning_by} (FALSE evicts)")
        if spec.having is not None:
            lines.append(f"HAVING     : {spec.having}")
    else:  # aggregation
        if analyzed.aggregates:
            lines.append(
                "Aggregates : "
                + ", ".join(f"[{node.slot}] {node}" for node in analyzed.aggregates)
            )
        if analyzed.ast.having is not None:
            lines.append(f"HAVING     : {analyzed.ast.having}")
    return "\n".join(lines)


def explain_instance(gigascope) -> str:
    """The whole query DAG of a runtime instance."""
    lines: List[str] = []
    for handle in gigascope.query_handles():
        cycles = gigascope.cost.cycles(handle.name)
        suffix = f"  [{cycles:,} cycles]" if cycles else ""
        lines.append(
            f"{handle.level:>4}  {handle.name}  <- {handle.source}"
            f"  ({type(handle.operator).__name__}){suffix}"
        )
    return "\n".join(lines)
