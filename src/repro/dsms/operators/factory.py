"""Plan -> operator construction."""

from __future__ import annotations

from repro.errors import PlanningError
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.operators.aggregation import AggregationOperator
from repro.dsms.operators.base import Operator
from repro.dsms.operators.selection import SelectionOperator, StatefulSelectionOperator
from repro.dsms.parser.planner import QueryPlan
from repro.core.sampling_operator import SamplingOperator


def build_operator(
    plan: QueryPlan,
    cost_model: CostModel = NULL_COST_MODEL,
    account: str = "query",
    vectorize: bool = False,
) -> Operator:
    """Instantiate the executable operator for a planned query.

    With ``vectorize``, selection and plain-aggregation plans get the
    columnar batch operators (``repro.dsms.vectorized``); a plan the
    batch compiler cannot express falls back to the tuple operator and
    records why in ``operator.vectorize_fallback``.  Sampling and
    stateful-selection plans always take the tuple path — SFUN state is
    inherently per-tuple.
    """
    registries = plan.registries
    operator: Operator
    if vectorize and plan.kind in ("selection", "aggregation"):
        vectorized = _try_vectorized(plan, cost_model, account)
        if isinstance(vectorized, Operator):
            return vectorized
        fallback_reason = vectorized
    else:
        fallback_reason = None
    if plan.kind == "selection":
        operator = SelectionOperator(
            plan.analyzed, plan.output_schema, registries.scalars, cost_model, account
        )
    elif plan.kind == "stateful_selection":
        operator = StatefulSelectionOperator(
            plan.analyzed,
            plan.output_schema,
            registries.scalars,
            registries.stateful,
            cost_model,
            account,
        )
    elif plan.kind == "aggregation":
        operator = AggregationOperator(
            plan.analyzed,
            plan.output_schema,
            registries.scalars,
            registries.aggregates,
            cost_model,
            account,
        )
    elif plan.kind == "sampling":
        assert plan.sampling is not None
        operator = SamplingOperator(
            plan.sampling,
            registries.scalars,
            registries.stateful,
            registries.aggregates,
            registries.superaggregates,
            cost_model=cost_model,
            account=account,
        )
    else:
        raise PlanningError(f"unknown plan kind {plan.kind!r}")
    if fallback_reason is not None:
        operator.vectorize_fallback = fallback_reason
    return operator


def _try_vectorized(plan: QueryPlan, cost_model: CostModel, account: str):
    """A vectorized operator for the plan, or the fallback reason string."""
    from repro.dsms.vectorized import (
        UnsupportedExpression,
        VectorizedAggregationOperator,
        VectorizedSelectionOperator,
    )

    registries = plan.registries
    try:
        if plan.kind == "selection":
            return VectorizedSelectionOperator(
                plan.analyzed,
                plan.output_schema,
                registries.scalars,
                cost_model,
                account,
            )
        return VectorizedAggregationOperator(
            plan.analyzed,
            plan.output_schema,
            registries.scalars,
            registries.aggregates,
            cost_model,
            account,
        )
    except UnsupportedExpression as exc:
        return str(exc)
