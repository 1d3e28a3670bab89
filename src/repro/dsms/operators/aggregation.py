"""Windowed GROUP BY aggregation operator.

The conventional (non-sampling) aggregation path: groups accumulate UDAF
state within a window; when any ordered group-by variable changes value
(paper §3: window boundaries derive from ordered-attribute references),
all groups are finalized, HAVING-filtered and emitted.

This operator doubles as the exact baseline for the accuracy experiments:
Fig 2's "actual" series is a plain ``sum(len)`` aggregation over 20-second
windows run next to the sampling query.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.dsms.aggregates import Aggregate, AggregateRegistry
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.expr import (
    AggregateCall,
    EvalContext,
    bind_group,
    bind_input,
    bind_tuple,
    compile_clause,
    compile_tuple,
    compile_update_value,
    pick,
)
from repro.dsms.functions import FunctionRegistry
from repro.dsms.operators.base import Operator
from repro.dsms.parser.analyzer import AnalyzedQuery
from repro.streams.records import Record
from repro.streams.schema import StreamSchema


class _AggContext(EvalContext):
    """What the compiled clauses read: the input record and, in ``key``,
    the group-by values in scope — the tuple's own at tuple time, the
    visited group's (with its ``aggregates``) at window close."""

    def __init__(self, operator: "AggregationOperator") -> None:
        self._op = operator
        self.record: Optional[Record] = None
        self.key: Tuple[Any, ...] = ()
        self.aggregates: List[Aggregate] = []

    def call_scalar(self, name: str, args: Sequence[Any]) -> Any:
        self._op._cost.charge(self._op._account, "function_call")
        return self._op._scalars.call(name, args)

    def aggregate_value(self, node: AggregateCall) -> Any:
        return self.aggregates[node.slot].value()


class AggregationOperator(Operator):
    """Plain windowed grouping and aggregation."""

    kind_label = "aggregation"

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        output_schema: StreamSchema,
        scalars: FunctionRegistry,
        aggregates: AggregateRegistry,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "aggregation",
    ) -> None:
        if analyzed.kind != "aggregation":
            raise ExecutionError(
                f"AggregationOperator built from a {analyzed.kind!r} query"
            )
        self.analyzed = analyzed
        self.output_schema = output_schema
        self._scalars = scalars
        self._registry = aggregates
        self._cost = cost_model
        self._account = account

        names = analyzed.group_by_names
        self._gb_index = {name: i for i, name in enumerate(names)}
        self._ordered_indices = tuple(
            list(self._gb_index[name] for name in analyzed.ordered_names)
        )
        self._groups: Dict[Tuple[Any, ...], List[Aggregate]] = {}
        self._current_window: Optional[Tuple[Any, ...]] = None

        # Every clause is compiled here, once, against the plan-time
        # input schema (shadowing rule: see expr.bind_tuple).
        ast = analyzed.ast
        at_tuple = bind_tuple(analyzed.schema, names)
        at_group = bind_group(names)
        self._group_key = compile_tuple(
            [item.expr for item in analyzed.group_by], bind_input(analyzed.schema)
        )
        self._window_of = pick(self._ordered_indices)
        self._where = compile_clause(ast.where, at_tuple)
        self._aggregate_args = tuple(
            compile_update_value(node, at_tuple) for node in analyzed.aggregates
        )
        self._having = compile_clause(ast.having, at_group)
        self._select = compile_tuple([item.expr for item in ast.select], at_group)

        self._ctx = _AggContext(self)
        self._default_obs(account)

    def _bind_series(self) -> None:
        super()._bind_series()
        common = {"query": self.obs_query, "operator": self.kind_label}
        m = self.obs_metrics
        self.m_admitted = m.counter(
            "operator_tuples_admitted_total",
            help="tuples that passed WHERE and fed a group",
            **common,
        )
        self.m_windows = m.counter(
            "operator_windows_total", help="windows closed", **common
        )
        self.m_groups_created = m.counter(
            "operator_groups_created_total", help="group-table inserts", **common
        )
        self.m_having_rejected = m.counter(
            "operator_having_rejected_total",
            help="groups rejected by HAVING at window close",
            **common,
        )

    def process(self, record: Record) -> List[Record]:
        ctx = self._ctx
        ctx.record = record
        ctx.key = gb_values = self._group_key(ctx)
        window = self._window_of(gb_values)

        outputs: List[Record] = []
        if self._current_window is None:
            self._current_window = window
            self.obs_trace.emit(
                "window_open", query=self.obs_query, window=list(window)
            )
        elif window != self._current_window:
            outputs = self._emit_window()
            self._current_window = window
            self.obs_trace.emit(
                "window_open", query=self.obs_query, window=list(window)
            )
            ctx.key = gb_values  # the window close visited other groups

        charge, account = self._cost.charge, self._account
        charge(account, "tuple_read")
        charge(account, "hash_probe")
        self.m_in.inc()
        if self._where is not None:
            charge(account, "predicate_eval")
            if not self._where(ctx):
                self.m_filtered.inc()
                return outputs
        self.m_admitted.inc()

        group = self._groups.get(gb_values)
        if group is None:
            group = [self._registry.create(node.name) for node in self.analyzed.aggregates]
            self._groups[gb_values] = group
            charge(account, "hash_insert")
            self.m_groups_created.inc()
        for argument, aggregate in zip(self._aggregate_args, group):
            aggregate.update(argument(ctx) if argument is not None else 1)
            charge(account, "aggregate_update")
        return outputs

    def flush(self) -> List[Record]:
        if self._current_window is None:
            return []
        outputs = self._emit_window()
        self._current_window = None
        return outputs

    def checkpoint(self) -> Any:
        """Snapshot the open window: group table plus current window id.

        Aggregate instances are module-level classes holding plain
        accumulator fields, so a deepcopy is both decoupled from the live
        table and picklable across the worker/parent boundary.
        """
        return {
            "groups": copy.deepcopy(self._groups),
            "current_window": self._current_window,
        }

    def restore(self, snapshot: Any) -> None:
        self._groups = copy.deepcopy(snapshot["groups"])
        self._current_window = snapshot["current_window"]

    def _emit_window(self) -> List[Record]:
        outputs: List[Record] = []
        ctx, having, select = self._ctx, self._having, self._select
        charge, account = self._cost.charge, self._account
        charge(account, "window_flush")
        for key, aggregates in self._groups.items():
            ctx.key = key
            ctx.aggregates = aggregates
            if having is not None:
                charge(account, "predicate_eval")
                if not having(ctx):
                    self.m_having_rejected.inc()
                    continue
            outputs.append(Record(self.output_schema, select(ctx)))
            charge(account, "output_tuple")
        self.m_windows.inc()
        self.m_rows_out.inc(len(outputs))
        self.obs_trace.emit(
            "window_close",
            query=self.obs_query,
            window=list(self._current_window or ()),
            rows_out=len(outputs),
        )
        self._groups.clear()
        return outputs
