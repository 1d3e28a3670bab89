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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.dsms.aggregates import Aggregate, AggregateRegistry
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.expr import (
    EvalContext,
    bind_group,
    bind_input,
    bind_tuple,
    compile_clause,
    compile_tuple,
    compile_update_value,
)
from repro.dsms.functions import FunctionRegistry
from repro.dsms.operators.base import Operator
from repro.dsms.parser.analyzer import AnalyzedQuery
from repro.streams.records import Record
from repro.streams.schema import StreamSchema


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
        self._registry = aggregates
        self._cost = cost_model
        self._account = account

        names = analyzed.group_by_names
        self._gb_index = {name: i for i, name in enumerate(names)}
        self._ordered_indices = tuple(self._gb_index[name] for name in analyzed.ordered_names)
        self._groups: Dict[Tuple[Any, ...], List[Aggregate]] = {}
        self._current_window: Optional[Tuple[Any, ...]] = None

        # Every clause is compiled here, once, against the plan-time
        # input schema (shadowing rule: see expr.bind_tuple).
        ast = analyzed.ast
        at_tuple = bind_tuple(analyzed.schema, names)
        at_group = bind_group(names)
        #: -> (group-by values, window id)
        self._group_key = compile_tuple(
            [item.expr for item in analyzed.group_by],
            bind_input(analyzed.schema),
            f"{account}:GROUP BY",
            self._ordered_indices,
        )
        self._where = compile_clause(ast.where, at_tuple, f"{account}:WHERE")
        self._aggregate_names = tuple(node.name for node in analyzed.aggregates)
        self._aggregate_args = tuple(
            compile_update_value(node, at_tuple, f"{account}:aggregate {node.slot}")
            for node in analyzed.aggregates
        )
        self._having = compile_clause(ast.having, at_group, f"{account}:HAVING")
        self._select = compile_tuple(
            [item.expr for item in ast.select], at_group, f"{account}:SELECT"
        )

        # ``key`` holds the tuple's own group-by values at tuple time, the
        # visited group's (with its ``aggregates``) at window close
        self._ctx = EvalContext(scalars.functions)
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

    def process_many(
        self, records: Iterable[Record], out: Optional[List[Record]] = None
    ) -> List[Record]:
        if out is None:
            out = []
        ctx, where, groups = self._ctx, self._where, self._groups
        group_key = self._group_key
        create, names = self._registry.create, self._aggregate_names
        arguments = self._aggregate_args
        current = self._current_window
        n_in = n_filtered = n_admitted = n_created = n_updates = 0
        try:
            for record in records:
                ctx.record = record
                key, window = group_key(ctx)
                ctx.key = key
                if window != current:
                    if current is not None:
                        # Into the caller's list at once: these rows
                        # must outlive an error later in the run.
                        out.extend(self._emit_window())
                        ctx.key = key  # the close visited other groups
                    self._current_window = current = window
                    self.obs_trace.emit(
                        "window_open", query=self.obs_query, window=list(window)
                    )
                n_in += 1
                if where is not None and not where(ctx):
                    n_filtered += 1
                    continue
                n_admitted += 1
                group = groups.get(key)
                if group is None:
                    group = groups[key] = [create(name) for name in names]
                    n_created += 1
                for argument, aggregate in zip(arguments, group):
                    aggregate.update(argument(ctx) if argument is not None else 1)
                    n_updates += 1
        finally:
            charge, account = self._cost.charge, self._account
            charge(account, "tuple_read", n_in)
            charge(account, "hash_probe", n_in)
            if where is not None:
                charge(account, "predicate_eval", n_in)
            charge(account, "hash_insert", n_created)
            charge(account, "aggregate_update", n_updates)
            ctx.settle_calls(charge, account)
            self.m_in.inc(n_in)
            self.m_filtered.inc(n_filtered)
            self.m_admitted.inc(n_admitted)
            self.m_groups_created.inc(n_created)
        return out

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
        self._groups = snapshot["groups"]
        self._current_window = snapshot["current_window"]

    def split_snapshot(
        self, snapshot: Any, column: str, route: Callable[[Any], int], src: int
    ) -> Dict[int, Any]:
        parts: Dict[int, Dict[Any, Any]] = {}
        index = self._gb_index.get(column)
        if index is None:
            return parts
        kept = {}
        for key, aggregates in snapshot["groups"].items():
            dest = route(key[index])
            if dest == src:
                kept[key] = aggregates
            else:
                parts.setdefault(dest, {})[key] = aggregates
        snapshot["groups"] = kept
        return parts

    def merge_snapshot(self, snapshot: Any, part: Any, window: Any) -> Tuple[int, int]:
        snapshot["groups"].update(part)
        if snapshot["current_window"] is None:
            snapshot["current_window"] = window
        return len(part), 0

    def _emit_window(self) -> List[Record]:
        outputs: List[Record] = []
        ctx, having, select = self._ctx, self._having, self._select
        charge, account = self._cost.charge, self._account
        charge(account, "window_flush")
        n_tested = n_rejected = 0
        try:
            for key, aggregates in self._groups.items():
                ctx.key = key
                ctx.aggregates = aggregates
                if having is not None:
                    n_tested += 1
                    if not having(ctx):
                        n_rejected += 1
                        continue
                outputs.append(Record(self.output_schema, select(ctx)))
        finally:
            # Settled per window, not per group; a close that raises has
            # charged the groups it visited, the failing one included.
            charge(account, "predicate_eval", n_tested)
            charge(account, "output_tuple", len(outputs))
            ctx.settle_calls(charge, account)
            self.m_having_rejected.inc(n_rejected)
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
