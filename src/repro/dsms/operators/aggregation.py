"""Windowed GROUP BY aggregation operator.

The conventional (non-sampling) aggregation path: groups accumulate UDAF
state within a window; when any ordered group-by variable changes value
(paper §3: window boundaries derive from ordered-attribute references),
all groups are finalized, HAVING-filtered and emitted — unless the new
window id orders before the open one or cannot be ordered against it:
that tuple is late or incomparable, and is counted and dropped
(``Operator._late``, the sampling operator's policy).

This operator doubles as the exact baseline for the accuracy experiments:
Fig 2's "actual" series is a plain ``sum(len)`` aggregation over 20-second
windows run next to the sampling query.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.dsms.aggregates import AggregateRegistry, Layout, checkpoint_cells, restore_cells
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.expr import EvalContext
from repro.dsms.functions import FunctionRegistry
from repro.dsms.node import emit_node, in_place
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
        self._cost = cost_model
        self._account = account

        names = analyzed.group_by_names
        self._gb_index = {name: i for i, name in enumerate(names)}
        self._ordered_indices = tuple(self._gb_index[name] for name in analyzed.ordered_names)
        #: group key -> its aggregates' cells (``self._layout``)
        self._groups: Dict[Tuple[Any, ...], List[Any]] = {}
        self._current_window: Optional[Tuple[Any, ...]] = None

        # The run entry and the window close are generated
        # (repro.dsms.node), here, once, against the plan-time input schema
        # (shadowing rule: see expr.bind_tuple).
        self._layout = Layout(aggregates, [node.name for node in analyzed.aggregates])
        self._ctx = EvalContext(scalars.functions)
        self._default_obs(account)
        emit_node(self, account, analyzed, self._layout, forms=in_place(self._layout))

    def _bind_series(self) -> None:
        super()._bind_series()
        self._bind_window_series(query=self.obs_query, operator=self.kind_label)

    def _open_window(self, window: Tuple[Any, ...]) -> None:
        self._current_window = window
        self.obs_trace.emit("window_open", query=self.obs_query, window=list(window))

    def flush(self) -> List[Record]:
        if self._current_window is None:
            return []
        outputs = self._emit_window()
        self._current_window = None
        return outputs

    def checkpoint(self, since: Optional[Dict[str, int]] = None) -> Any:
        """The open window: group table, as columns over the live cells
        (``checkpoint_cells``, see ``Operator.checkpoint``), plus current
        window id."""
        return {
            "groups": checkpoint_cells(self._groups, self._layout),
            "current_window": self._current_window,
        }

    def restore(self, snapshot: Any) -> None:
        self._groups = restore_cells(snapshot["groups"], self._layout)
        self._current_window = snapshot["current_window"]
