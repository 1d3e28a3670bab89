"""Selection (and stateful selection) operators.

A selection query has no GROUP BY: it filters tuples with WHERE and
projects the SELECT list.  The *stateful* variant additionally carries a
single global SFUN state set, which is how the paper's baseline runs
"basic subset-sum sampling using a user-defined function in a selection
operator" (§7.2) and how low-level prefilter queries work (Fig 6).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.expr import EvalContext
from repro.dsms.functions import FunctionRegistry
from repro.dsms.node import emit_node
from repro.dsms.operators.base import Operator
from repro.dsms.parser.analyzer import AnalyzedQuery
from repro.dsms.stateful import StatefulLibrary
from repro.streams.schema import StreamSchema


class SelectionOperator(Operator):
    """Plain WHERE + SELECT over a stream.

    The run entry — WHERE and the SELECT list written into one loop
    (repro.dsms.node) — is generated against the plan-time input schema
    when the operator is built; a record costs the functions its
    expressions call and the output ``Record``.
    """

    kind_label = "selection"

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        output_schema: StreamSchema,
        scalars: FunctionRegistry,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "selection",
    ) -> None:
        self.analyzed = analyzed
        self.output_schema = output_schema
        self._cost = cost_model
        self._account = account
        self._ctx = EvalContext(scalars.functions)  # a stateful one adds SFUNs and states
        self._forwards = False
        self._default_obs(account)
        emit_node(self, account, analyzed)

    def forward_input(self) -> None:
        """Emit input records as they are — read, counted and charged as
        before, never re-wrapped under this query's schema.  For the
        runtime's own pass-through feeder, whose rows nobody retains and
        whose children read by position; a user's identity projection
        keeps re-wrapping (its rows' ``schema`` shows in equality,
        ``repr`` and journal bytes)."""
        self._forwards = True


class StatefulSelectionOperator(SelectionOperator):
    """Selection whose WHERE calls SFUNs against one global state set.

    The state persists for the life of the operator (there are no windows
    in a selection query), mirroring a UDF-with-static-state inside the
    Gigascope selection operator.
    """

    kind_label = "stateful_selection"

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        output_schema: StreamSchema,
        scalars: FunctionRegistry,
        stateful: StatefulLibrary,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "stateful_selection",
    ) -> None:
        super().__init__(analyzed, output_schema, scalars, cost_model, account)
        self._stateful = stateful
        self.states = stateful.instantiate_states(analyzed.state_names)
        self._ctx.sfuns, self._ctx.states = stateful.functions, self.states

    def checkpoint(self, since: Optional[Dict[str, int]] = None) -> Any:
        """Snapshot the global SFUN state set by state *name* (the state
        classes are closure-local and unpicklable — see
        ``StatefulState.checkpoint``)."""
        return {"states": self._stateful.checkpoint_states(self.states)}

    def restore(self, snapshot: Any) -> None:
        self.states = self._ctx.states = self._stateful.restore_states(snapshot["states"])
