"""The generic stream-sampling operator (paper §5 and §6.4).

Per-tuple evaluation, in the paper's order:

1. Evaluate the group-by expressions; the ordered ones form the window id.
   A change of window id closes the window: states get their
   ``on_window_final`` signal, HAVING filters the groups, survivors are
   emitted, tables are cleared and the new supergroup table becomes the
   old one.
2. Find or create the tuple's supergroup.  A new supergroup's SFUN states
   are initialised from the matching old-window supergroup when one
   exists (window-to-window carryover, e.g. the subset-sum threshold).
3. Evaluate WHERE (which may call SFUNs and read superaggregates).  FALSE
   discards the tuple.
4. Update tuple-fed superaggregates; find or create the group and update
   its aggregates; register new groups with group-fed superaggregates.
5. Evaluate CLEANING WHEN against the supergroup.  If TRUE, run a
   cleaning phase: evaluate CLEANING BY on every group of the supergroup
   and evict the groups for which it is FALSE (updating superaggregates).

The operator never blocks: output is produced at window boundaries (and
by :meth:`flush` for the trailing window).

Deviation note (documented in DESIGN.md): §6.4's prose contains a typo —
"If the condition evaluates to FALSE, then delete the group" appears
attached to CLEANING WHEN; deleting the current group whenever the
cleaning trigger is false would delete every group on every tuple.  We
follow §5's unambiguous statement: during a cleaning phase a group is
removed when **CLEANING BY evaluates to FALSE**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.aggregates import AggregateRegistry, Layout, checkpoint_cells, restore_cells
from repro.dsms.durability import Appended
from repro.dsms.expr import EvalContext
from repro.dsms.fields import set_fields
from repro.dsms.functions import FunctionRegistry
from repro.dsms.node import emit_node, in_place
from repro.dsms.operators.base import Operator
from repro.dsms.parser.planner import SamplingSpec
from repro.dsms.stateful import StatefulLibrary
from repro.core.group_tables import GroupTables, SuperGroupEntry
from repro.core.superaggregates import SuperAggregateRegistry
from repro.streams.records import Record


@dataclass(slots=True)
class WindowStats:
    """Per-window observability counters (back the accuracy figures).
    Bumped per record, so slotted (repro.dsms.fields)."""

    __setstate__ = set_fields

    window: Tuple[Any, ...]
    tuples_seen: int = 0
    tuples_admitted: int = 0
    groups_created: int = 0
    groups_evicted: int = 0
    cleaning_phases: int = 0
    output_tuples: int = 0
    #: Tuples whose window id ordered *before* the current window: they
    #: arrive after their window already closed and are dropped (the
    #: standard DSMS policy for streams whose ordered attribute is only
    #: approximately monotone; Gigascope marks time `increasing` and
    #: assumes the NIC delivers it that way).
    late_tuples: int = 0
    #: Tuples whose window id could not be compared with the current one
    #: (a ``TypeError``, e.g. a malformed string timestamp in an integer
    #: feed).  They are counted and dropped; treating them as a window
    #: change would destroy all in-window sampling state.
    incomparable_tuples: int = 0
    #: Tuples the runtime refused at admission during this window because
    #: their second of stream time had used up the load-shed threshold
    #: (the paper's drop-under-overload behavior, §1/§7, made deliberate
    #: and observable instead of arbitrary packet loss).
    shed_tuples: int = 0
    #: Tuples the runtime dead-lettered at admission during this window
    #: because they failed schema validation/coercion (malformed or
    #: corrupt input routed to the quarantine stream instead of raising
    #: mid-query).  Like shed tuples, they never reached the operator.
    quarantined_tuples: int = 0
    #: High-water mark of the group table during the window — the memory
    #: figure the paper's §8 flow-sampling discussion is about.
    peak_groups: int = 0


class SamplingOperator(Operator):
    """Executable instance of one sampling query."""

    kind_label = "sampling"

    def __init__(
        self,
        spec: SamplingSpec,
        scalars: FunctionRegistry,
        stateful: StatefulLibrary,
        aggregates: AggregateRegistry,
        superaggregates: SuperAggregateRegistry,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "sampling",
    ) -> None:
        self.spec = spec
        self._stateful = stateful
        self._superaggregates = superaggregates
        self._cost = cost_model
        self._account = account

        self.output_schema = spec.output_schema
        self._tables = GroupTables()
        self._current_window: Optional[Tuple[Any, ...]] = None
        self._window_stats: List[WindowStats] = []
        self._active_stats: Optional[WindowStats] = None
        #: shed tuples reported before any window is open (folded into the
        #: next window's stats)
        self._pending_shed = 0
        #: likewise for tuples dead-lettered at admission
        self._pending_quarantined = 0

        # The whole plan is fixed here, once: the run entry and the window
        # close are generated (repro.dsms.node) against the plan-time input
        # schema (shadowing rule: see expr.bind_tuple).  What their clauses
        # read: ``group`` is the visited group's list (its supergroup key,
        # then its aggregates' cells: ``self._layout``), and ``states`` and
        # ``superaggregates`` its supergroup's, taken from the tables as a
        # run goes, so ``restore()`` needs no recompiling.
        #: with no SUPERGROUP BY beyond the window, a window has one
        #: supergroup: a run looks it up, and binds its SFUNs, once per
        #: window, not per record
        self._holds_supergroup = not spec.nonordered_supergroup_indices
        self._layout = Layout(aggregates, [node.name for node in spec.aggregates], ["sgkey"])
        forms = in_place(
            self._layout,
            [type(superaggregates.create(sa.name, sa.const_args)) for sa in spec.superaggregates],
        )
        self._ctx = EvalContext(scalars.functions, stateful.functions)
        self._default_obs(account)
        emit_node(self, account, spec.analyzed, self._layout, spec, forms)

    # -- observability -----------------------------------------------------------
    #
    # Conservation identity (docs/OBSERVABILITY.md):
    #   in == filtered + admitted + late + incomparable
    #   groups_created == rows_out + groups_evicted + having_rejected

    def _bind_series(self) -> None:
        super()._bind_series()
        common = {"query": self.obs_query, "operator": self.kind_label}
        self._bind_window_series(**common)
        counter = self.obs_metrics.counter
        self.m_shed = counter(
            "operator_shed_tuples_total", **common,
            help="tuples shed upstream at admission (never reached process)")
        self.m_quarantined = counter(
            "operator_quarantined_tuples_total", **common,
            help="tuples dead-lettered upstream at admission (malformed)")
        self.m_groups_evicted = counter(
            "operator_groups_evicted_total", **common,
            help="groups evicted by CLEANING BY during cleaning phases")
        self.m_cleaning_phases = counter(
            "operator_cleaning_phases_total", **common,
            help="cleaning phases triggered by CLEANING WHEN")
        self.m_carryover = counter(
            "operator_supergroup_carryover_total", **common,
            help="supergroups whose SFUN states carried over from the old window")
        self.g_peak_groups = self.obs_metrics.gauge(
            "operator_peak_groups", **common, help="high-water mark of the group table")

    # -- public API -------------------------------------------------------------

    def flush(self) -> List[Record]:
        """Close the trailing window and return its output."""
        if self._current_window is None:
            return []
        outputs = self._emit_window()
        self._current_window = None
        self._active_stats = None
        return outputs

    finish = flush

    @property
    def window_stats(self) -> List[WindowStats]:
        """Stats for all *closed* windows."""
        return list(self._window_stats)

    @property
    def tables(self) -> GroupTables:
        return self._tables

    def note_shed(self, count: int) -> None:
        """Record ``count`` input tuples shed upstream by the runtime's
        overload admission check (they never reached :meth:`process`)."""
        if self._active_stats is not None:
            self._active_stats.shed_tuples += count
        else:
            self._pending_shed += count
        self.m_shed.inc(count)

    def note_quarantined(self, count: int) -> None:
        """Record ``count`` input tuples dead-lettered upstream at
        admission (malformed input routed to the quarantine stream)."""
        if self._active_stats is not None:
            self._active_stats.quarantined_tuples += count
        else:
            self._pending_quarantined += count
        self.m_quarantined.inc(count)

    # -- crash-recovery checkpoints -------------------------------------------------

    def checkpoint(self, since: Optional[Dict[str, int]] = None) -> Dict[str, Any]:
        """The full operator state, over its live objects (see
        ``Operator.checkpoint``): groups as columns (``checkpoint_cells``:
        the keys, and each cell across groups, the first the supergroup
        key; a UDAF's by its fields, not as objects); SFUN
        states by *state name* plus field dict because their classes are
        closure-local inside the ``*_library`` factories (see
        ``StatefulState.checkpoint``).  Nothing here reads a ``__dict__``
        of live state (``repro.dsms.fields``).
        Column order is insertion order, which also reconstructs the
        supergroup-group table — the cleaning pass depends on visiting
        groups in arrival order.
        """

        def snap_supergroups(table: Dict[Any, SuperGroupEntry]) -> List[Tuple]:
            return [
                (
                    entry.key,
                    self._stateful.checkpoint_states(entry.states),
                    list(entry.superaggregates),
                )
                for entry in table.values()
            ]

        start = since.get("window_stats", 0) if since else 0
        return {
            "current_window": self._current_window,
            "window_stats": Appended(start, self._window_stats[start:]),
            "active_stats": self._active_stats,
            "pending_shed": self._pending_shed,
            "pending_quarantined": self._pending_quarantined,
            "groups": checkpoint_cells(self._tables.groups, self._layout),
            "new_supergroups": snap_supergroups(self._tables.new_supergroups),
            "old_supergroups": snap_supergroups(self._tables.old_supergroups),
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reinstate a :meth:`checkpoint` snapshot on a fresh operator."""

        def rebuild(snaps: List[Tuple]) -> Dict[Any, SuperGroupEntry]:
            return {
                key: SuperGroupEntry(
                    key=key,
                    states=self._stateful.restore_states(states),
                    superaggregates=superaggs,
                )
                for key, states, superaggs in snaps
            }

        tables = GroupTables()
        tables.new_supergroups = rebuild(snapshot["new_supergroups"])
        tables.old_supergroups = rebuild(snapshot["old_supergroups"])
        for key, group in restore_cells(snapshot["groups"], self._layout).items():
            tables.add_group(key, group)
        self._tables = tables
        self._current_window = snapshot["current_window"]
        self._window_stats = snapshot["window_stats"].items
        self._active_stats = snapshot["active_stats"]
        self._pending_shed = snapshot["pending_shed"]
        self._pending_quarantined = snapshot["pending_quarantined"]

    # -- internals -----------------------------------------------------------------

    def _open_window(self, window: Tuple[Any, ...]) -> None:
        self._current_window = window
        self._active_stats = WindowStats(window=window)
        if self._pending_shed:
            self._active_stats.shed_tuples = self._pending_shed
            self._pending_shed = 0
        if self._pending_quarantined:
            self._active_stats.quarantined_tuples = self._pending_quarantined
            self._pending_quarantined = 0
        if self.obs_trace.enabled:
            self.obs_trace.emit(
                "window_open", query=self.obs_query, window=list(window)
            )

    def _new_supergroup(self, key: Tuple[Any, ...]) -> SuperGroupEntry:
        """Create the supergroup ``key`` misses in the new table; its SFUN
        states start from the old window's supergroup when there is one."""
        old_entry = self._tables.old_supergroups.get(key)
        old_states = old_entry.states if old_entry is not None else None
        if old_entry is not None:
            self.m_carryover.inc()
            if self.obs_trace.enabled:
                self.obs_trace.emit(
                    "supergroup_carryover",
                    query=self.obs_query,
                    window=list(self._current_window or ()),
                    supergroup=list(key),
                )
        states = self._stateful.instantiate_states(self.spec.state_names, old_states)
        superaggs = [
            self._superaggregates.create(sa.name, sa.const_args)
            for sa in self.spec.superaggregates
        ]
        entry = SuperGroupEntry(key=key, states=states, superaggregates=superaggs)
        self._tables.new_supergroups[key] = entry
        return entry
