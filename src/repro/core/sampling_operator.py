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

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.expr import (
    EvalContext,
    bind_group,
    bind_input,
    bind_tuple,
    compile_clause,
    compile_expr,
    compile_tuple,
    compile_update_value,
)
from repro.dsms.functions import FunctionRegistry
from repro.dsms.operators.base import Operator
from repro.dsms.parser.planner import SamplingSpec
from repro.dsms.stateful import StatefulLibrary
from repro.core.group_tables import GroupEntry, GroupTables, SuperGroupEntry
from repro.streams.records import Record


@dataclass
class WindowStats:
    """Per-window observability counters (back the accuracy figures)."""

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
    #: the ring-buffer backlog crossed the load-shed threshold (the
    #: paper's drop-under-overload behavior, §1/§7, made deliberate and
    #: observable instead of arbitrary packet loss).
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
        aggregate_factory,
        superaggregate_factory,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "sampling",
    ) -> None:
        self.spec = spec
        self._stateful = stateful
        self._aggregate_factory = aggregate_factory
        self._superaggregate_factory = superaggregate_factory
        self._charge = cost_model.charge
        self._account = account

        self.output_schema = spec.output_schema
        names = spec.group_by_names
        self._tables = GroupTables()
        self._current_window: Optional[Tuple[Any, ...]] = None
        self._window_stats: List[WindowStats] = []
        self._active_stats: Optional[WindowStats] = None
        #: shed tuples reported before any window is open (folded into the
        #: next window's stats)
        self._pending_shed = 0
        #: likewise for tuples dead-lettered at admission
        self._pending_quarantined = 0

        # The whole per-record plan is fixed here, once: every clause
        # compiled against the plan-time input schema (shadowing rule:
        # see expr.bind_tuple), superaggregates split by how they are fed.
        schema = spec.analyzed.schema
        at_tuple = bind_tuple(schema, names)
        at_group = bind_group(names)

        #: -> (group-by values, window id, supergroup key)
        self._group_key = compile_tuple(
            [item.expr for item in spec.group_by],
            bind_input(schema),
            f"{account}:GROUP BY",
            spec.ordered_indices,
            spec.nonordered_supergroup_indices,
        )
        #: with no SUPERGROUP BY beyond the window, a window has one
        #: supergroup: a run looks it up once per window, not per record
        self._holds_supergroup = not spec.nonordered_supergroup_indices
        self._where = compile_clause(spec.where, at_tuple, f"{account}:WHERE")
        self._aggregate_names = tuple(node.name for node in spec.aggregates)
        self._aggregate_args = tuple(
            compile_update_value(node, at_tuple, f"{account}:aggregate {node.slot}")
            for node in spec.aggregates
        )
        #: (slot, value) of the superaggregates fed by every admitted tuple
        self._tuple_fed = tuple(
            (slot, compile_expr(sa.value_expr, at_tuple, f"{account}:superaggregate {slot}"))
            for slot, sa in enumerate(spec.superaggregates)
            if sa.feeds == "tuple"
        )
        #: per slot: the group value of a group-fed superaggregate, else None
        self._group_values = tuple(
            compile_expr(sa.value_expr, at_group, f"{account}:superaggregate {slot}")
            if sa.feeds == "group" else None
            for slot, sa in enumerate(spec.superaggregates)
        )
        self._group_fed = tuple(
            (slot, value)
            for slot, value in enumerate(self._group_values)
            if value is not None
        )
        self._cleaning_when = compile_clause(
            spec.cleaning_when, at_group, f"{account}:CLEANING WHEN"
        )
        self._cleaning_by = compile_clause(spec.cleaning_by, at_group, f"{account}:CLEANING BY")
        self._having = compile_clause(spec.having, at_group, f"{account}:HAVING")
        self._select = compile_tuple(
            [item.expr for item in spec.select_items], at_group, f"{account}:SELECT"
        )

        # What the clauses read: ``key`` holds the tuple's own group-by
        # values while it is admitted (WHERE, aggregate and superaggregate
        # arguments, CLEANING WHEN), the visited group's during a cleaning
        # phase and at window close (CLEANING BY, HAVING, SELECT), when
        # ``aggregates`` are that group's; ``states`` and ``superaggregates``
        # are the supergroup's either way.  Clauses reach operator state
        # only through these fields, so ``restore()`` needs no recompiling.
        self._ctx = EvalContext(scalars.functions, stateful.functions)
        self._default_obs(account)

    # -- observability -----------------------------------------------------------
    #
    # Conservation identity (docs/OBSERVABILITY.md):
    #   in == filtered + admitted + late + incomparable
    #   groups_created == rows_out + groups_evicted + having_rejected

    def _bind_series(self) -> None:
        super()._bind_series()
        metrics = self.obs_metrics
        common = {"query": self.obs_query, "operator": self.kind_label}
        self._bind_window_series(**common)
        self.m_shed = metrics.counter(
            "operator_shed_tuples_total",
            help="tuples shed upstream at admission (never reached process)",
            **common,
        )
        self.m_quarantined = metrics.counter(
            "operator_quarantined_tuples_total",
            help="tuples dead-lettered upstream at admission (malformed)",
            **common,
        )
        self.m_groups_evicted = metrics.counter(
            "operator_groups_evicted_total",
            help="groups evicted by CLEANING BY during cleaning phases",
            **common,
        )
        self.m_cleaning_phases = metrics.counter(
            "operator_cleaning_phases_total",
            help="cleaning phases triggered by CLEANING WHEN",
            **common,
        )
        self.m_carryover = metrics.counter(
            "operator_supergroup_carryover_total",
            help="supergroups whose SFUN states carried over from the old window",
            **common,
        )
        self.g_peak_groups = metrics.gauge(
            "operator_peak_groups",
            help="high-water mark of the group table",
            **common,
        )

    # -- public API -------------------------------------------------------------

    def process_many(
        self, records: Iterable[Record], out: Optional[List[Record]] = None
    ) -> List[Record]:
        """Feed a run of input records; appends output records to ``out``
        (non-empty only when a record of the run closed a window).  With
        one supergroup per window (``_holds_supergroup``), the run keeps
        it until a window close swaps the tables; ``hash_probe`` is
        still charged per record, as if it were looked up."""
        if out is None:
            out = []
        ctx, where, cleaning_when = self._ctx, self._where, self._cleaning_when
        group_key, hold = self._group_key, self._holds_supergroup
        supergroup = None  # the first record looks its supergroup up
        tables = self._tables
        groups, supergroups = tables.groups, tables.new_supergroups
        create, names = self._aggregate_factory, self._aggregate_names
        arguments = self._aggregate_args
        tuple_fed, group_fed = self._tuple_fed, self._group_fed
        current, stats = self._current_window, self._active_stats
        n_in = n_filtered = n_admitted = n_created = peak = 0
        n_probes = n_inserts = n_predicates = n_updates = 0
        try:
            for record in records:
                n_in += 1
                ctx.record = record
                key, window, supergroup_key = group_key(ctx)
                ctx.key = key
                if window != current:
                    dropped = self._late(window, current)
                    if dropped == "late":
                        stats.late_tuples += 1
                        continue
                    if dropped is not None:
                        stats.incomparable_tuples += 1
                        continue
                    if current is not None:
                        # Into the caller's list at once: these rows must
                        # outlive an error later in the run.
                        out.extend(self._close_window())
                        supergroups = tables.new_supergroups
                        supergroup = None
                        ctx.key = key  # the close visited the old groups
                    self._open_window(window)
                    current, stats = window, self._active_stats
                stats.tuples_seen += 1

                n_probes += 1
                if not hold or supergroup is None:
                    supergroup = supergroups.get(supergroup_key)
                    if supergroup is None:
                        supergroup = self._new_supergroup(supergroup_key)
                        n_inserts += 1
                    ctx.states = supergroup.states
                    ctx.superaggregates = superaggregates = supergroup.superaggregates

                if where is not None:
                    n_predicates += 1
                    if not where(ctx):
                        n_filtered += 1
                        continue
                stats.tuples_admitted += 1
                n_admitted += 1

                for slot, value in tuple_fed:
                    superaggregates[slot].on_tuple(key, value(ctx))
                    n_updates += 1

                n_probes += 1
                group = groups.get(key)
                is_new_group = group is None
                if is_new_group:
                    group = GroupEntry(
                        key=key,
                        aggregates=[create(name) for name in names],
                        supergroup_key=supergroup_key,
                    )
                    tables.add_group(group)
                    stats.groups_created += 1
                    n_created += 1
                    if len(groups) > stats.peak_groups:
                        stats.peak_groups = len(groups)
                        if len(groups) > peak:
                            peak = len(groups)
                for argument, aggregate in zip(arguments, group.aggregates):
                    aggregate.update(argument(ctx) if argument is not None else 1)
                    n_updates += 1

                if is_new_group:  # tell the group-fed superaggregates
                    ctx.aggregates = group.aggregates
                    for slot, value in group_fed:
                        superaggregates[slot].on_group_added(key, value(ctx))
                        n_updates += 1

                if cleaning_when is not None:
                    n_predicates += 1
                    if cleaning_when(ctx):
                        if self.obs_trace.enabled:
                            self.obs_trace.emit(
                                "cleaning_trigger",
                                query=self.obs_query,
                                window=list(current),
                                supergroup=list(supergroup_key),
                            )
                        self._run_cleaning_phase(supergroup)
        finally:
            charge, account = self._charge, self._account
            charge(account, "tuple_read", n_in)
            charge(account, "hash_probe", n_probes)
            charge(account, "hash_insert", n_inserts + n_created)
            charge(account, "predicate_eval", n_predicates)
            charge(account, "aggregate_update", n_updates)
            ctx.settle_calls(charge, account)
            self.m_in.inc(n_in)
            self.m_filtered.inc(n_filtered)
            self.m_admitted.inc(n_admitted)
            self.m_groups_created.inc(n_created)
            if peak > self.g_peak_groups.value:
                self.g_peak_groups.set(peak)
        return out

    def flush(self) -> List[Record]:
        """Close the trailing window and return its output."""
        if self._current_window is None:
            return []
        try:
            outputs = self._close_window()
        finally:
            self._ctx.settle_calls(self._charge, self._account)
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

    def overload_counters(self) -> Dict[str, int]:
        """Degradation counters over all windows (closed and active).

        These are the "did the sample quietly degrade?" numbers: tuples
        dropped because they arrived late, tuples with unorderable window
        ids, tuples shed at admission under overload, and tuples
        dead-lettered at admission as malformed.
        """
        stats = list(self._window_stats)
        if self._active_stats is not None:
            stats.append(self._active_stats)
        return {
            "late_tuples": sum(s.late_tuples for s in stats),
            "incomparable_tuples": sum(s.incomparable_tuples for s in stats),
            "shed_tuples": sum(s.shed_tuples for s in stats) + self._pending_shed,
            "quarantined_tuples": (
                sum(s.quarantined_tuples for s in stats)
                + self._pending_quarantined
            ),
        }

    # -- crash-recovery checkpoints -------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Picklable snapshot of the full operator state.

        Groups (aggregate vectors) and superaggregates deepcopy/pickle
        directly; SFUN states are snapshotted by *state name* plus field
        dict because their classes are closure-local inside the
        ``*_library`` factories (see ``StatefulState.checkpoint``).
        Group insertion order is preserved by the group list, which also
        reconstructs the supergroup-group table — the cleaning pass
        depends on visiting groups in arrival order.
        """

        def snap_supergroups(table: Dict[Any, SuperGroupEntry]) -> List[Tuple]:
            return [
                (
                    entry.key,
                    self._stateful.checkpoint_states(entry.states),
                    copy.deepcopy(entry.superaggregates),
                )
                for entry in table.values()
            ]

        return {
            "current_window": self._current_window,
            "window_stats": copy.deepcopy(self._window_stats),
            "active_stats": copy.deepcopy(self._active_stats),
            "pending_shed": self._pending_shed,
            "pending_quarantined": self._pending_quarantined,
            "groups": [
                (entry.key, copy.deepcopy(entry.aggregates), entry.supergroup_key)
                for entry in self._tables.groups.values()
            ],
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
        for entry in snapshot["groups"]:  # (key, aggregates, supergroup key)
            tables.add_group(GroupEntry(*entry))
        self._tables = tables
        self._current_window = snapshot["current_window"]
        self._window_stats = snapshot["window_stats"]
        self._active_stats = snapshot["active_stats"]
        self._pending_shed = snapshot["pending_shed"]
        # Pre-quarantine snapshots lack the key.
        self._pending_quarantined = snapshot.get("pending_quarantined", 0)

    def split_snapshot(
        self, snapshot: Any, column: str, route: Callable[[Any], int], src: int
    ) -> Dict[int, Any]:
        parts: Dict[int, Dict[str, Any]] = {}
        names = self.spec.group_by_names
        if column not in names:
            return parts
        gb_index = names.index(column)
        #: the column's position inside the supergroup key, or None when
        #: no supergroup-keyed state hangs on it
        indices = self.spec.nonordered_supergroup_indices
        sg_pos = indices.index(gb_index) if gb_index in indices else None

        def part(dest: int) -> Dict[str, Any]:
            if dest not in parts:
                # ``copied``: the supergroup entries are placeholders *copied*
                # (not moved) so the destination's window close finds them.
                parts[dest] = {"groups": [], "new_supergroups": [], "old_supergroups": []}
                parts[dest]["copied"] = sg_pos is None
            return parts[dest]

        kept_groups = []
        #: supergroup keys that must exist at each destination (sg_pos None)
        needed_sg: Dict[int, set] = {}
        for entry in snapshot["groups"]:
            dest = route(entry[0][gb_index])
            if dest == src:
                kept_groups.append(entry)
            else:
                part(dest)["groups"].append(entry)
                if sg_pos is None:
                    needed_sg.setdefault(dest, set()).add(entry[2])
        snapshot["groups"] = kept_groups

        for table_name in ("new_supergroups", "old_supergroups"):
            kept = []
            for entry in snapshot[table_name]:
                if sg_pos is not None:
                    dest = route(entry[0][sg_pos])
                    if dest == src:
                        kept.append(entry)
                    else:
                        part(dest)[table_name].append(entry)
                else:
                    # Partition column outside the supergroup key: the planner
                    # only permits that when the supergroup carries no SFUN /
                    # superaggregate state, so the entry is a placeholder —
                    # keep it, and copy it wherever one of its groups went.
                    kept.append(entry)
                    for dest, keys in needed_sg.items():
                        if entry[0] in keys:
                            part(dest)[table_name].append(copy.deepcopy(entry))
            snapshot[table_name] = kept
        return parts

    def merge_snapshot(self, snapshot: Any, part: Any, window: Any) -> Tuple[int, int]:
        supergroups_moved = 0
        for table_name in ("new_supergroups", "old_supergroups"):
            table = snapshot[table_name]
            present = {entry[0] for entry in table}
            for entry in part[table_name]:
                if part["copied"] and entry[0] in present:
                    continue  # another of its groups brought it already
                table.append(entry)
                present.add(entry[0])
                supergroups_moved += not part["copied"]
        snapshot["groups"].extend(part["groups"])
        if snapshot["current_window"] is None and window is not None:
            # A fresh destination adopts the in-flight window: its next input
            # tuple must not re-open the window (which would orphan the
            # migrated groups), and the window close needs live WindowStats.
            snapshot["current_window"] = window
            if snapshot["active_stats"] is None:
                snapshot["active_stats"] = WindowStats(window=window)
        return len(part["groups"]), supergroups_moved

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
            self._superaggregate_factory(sa.name, sa.const_args)
            for sa in self.spec.superaggregates
        ]
        entry = SuperGroupEntry(key=key, states=states, superaggregates=superaggs)
        self._tables.new_supergroups[key] = entry
        return entry

    def _run_cleaning_phase(self, supergroup: SuperGroupEntry) -> None:
        stats = self._active_stats
        assert stats is not None
        stats.cleaning_phases += 1
        self.m_cleaning_phases.inc()
        charge, account, ctx = self._charge, self._account, self._ctx
        cleaning_by = self._cleaning_by
        charge(account, "cleaning_phase")
        ctx.states, ctx.superaggregates = supergroup.states, supergroup.superaggregates
        groups = self._tables.groups
        visited = evicted = 0
        try:
            for group_key in self._tables.groups_of(supergroup.key):
                group = groups.get(group_key)
                if group is None:
                    continue
                ctx.aggregates = group.aggregates
                ctx.key = group_key
                visited += 1
                if cleaning_by is not None and not cleaning_by(ctx):
                    self._evict_group(group, supergroup)
                    evicted += 1
                    if self.obs_trace.enabled:
                        self.obs_trace.emit(
                            "group_evicted",
                            query=self.obs_query,
                            window=list(self._current_window or ()),
                            group=list(group.key),
                        )
        finally:
            charge(account, "cleaning_per_group", visited)
            charge(account, "hash_delete", evicted)
            stats.groups_evicted += evicted
            self.m_groups_evicted.inc(evicted)

    def _evict_group(self, group: GroupEntry, supergroup: SuperGroupEntry) -> None:
        """Remove ``group`` — the group the context is visiting (the
        caller charges the ``hash_delete``, folded over its pass)."""
        ctx = self._ctx
        for sa, value in zip(supergroup.superaggregates, self._group_values):
            sa.on_group_removed(group.key, value(ctx) if value is not None else None)
        self._tables.remove_group(group.key)

    def _close_window(self) -> List[Record]:
        stats = self._active_stats
        assert stats is not None
        charge, account, ctx = self._charge, self._account, self._ctx
        having, select = self._having, self._select
        charge(account, "window_flush")

        # 1. Signal window end to every state (paper: final_init()).
        for supergroup in self._tables.new_supergroups.values():
            for state in supergroup.states.values():
                state.on_window_final()

        # 2. HAVING filters groups; survivors are emitted.
        outputs: List[Record] = []
        rejected = 0
        try:
            for group_key in list(self._tables.groups.keys()):
                group = self._tables.groups.get(group_key)
                if group is None:
                    continue
                supergroup = self._tables.new_supergroups[group.supergroup_key]
                ctx.aggregates = group.aggregates
                ctx.key = group_key
                ctx.states = supergroup.states
                ctx.superaggregates = supergroup.superaggregates
                if having is not None:
                    charge(account, "predicate_eval")
                    if not having(ctx):
                        self._evict_group(group, supergroup)
                        rejected += 1
                        if self.obs_trace.enabled:
                            self.obs_trace.emit(
                                "having_rejected",
                                query=self.obs_query,
                                window=list(stats.window),
                                group=list(group.key),
                            )
                        continue
                outputs.append(Record(self.spec.output_schema, select(ctx)))
                charge(account, "output_tuple")
                if self.obs_trace.enabled:
                    self.obs_trace.emit(
                        "group_emitted",
                        query=self.obs_query,
                        window=list(stats.window),
                        group=list(group.key),
                    )
        finally:
            charge(account, "hash_delete", rejected)
            self.m_having_rejected.inc(rejected)

        stats.output_tuples = len(outputs)
        self._window_stats.append(stats)
        self.m_windows.inc()
        self.m_rows_out.inc(len(outputs))
        if self.obs_trace.enabled:
            self.obs_trace.emit(
                "window_close",
                query=self.obs_query,
                window=list(stats.window),
                rows_out=len(outputs),
                groups_created=stats.groups_created,
                groups_evicted=stats.groups_evicted,
                cleaning_phases=stats.cleaning_phases,
            )

        # 3. Swap tables (paper §6.4).
        self._tables.end_window()
        return outputs
