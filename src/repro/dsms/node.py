"""One generated body per query node.

Gigascope compiles a query node to C; the tuple engine compiles it to one
Python function.  :func:`emit_node` writes the run entry of a selection,
aggregation or sampling node — ``process_many`` — from one loop,
:data:`LOOP`, and a windowed node's window close — ``_emit_window`` —
from :data:`CLOSE`, and binds them on the operator (DESIGN.md §2).  Every
clause (GROUP BY, WHERE, aggregate arguments, superaggregate values,
CLEANING WHEN and BY, HAVING, SELECT) is statements of one of them,
written by :mod:`repro.dsms.expr`'s clause emitter under its rules,
reading the record's values, its group key and a visited group's key as
the locals ``v``, ``key`` and ``gkey``; a cleaning phase is a loop over
the supergroup's groups inside :data:`LOOP`.
Nothing from the query text reaches the source: literals, names, nodes
and the classes a body instantiates are default arguments, so replicas
of one query shape run one cached code object.  A built-in aggregate or
superaggregate is updated and read in place (the ``in_place`` its class
declares); any other is called.
"""

from __future__ import annotations

import re
from textwrap import dedent
from types import MethodType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dsms.expr import (
    EvalContext, FunctionCall, InPlace, ScalarCall, Star, _Emitter, bind_group, bind_input, bind_tuple,
)
from repro.dsms.operators.base import Operator
from repro.errors import PlanningError
from repro.streams.records import Record

#: Every tuple-engine node's run entry.  A line marked ``#? tags`` is
#: written only for a node with one of them — its kind, ``windowed``
#: (aggregation or sampling), ``per-record`` (a supergroup key beyond the
#: window), ``where``, ``cleaning``, ``group-fed`` (superaggregates fed by
#: group) — and ``{part}`` is what :func:`emit_node` writes for the plan,
#: statements first.  Counters are locals settled once per run, in the
#: ``finally``: an error leaves counted exactly the records consumed.
LOOP = dedent("""
    if out is None:
        out = []
    ctx = self._ctx
    n_in = n_filtered = n_predicates = n_admitted = n_created = n_updates = 0
    emit, before = out.append, len(out)  #? selection
    current = self._current_window  #? windowed
    groups = self._groups  #? aggregation
    tables, stats, supergroup = self._tables, self._active_stats, None  #? sampling
    groups, supergroups = tables.groups, tables.new_supergroups  #? sampling
    members, n_probes, n_inserts, peak = tables.supergroup_groups, 0, 0, 0  #? sampling
    n_phases = n_visited = n_evicted = 0  #? cleaning
    try:
        if self._forwards:  #? selection
            out.extend(records)  #? selection
            n_in, records = len(out) - before, ()  #? selection
        for record in records:
            n_in += 1
            v = record.values
            key, window = {group_by}  #? aggregation
            key, window, sgkey = {group_by}  #? sampling
            if window != current:  #? windowed
                dropped = self._late(window, current)  #? windowed
                if dropped is not None:  #? windowed
                    if dropped == "late":  #? sampling
                        stats.late_tuples += 1  #? sampling
                    else:  #? sampling
                        stats.incomparable_tuples += 1  #? sampling
                    continue  #? windowed
                if current is not None:  #? windowed
                    # into the caller's list at once: these rows must  #? windowed
                    # outlive an error later in the run  #? windowed
                    out.extend(self._emit_window())  #? windowed
                    supergroups, supergroup = tables.new_supergroups, None  #? sampling
                self._open_window(window)  #? windowed
                current = window  #? windowed
                stats = self._active_stats  #? sampling
            stats.tuples_seen += 1  #? sampling
            n_probes += 1  #? sampling
            supergroup = None  #? per-record
            if supergroup is None:  #? sampling
                if sgkey in supergroups:  #? sampling
                    supergroup = supergroups[sgkey]  #? sampling
                else:  #? sampling
                    supergroup = self._new_supergroup(sgkey)  #? sampling
                    n_inserts += 1  #? sampling
                ctx.states = supergroup.states  #? sampling
                ctx.superaggregates = superaggregates = supergroup.superaggregates  #? sampling
            n_predicates += 1  #? where
            if not {where}:  #? where
                n_filtered += 1  #? where
                continue  #? where
            row = {new}({record})  #? selection
            row.schema, row.values = {schema}, {select}  #? selection
            emit(row)  #? selection
            stats.tuples_admitted += 1  #? sampling
            n_admitted += 1  #? windowed
            {tuple_fed}  #? sampling
            n_probes += 1  #? sampling
            if key in groups:  #? windowed
                aggs = groups[key]  #? aggregation
                aggs = groups[key].aggregates  #? sampling
                {update}  #? windowed
            else:  #? windowed
                aggs = groups[key] = [{creates}]  #? aggregation
                aggs = [{creates}]  #? sampling
                groups[key] = {entry}(key, aggs, sgkey)  #? sampling
                if sgkey in members:  #? sampling
                    members[sgkey][key] = None  #? sampling
                else:  #? sampling
                    members[sgkey] = {key: None}  #? sampling
                stats.groups_created += 1  #? sampling
                n_created += 1  #? windowed
                size = len(groups)  #? sampling
                if size > stats.peak_groups:  #? sampling
                    stats.peak_groups = size  #? sampling
                    if size > peak:  #? sampling
                        peak = size  #? sampling
                {update}  #? windowed
                ctx.aggregates = aggs  #? group-fed
                {group_fed}  #? group-fed
            n_predicates += 1  #? cleaning
            if {cleaning_when}:  #? cleaning
                # a cleaning phase: CLEANING BY on each group of the  #? cleaning
                # supergroup, in arrival order; FALSE evicts the group  #? cleaning
                stats.cleaning_phases += 1  #? cleaning
                n_phases += 1  #? cleaning
                if self.obs_trace.enabled:  #? cleaning
                    self.obs_trace.emit("cleaning_trigger", query=self.obs_query,  #? cleaning
                                        window=list(current), supergroup=list(sgkey))  #? cleaning
                for gkey in list(members[sgkey]):  #? cleaning
                    ctx.aggregates = groups[gkey].aggregates  #? cleaning
                    n_visited += 1  #? cleaning
                    if not {cleaning_by}:  #? cleaning
                        {evict}  #? cleaning
                        stats.groups_evicted += 1  #? cleaning
                        n_evicted += 1  #? cleaning
                        if self.obs_trace.enabled:  #? cleaning
                            self.obs_trace.emit("group_evicted", query=self.obs_query,  #? cleaning
                                                window=list(current), group=list(gkey))  #? cleaning
    finally:
        charge, account = self._cost.charge, self._account
        charge(account, "tuple_read", n_in)
        charge(account, "hash_probe", n_in)  #? aggregation
        charge(account, "hash_insert", n_created)  #? aggregation
        charge(account, "hash_probe", n_probes)  #? sampling
        charge(account, "hash_insert", n_inserts + n_created)  #? sampling
        charge(account, "predicate_eval", n_predicates)  #? where sampling
        charge(account, "aggregate_update", n_updates)  #? windowed
        charge(account, "cleaning_phase", n_phases)  #? cleaning
        charge(account, "cleaning_per_group", n_visited)  #? cleaning
        charge(account, "hash_delete", n_evicted)  #? cleaning
        ctx.settle_calls(charge, account)
        self.m_in.inc(n_in)
        self.m_filtered.inc(n_filtered)
        self.m_rows_out.inc(len(out) - before)  #? selection
        self.m_admitted.inc(n_admitted)  #? windowed
        self.m_groups_created.inc(n_created)  #? windowed
        self.m_cleaning_phases.inc(n_phases)  #? cleaning
        self.m_groups_evicted.inc(n_evicted)  #? cleaning
        if peak > self.g_peak_groups.value:  #? sampling
            self.g_peak_groups.set(peak)  #? sampling
""").strip("\n")

#: Every windowed node's window close, ``_emit_window``, on :data:`LOOP`'s
#: terms, with the tags ``having`` and ``rejects`` (a sampling node's
#: HAVING: a group it rejects is evicted).  HAVING and SELECT read the
#: visited group's key as the local ``gkey``.
CLOSE = dedent("""
    ctx, rows = self._ctx, []
    charge, account = self._cost.charge, self._account
    charge(account, "window_flush")
    n_tested = n_rejected = 0
    stats, tables = self._active_stats, self._tables  #? sampling
    groups, supergroups, members = tables.groups, tables.new_supergroups, tables.supergroup_groups  #? sampling
    for supergroup in supergroups.values():  #? sampling
        for state in supergroup.states.values():  #? sampling
            state.on_window_final()  #? sampling
    try:
        for gkey, aggs in self._groups.items():  #? aggregation
        for gkey, group in list(groups.items()):  #? sampling
            aggs, sgkey = group.aggregates, group.supergroup_key  #? sampling
            supergroup = supergroups[sgkey]  #? sampling
            ctx.states = supergroup.states  #? sampling
            ctx.superaggregates = superaggregates = supergroup.superaggregates  #? sampling
            ctx.aggregates = aggs
            n_tested += 1  #? having
            if not {having}:  #? having
                n_rejected += 1  #? having
                {evict}  #? rejects
                if self.obs_trace.enabled:  #? rejects
                    self.obs_trace.emit("having_rejected", query=self.obs_query,  #? rejects
                                        window=list(stats.window), group=list(gkey))  #? rejects
                continue  #? having
            row = {new}({record})
            row.schema, row.values = {schema}, {select}
            rows.append(row)
            if self.obs_trace.enabled:  #? sampling
                self.obs_trace.emit("group_emitted", query=self.obs_query,  #? sampling
                                    window=list(stats.window), group=list(gkey))  #? sampling
    finally:
        # settled per window, not per group: a close that raises has
        # charged the groups it visited, the failing one included
        charge(account, "predicate_eval", n_tested)
        charge(account, "output_tuple", len(rows))
        charge(account, "hash_delete", n_rejected)  #? sampling
        ctx.settle_calls(charge, account)
        self.m_having_rejected.inc(n_rejected)
    stats.output_tuples = len(rows)  #? sampling
    self._window_stats.append(stats)  #? sampling
    self.m_windows.inc()
    self.m_rows_out.inc(len(rows))
    if self.obs_trace.enabled:
        self.obs_trace.emit("window_close", query=self.obs_query,
                            window=list(self._current_window), rows_out=len(rows),
                            groups_created=stats.groups_created,  #? sampling
                            groups_evicted=stats.groups_evicted,  #? sampling
                            cleaning_phases=stats.cleaning_phases,  #? sampling
                            )
    tables.end_window()  #? sampling
    self._groups.clear()  #? aggregation
""").strip("\n")


def in_place(aggregates: Sequence[Any], superaggregates: Sequence[Any] = ()) -> InPlace:
    """The built-ins among a plan's aggregate factories and superaggregate
    classes, by ``(field, slot)``: a class's own ``in_place`` only — a
    subclass overriding ``update`` inherits none."""
    return {
        (field, slot): vars(cls)["in_place"]
        for field, classes in (("aggregates", aggregates), ("superaggregates", superaggregates))
        for slot, cls in enumerate(classes)
        if isinstance(cls, type) and "in_place" in vars(cls)
    }


def emit_node(
    op: Operator, label: str, analyzed: Any, aggregates: Any = None, spec: Any = None,
    forms: Optional[InPlace] = None, entry: Any = None,
) -> None:
    """Bind ``op.process_many`` to :data:`LOOP` and a windowed ``op``'s
    ``_emit_window`` to :data:`CLOSE`, written for the plan ``analyzed``
    describes — a selection; an aggregation, given the ``aggregates``
    registry and the :func:`in_place` ``forms``; a sampling node, given
    its ``spec`` and ``entry`` (the group-table entry class) too.  An
    ``op`` whose class runs its own entry (the columnar subclasses) keeps
    it, and takes the close.  ``label`` names the source (``expr._code``).
    A row is built through :class:`Record`'s slots, so its arity is checked
    here, once: a SELECT list that misfits ``op.output_schema`` fails."""
    width, schema = len(analyzed.ast.select), op.output_schema
    if width != len(schema):
        raise PlanningError(f"{label}: SELECT lists {width} values for {len(schema)}"
                            f" attributes of {schema.name!r}")
    node: Any = None  # the emitter of the function being written
    names, superaggregates = analyzed.group_by_names, spec.superaggregates if spec else ()
    at_input = bind_input(analyzed.schema, "v")
    at_tuple = bind_tuple(analyzed.schema, names, "v", "key") if names else at_input
    at_key, at_group = bind_group(names, "key"), bind_group(names, "gkey")

    def clause(bind: Any, depth: int, expr: Any) -> str:
        node.bind, node.depth = bind, depth
        return node.emit(expr)

    def group_by(depth: int) -> str:
        items = [clause(at_input, depth, item.expr) for item in analyzed.group_by]
        views = [range(len(items)), [names.index(name) for name in analyzed.ordered_names]]
        views += [spec.nonordered_supergroup_indices] if spec else []
        return ", ".join(f"({''.join(items[i] + ', ' for i in view)})" for view in views)

    def select(depth: int) -> str:
        node.bind, node.depth = at_input if kind == "selection" else at_group, depth
        return node.row([item.expr for item in analyzed.ast.select])

    def apply(depth: int, field: str, target: str, slot: int, value: str, call: str) -> None:
        form, node.depth = node.in_place.get((field, slot)), depth
        node.line((form[0] if form else call).format(f"{target}[{slot}]", value))
        node.line("n_updates += 1")

    def update(depth: int) -> str:
        for call in analyzed.aggregates:
            value = "1"  # count(*): the argument's value is irrelevant
            if call.args and not isinstance(call.args[0], Star):
                value = clause(at_tuple, depth, call.args[0])
            apply(depth, "aggregates", "aggs", call.slot, value, "{0}.update({1})")
        return ""

    def fed(depth: int, feeds: str, bind: Any, call: str) -> str:
        for sa in superaggregates:
            if sa.feeds == feeds:
                value = clause(bind, depth, sa.value_expr)
                apply(depth, "superaggregates", "superaggregates", sa.slot, value, call)
        return ""

    def evict(depth: int) -> str:
        """Remove the group ``gkey``: each superaggregate told, in slot
        order — a group-fed one with its value for the group — then both
        tables."""
        node.depth = depth
        for slot, sa in enumerate(superaggregates):
            value = clause(at_group, depth, sa.value_expr) if sa.feeds == "group" else "None"
            node.line(f"superaggregates[{slot}].on_group_removed(gkey, {value})")
        node.line("del groups[gkey], members[sgkey][gkey]")
        return ""

    parts: Dict[str, Callable[[int], str]] = {
        "group_by": group_by,
        "where": lambda depth: clause(at_tuple, depth, analyzed.ast.where),
        "select": select,
        "new": lambda depth: node.const(object.__new__),
        "record": lambda depth: node.const(Record),
        "schema": lambda depth: node.const(op.output_schema),
        "tuple_fed": lambda depth: fed(depth, "tuple", at_tuple, "{0}.on_tuple(key, {1})"),
        "update": update,
        "creates": lambda depth: ", ".join(
            f"{node.const(aggregates.factory(call.name))}()"
            if ("aggregates", call.slot) in node.in_place
            else f"{node.const(aggregates.create)}({node.const(call.name)})"
            for call in analyzed.aggregates
        ),
        "entry": lambda depth: node.const(entry),
        "group_fed": lambda depth: fed(depth, "group", at_key, "{0}.on_group_added(key, {1})"),
        "cleaning_when": lambda depth: clause(at_key, depth, spec.cleaning_when),
        "cleaning_by": lambda depth: clause(at_group, depth, spec.cleaning_by),
        "evict": evict,
        "having": lambda depth: clause(at_group, depth, analyzed.ast.having),
    }
    kind = analyzed.kind.replace("stateful_", "")
    tags = {kind} | ({"windowed"} if names else set())
    tags |= {"where"} if analyzed.ast.where is not None else set()
    tags |= {"having"} if analyzed.ast.having is not None else set()
    if spec is not None:
        tags |= {"per-record"} if spec.nonordered_supergroup_indices else set()
        tags |= {"cleaning"} if spec.cleaning_when is not None else set()
        tags |= {"group-fed"} if any(sa.feeds == "group" for sa in superaggregates) else set()
        tags |= {"rejects"} if "having" in tags else set()

    def write(template: str, result: str, name: str, params: str) -> Any:
        nonlocal node
        node = _Emitter(bind_group((), "key"), forms)
        node.hoisted = ""  # what a clause reads is in locals already
        for line in template.split("\n"):
            text, _, only = line.partition("  #? ")
            if not only or tags & set(only.split()):
                depth = (len(text) - len(text.lstrip())) // 4 + 1
                text = re.sub(r"\{(\w+)\}", lambda m: parts[m.group(1)](depth), text)
                if text.strip():
                    node.depth = 1
                    node.line(text)
        return MethodType(node.function(result, f"{label}:{name}", name, params), op)

    if kind != "selection":
        op._emit_window = write(CLOSE, "rows", "_emit_window", "self")
    if type(op).process_many is Operator.process_many:
        op.process_many = write(LOOP, "out", "process_many", "self, records, out=None")


def scannable(op: Operator) -> bool:
    """``op`` is a selection whose generated entry builds its rows, so a
    scan (:func:`emit_scan`) can stand in for it."""
    return op.kind_label == "selection" and "process_many" in vars(op) and not op._forwards


def emit_scan(ops: Sequence[Operator], label: str) -> Callable[..., Tuple[List[Record], ...]]:
    """One pass for the :func:`scannable` selections ``ops`` over one
    stream: ``scan(records, contexts)`` reads each record once and returns
    each member's rows as its entry would emit them, counting member
    ``i``'s clause calls in ``contexts[i]``.  WHERE and SELECT are
    :data:`LOOP`'s selection terms, member after member; members with
    equal SELECT lists (calling no function) and output attributes share
    a row, built for the first that passes and carrying its output
    schema, whatever the queries are named.  A scan of one is its
    member's entry, less the counters :func:`take` settles."""

    def select_key(i: int, op: Operator) -> Any:
        select = [item.expr for item in op.analyzed.ast.select]
        if any(isinstance(node, (ScalarCall, FunctionCall)) for expr in select for node in expr.walk()):
            return i
        # positions are bound per input schema: share under the same one only
        return id(op.analyzed.schema), op.output_schema.attributes, tuple(map(str, select))

    keys = [select_key(i, op) for i, op in enumerate(ops)]
    shared = {key: f"row{keys.index(key)}" for key in keys if keys.count(key) > 1}
    node = _Emitter(bind_group((), "key"))
    node.hoisted = ""  # what a clause reads is in locals already
    members = range(len(ops))
    node.line(f"{''.join(f'rows{i}, ' for i in members)}= runs = ({'[], ' * len(ops)})")
    node.line(f"{''.join(f'emit{i}, ' for i in members)}= {''.join(f'rows{i}.append, ' for i in members)}")
    node.line(f"{''.join(f'ctx{i}, ' for i in members)}= contexts")
    node.line("for record in records:")
    node.depth = 2
    node.line("v = record.values")
    for name in shared.values():
        node.line(f"{name} = None")
    for i, op in enumerate(ops):
        start, where = len(node.lines), op.analyzed.ast.where
        node.bind, node.depth = bind_input(op.analyzed.schema, "v"), 2
        if where is not None:
            node.line(f"if {node.emit(where)}:")
            node.depth += 1
        row = shared.get(keys[i], "row")
        if keys[i] in shared:  # built by whichever sharer passes first
            node.line(f"if {row} is None:")
            node.depth += 1
        node.line(f"{row} = {node.const(object.__new__)}({node.const(Record)})")
        values = node.row([item.expr for item in op.analyzed.ast.select])
        node.line(f"{row}.schema, {row}.values = {node.const(op.output_schema)}, {values}")
        node.depth = 3 if where is not None else 2
        node.line(f"emit{i}({row})")
        if re.search(r"\bctx\b", "\n".join(node.lines[start:])):
            node.lines.insert(start, f"        ctx = ctx{i}")
    return node.function("runs", f"{label}:scan", "scan", "records, contexts")


def take(op: Operator, records: Sequence[Record], out: Optional[List[Record]],
         rows: List[Record], calls: EvalContext) -> List[Record]:
    """``op``'s entry over ``records`` when a scan (:func:`emit_scan`) has
    built its ``rows`` and counted its clauses' calls in ``calls``: it
    emits the rows and settles what :data:`LOOP`'s ``finally`` settles
    for a selection, and nothing else."""
    if out is None:
        out = []
    out.extend(rows)
    n_in, n_out, ctx = len(records), len(rows), op._ctx
    charge, account = op._cost.charge, op._account
    charge(account, "tuple_read", n_in)
    charge(account, "predicate_eval", n_in if op.analyzed.ast.where is not None else 0)
    ctx.function_calls += calls.function_calls
    ctx.sfun_calls += calls.sfun_calls
    ctx.settle_calls(charge, account)
    op.m_in.inc(n_in)
    op.m_filtered.inc(n_in - n_out)
    op.m_rows_out.inc(n_out)
    return out
