"""One generated body per query node.

Gigascope compiles a query node to C; the tuple engine compiles it to one
Python function.  :func:`emit_node` writes the run entry of a selection,
aggregation or sampling node — ``process_many`` — from one loop,
:data:`LOOP`, and binds it on the operator (DESIGN.md §2).  The clauses
a record evaluates (GROUP BY, WHERE, aggregate arguments, superaggregate
values, CLEANING WHEN, SELECT) are statements of that loop, written by
:mod:`repro.dsms.expr`'s clause emitter under its rules, reading the
record's values and its group key as the locals ``v`` and ``key``.
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
from typing import Any, Callable, Dict, Optional, Sequence

from repro.dsms.expr import InPlace, Star, _Emitter, bind_group, bind_input, bind_tuple
from repro.dsms.operators.base import Operator
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
            emit({record}({schema}, {select}))  #? selection
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
                self._run_cleaning_phase(supergroup)  #? cleaning
    finally:
        charge, account = self._cost.charge, self._account
        charge(account, "tuple_read", n_in)
        charge(account, "hash_probe", n_in)  #? aggregation
        charge(account, "hash_insert", n_created)  #? aggregation
        charge(account, "hash_probe", n_probes)  #? sampling
        charge(account, "hash_insert", n_inserts + n_created)  #? sampling
        charge(account, "predicate_eval", n_predicates)  #? where sampling
        charge(account, "aggregate_update", n_updates)  #? windowed
        ctx.settle_calls(charge, account)
        self.m_in.inc(n_in)
        self.m_filtered.inc(n_filtered)
        self.m_rows_out.inc(len(out) - before)  #? selection
        self.m_admitted.inc(n_admitted)  #? windowed
        self.m_groups_created.inc(n_created)  #? windowed
        if peak > self.g_peak_groups.value:  #? sampling
            self.g_peak_groups.set(peak)  #? sampling
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
    """Bind ``op.process_many`` to :data:`LOOP` written for the plan
    ``analyzed`` describes — a selection; an aggregation, given the
    ``aggregates`` registry and the :func:`in_place` ``forms``; a
    sampling node, given its ``spec`` and ``entry`` (the group-table
    entry class) too — unless ``op``'s class runs its own entry (the
    columnar subclasses).  ``label`` names the source (``expr._code``)."""
    if type(op).process_many is not Operator.process_many:
        return
    node = _Emitter(bind_group(()), forms)
    node.hoisted = ""  # the record's values and its key are locals already
    names, superaggregates = analyzed.group_by_names, spec.superaggregates if spec else ()
    at_input = bind_input(analyzed.schema, "v")
    at_tuple = bind_tuple(analyzed.schema, names, "v", "key") if names else at_input
    at_key = bind_group(names, "key")

    def clause(bind: Any, depth: int, expr: Any) -> str:
        node.bind, node.depth = bind, depth
        return node.emit(expr)

    def group_by(depth: int) -> str:
        items = [clause(at_input, depth, item.expr) for item in analyzed.group_by]
        views = [range(len(items)), [names.index(name) for name in analyzed.ordered_names]]
        views += [spec.nonordered_supergroup_indices] if spec else []
        return ", ".join(f"({''.join(items[i] + ', ' for i in view)})" for view in views)

    def select(depth: int) -> str:
        node.bind, node.depth = at_input, depth
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

    parts: Dict[str, Callable[[int], str]] = {
        "group_by": group_by,
        "where": lambda depth: clause(at_tuple, depth, analyzed.ast.where),
        "select": select,
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
    }
    tags = {analyzed.kind.replace("stateful_", "")} | ({"windowed"} if names else set())
    tags |= {"where"} if analyzed.ast.where is not None else set()
    if spec is not None:
        tags |= {"per-record"} if spec.nonordered_supergroup_indices else set()
        tags |= {"cleaning"} if spec.cleaning_when is not None else set()
        tags |= {"group-fed"} if any(sa.feeds == "group" for sa in superaggregates) else set()
    for line in LOOP.split("\n"):
        text, _, only = line.partition("  #? ")
        if not only or tags & set(only.split()):
            depth = (len(text) - len(text.lstrip())) // 4 + 1
            text = re.sub(r"\{(\w+)\}", lambda m: parts[m.group(1)](depth), text)
            if text.strip():
                node.depth = 1
                node.line(text)
    body = node.function("out", f"{label}:process_many", "process_many", "self, records, out=None")
    op.process_many = MethodType(body, op)
