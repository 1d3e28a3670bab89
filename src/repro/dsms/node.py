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
and the factories a body calls are default arguments, so replicas of
one query shape run one cached code object.  A group is one list, built
by a list display and laid out by the plan's
:class:`~repro.dsms.aggregates.Layout`: a built-in aggregate's cells are
updated and read in place, as :mod:`repro.dsms.aggregates` declares
them, and a UDAF in its cell is called.  A built-in superaggregate is
updated and read in place too (the ``in_place`` its class declares);
any other is called.

A record's path reads locals only — each SFUN and its state is bound
once per supergroup — and bumps only event counts; every other count is
a fixed multiple of the events, derived once per run (:func:`tally`).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from textwrap import dedent
from types import MethodType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dsms.aggregates import Layout
from repro.dsms.expr import (
    BinaryOp, ColumnRef, EvalContext, FunctionCall, InPlace, Literal, ScalarCall, Star, StatefulCall, _Emitter,
    bind_group, bind_input, bind_tuple, column_names,
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
#: ``finally``: an error leaves counted exactly the records consumed.  On a
#: record's path only events are bumped: records in, and in their branches
#: records dropped or filtered and groups created or visited.  A point,
#: ``@ name += 1`` (a clause's call is one too), is not written: ``{tally}``
#: derives it from the events, less what a record that raised had yet to
#: do.  SFUNs are bound per supergroup (``{bind}``); a window is tested on
#: its ordered values (``cw0`` ...), and its stats settled as it closes; a
#: group key's bare columns may wait for the WHERE (``{key}``), and a walk's
#: reader calls are made before it (``{once}``, :func:`emit_node`'s ``cleaning_by``).
LOOP = dedent("""
    if out is None:
        out = []
    ctx, miss = self._ctx, {zero}
    scalars, sfuns, states, superaggregates = ctx.scalars, ctx.sfuns, ctx.states, None
    n_in = n_dropped = n_filtered = n_seen = n_predicates = n_admitted = n_created = n_inserts = n_updates = n_visited = sfun_calls = function_calls = 0
    emit, before = out.append, len(out)  #? selection
    {bind}  #? selection
    current = self._current_window  #? windowed
    {ordered} = current or {unset}  #? windowed
    groups = self._groups  #? aggregation
    tables, stats, supergroup = self._tables, self._active_stats, None  #? sampling
    groups, supergroups = tables.groups, tables.new_supergroups  #? sampling
    members, n_probes, peak, size = tables.supergroup_groups, 0, 0, len(groups)  #? sampling
    n_phases = n_evicted = w_seen = w_admitted = w_created = 0  #? sampling
    try:
        if self._forwards:  #? selection
            out.extend(records)  #? selection
            n_in, records = len(out) - before, ()  #? selection
        for record in records:
            n_in += 1
            v = record.values
            {group_by}  #? windowed
            if {changed}:  #? windowed
                window = {window}  #? windowed
                dropped = self._late(window, current)  #? windowed
                if dropped is not None:  #? windowed
                    n_dropped += 1  #? windowed
                    if dropped == "late":  #? sampling
                        stats.late_tuples += 1  #? sampling
                    else:  #? sampling
                        stats.incomparable_tuples += 1  #? sampling
                    continue  #? windowed
                if current is not None:  #? windowed
                    seen = n_in - 1 - n_dropped  #? sampling
                    stats.tuples_seen += seen - w_seen  #? sampling
                    stats.tuples_admitted += seen - n_filtered - w_admitted  #? sampling
                    stats.groups_created += n_created - w_created  #? sampling
                    w_seen, w_admitted, w_created = seen, seen - n_filtered, n_created  #? sampling
                    # into the caller's list at once: these rows must  #? windowed
                    # outlive an error later in the run  #? windowed
                    out.extend(self._emit_window())  #? windowed
                    supergroups, supergroup, size = tables.new_supergroups, None, 0  #? sampling
                self._open_window(window)  #? windowed
                current = {ordered} = window  #? windowed
                stats = self._active_stats  #? sampling
            @ n_seen += 1  #? sampling
            @ n_probes += 1  #? sampling
            supergroup = None  #? per-record
            if supergroup is None:  #? sampling
                if sgkey in supergroups:  #? sampling
                    supergroup = supergroups[sgkey]  #? sampling
                else:  #? sampling
                    supergroup = self._new_supergroup(sgkey)  #? sampling
                    n_inserts += 1  #? sampling
                states, superaggregates = supergroup.states, supergroup.superaggregates  #? sampling
                {bind}  #? sampling
            @ n_predicates += 1  #? where
            if not {where}:  #? where
                n_filtered += 1  #? where
                continue  #? where
            row = {new}({record})  #? selection
            row.schema, row.values = {schema}, {select}  #? selection
            emit(row)  #? selection
            {key}  #? windowed
            @ n_admitted += 1  #? windowed
            {tuple_fed}  #? sampling
            @ n_probes += 1  #? sampling
            if key in groups:  #? windowed
                group = groups[key]  #? windowed
                {update}  #? windowed
            else:  #? windowed
                group = groups[key] = {group}  #? windowed
                if sgkey in members:  #? sampling
                    members[sgkey][key] = None  #? sampling
                else:  #? sampling
                    members[sgkey] = {key: None}  #? sampling
                n_created += 1  #? windowed
                size += 1  #? sampling
                if size > stats.peak_groups:  #? sampling
                    stats.peak_groups = size  #? sampling
                    if size > peak:  #? sampling
                        peak = size  #? sampling
                {update}  #? windowed
                {group_fed}  #? group-fed
            @ n_predicates += 1  #? cleaning
            if {cleaning_when}:  #? cleaning
                # a cleaning phase: CLEANING BY on each group of the  #? cleaning
                # supergroup, in arrival order; FALSE evicts the group  #? cleaning
                stats.cleaning_phases += 1  #? cleaning
                n_phases += 1  #? cleaning
                if self.obs_trace.enabled:  #? cleaning
                    self.obs_trace.emit("cleaning_trigger", query=self.obs_query,  #? cleaning
                                        window=list(current), supergroup=list(sgkey))  #? cleaning
                {once}  #? cleaning
                for gkey in list(members[sgkey]):  #? cleaning
                    n_visited += 1  #? cleaning
                    group = groups[gkey]  #? cleaning
                    if not {cleaning_by}:  #? cleaning
                        {evict}  #? cleaning
                        size -= 1  #? cleaning
                        stats.groups_evicted += 1  #? cleaning
                        n_evicted += 1  #? cleaning
                        if self.obs_trace.enabled:  #? cleaning
                            self.obs_trace.emit("group_evicted", query=self.obs_query,  #? cleaning
                                                window=list(current), group=list(gkey))  #? cleaning
    except BaseException as exc:
        miss = {missed}(exc)
        raise
    finally:
        {tally}
        charge, account = self._cost.charge, self._account
        charge(account, "tuple_read", n_in)
        charge(account, "hash_probe", n_in)  #? aggregation
        charge(account, "hash_probe", n_probes)  #? sampling
        charge(account, "hash_insert", n_inserts + n_created)  #? windowed
        charge(account, "predicate_eval", n_predicates)  #? where sampling
        charge(account, "aggregate_update", n_updates)  #? windowed
        charge(account, "cleaning_phase", n_phases)  #? cleaning
        charge(account, "cleaning_per_group", n_visited)  #? cleaning
        charge(account, "hash_delete", n_evicted)  #? cleaning
        charge(account, "function_call", function_calls)
        charge(account, "sfun_call", sfun_calls)
        self.m_in.inc(n_in)
        self.m_filtered.inc(n_filtered)
        self.m_rows_out.inc(len(out) - before)  #? selection
        self.m_admitted.inc(n_admitted)  #? windowed
        self.m_groups_created.inc(n_created)  #? windowed
        self.m_cleaning_phases.inc(n_phases)  #? cleaning
        self.m_groups_evicted.inc(n_evicted)  #? cleaning
        if peak > self.g_peak_groups.value:  #? sampling
            self.g_peak_groups.set(peak)  #? sampling
        if stats is not None:  #? sampling
            stats.tuples_seen += n_seen - w_seen  #? sampling
            stats.tuples_admitted += n_admitted - w_admitted  #? sampling
            stats.groups_created += n_created - w_created  #? sampling
""").strip("\n")

#: Every windowed node's window close, ``_emit_window``, on :data:`LOOP`'s
#: terms (a group, not a record, takes the path), with the tags ``having``
#: and ``rejects`` (a sampling node's HAVING: a group it rejects is
#: evicted).  HAVING and SELECT read the visited group's key as the local
#: ``gkey``.
CLOSE = dedent("""
    ctx, rows, miss, held = self._ctx, [], {zero}, None
    scalars, sfuns = ctx.scalars, ctx.sfuns
    n_groups = n_tested = n_rejected = sfun_calls = function_calls = 0
    charge, account = self._cost.charge, self._account
    charge(account, "window_flush")
    stats, tables = self._active_stats, self._tables  #? sampling
    groups, supergroups, members = tables.groups, tables.new_supergroups, tables.supergroup_groups  #? sampling
    for supergroup in supergroups.values():  #? sampling
        for state in supergroup.states.values():  #? sampling
            state.on_window_final()  #? sampling
    try:
        for gkey, group in self._groups.items():  #? aggregation
        for gkey, group in list(groups.items()):  #? sampling
            n_groups += 1
            supergroup = supergroups[group[0]]  #? sampling
            if supergroup is not held:  #? sampling
                held, states, superaggregates = supergroup, supergroup.states, supergroup.superaggregates  #? sampling
                {bind}  #? sampling
            @ n_tested += 1  #? having
            if not {having}:  #? having
                n_rejected += 1  #? having
                sgkey = group[0]  #? rejects
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
    except BaseException as exc:
        miss = {missed}(exc)
        raise
    finally:
        {tally}
        charge(account, "predicate_eval", n_tested)
        charge(account, "output_tuple", len(rows))
        charge(account, "hash_delete", n_rejected)  #? sampling
        charge(account, "function_call", function_calls)
        charge(account, "sfun_call", sfun_calls)
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

#: The points, in :func:`tally`'s order; the events that end a path early
POINTS = ("n_seen", "n_admitted", "n_probes", "n_predicates", "n_updates", "n_tested",
          "sfun_calls", "function_calls")
EXITS = ("n_dropped", "n_filtered", "n_rejected")


def in_place(layout: Layout, superaggregates: Sequence[Any] = ()) -> InPlace:
    """How a node updates and reads each aggregate of ``layout`` and each
    built-in among a plan's superaggregate classes, by ``(field, slot)``:
    the statement that takes the value ``{v}``, and the expression of the
    value.  A superaggregate class's own ``in_place`` only — a subclass
    overriding ``update`` inherits none."""
    forms = {("aggregates", slot): (layout.update(slot), layout.value(slot))
             for slot in range(len(layout.kinds))}
    for slot, cls in enumerate(superaggregates):
        if isinstance(cls, type) and "in_place" in vars(cls):
            update, field = vars(cls)["in_place"]
            target = f"superaggregates[{slot}]"
            forms["superaggregates", slot] = (update.format(target, "{v}"), f"{target}.{field}")
    return forms


def emit_node(
    op: Operator, label: str, analyzed: Any, layout: Optional[Layout] = None, spec: Any = None,
    forms: Optional[InPlace] = None,
) -> None:
    """Bind ``op.process_many`` to :data:`LOOP` and a windowed ``op``'s
    ``_emit_window`` to :data:`CLOSE`, written for the plan ``analyzed``
    describes — a selection; an aggregation, given its groups' ``layout``
    and the :func:`in_place` ``forms``; a sampling node, given its
    ``spec`` too.  An
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
        """What is read before the window test: ``key, sgkey = ...``, less
        ``key`` while items are deferred (:func:`key` builds it)."""
        nonlocal ordered
        items[:] = ["" if i in deferred else clause(at_input, depth, item.expr)
                    for i, item in enumerate(analyzed.group_by)]
        ordered = [items[names.index(name)] for name in analyzed.ordered_names]
        views = {} if deferred else {"key": range(len(items))}
        views.update({"sgkey": spec.nonordered_supergroup_indices} if spec else {})
        return f"{', '.join(views)} = " + ", ".join(
            f"({''.join(items[i] + ', ' for i in view)})" for view in views.values()
        ) if views else ""

    def key(depth: int) -> str:
        for i in deferred:
            items[i] = clause(at_input, depth, analyzed.group_by[i].expr)
        return f"key = ({''.join(t + ', ' for t in items)})" if deferred else ""

    def select(depth: int) -> str:
        node.bind, node.depth = at_input if kind == "selection" else at_group, depth
        return node.row([item.expr for item in analyzed.ast.select])

    def apply(depth: int, form: str, value: str) -> None:
        node.depth = depth
        node.line(form.format(v=value))
        node.count("n_updates")

    def update(depth: int) -> str:
        for call in analyzed.aggregates:
            arg, value = (call.args or (Star(),))[0], "1"  # count(*): the argument's value is irrelevant
            form = node.in_place["aggregates", call.slot][0]
            guard, _, then = form.partition(": ")
            if then and "{v}" not in guard and node.quiet(arg):  # ``first``: only its guard keeps a value
                node.depth = depth
                node.count("n_updates")
                node.line(guard + ":")
                node.line(then.format(v=clause(at_tuple, depth + 1, arg)))
                continue
            if not isinstance(arg, Star):
                value = clause(at_tuple, depth, arg)
            apply(depth, form, value)
        return ""

    def cleaning_by(depth: int) -> str:
        """CLEANING BY on the visited group.  When the walk calls no SFUN but
        readers, a quiet one is made once before it (``%once``), still counted per visit."""
        walk = [spec.cleaning_by] + [sa.value_expr for sa in superaggregates if sa.feeds == "group"]
        node.once = None if any(isinstance(n, StatefulCall) and not n.reader for e in walk for n in e.walk()) else {}
        return clause(at_group, depth, spec.cleaning_by)

    def fed(depth: int, feeds: str, bind: Any, call: str) -> str:
        for sa in superaggregates:
            if sa.feeds == feeds:
                value = clause(bind, depth, sa.value_expr)
                form = node.in_place.get(("superaggregates", sa.slot))
                apply(depth, form[0] if form else f"superaggregates[{sa.slot}].{call}", value)
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

    ordered: List[str] = []  # the locals the ordered group-by values are read into
    items: List[str] = []  # the locals the group-by values are read into
    # A bare column of the group key that is neither ordered nor in the
    # supergroup key is read once the WHERE has admitted the record, unless
    # the WHERE reads the key: a column read cannot raise, so nothing moves.
    where, sg = analyzed.ast.where, spec.nonordered_supergroup_indices if spec else ()
    deferred = [] if where is None or set(column_names(where)) & set(names) else [
        i for i, item in enumerate(analyzed.group_by)
        if isinstance(item.expr, ColumnRef) and item.name not in analyzed.ordered_names and i not in sg
    ]
    windowed, missed = len(analyzed.ordered_names), object()  # a slot, filled once written
    parts: Dict[str, Callable[[int], str]] = {
        "group_by": group_by,
        "key": key,
        "ordered": lambda depth: "".join(f"cw{i}," for i in range(windowed)) or "()",
        "unset": lambda depth: f"({'self, ' * windowed})",  # no record holds its operator
        "changed": lambda depth: " or ".join(
            f"{t} is not cw{i} and {t} != cw{i}" for i, t in enumerate(ordered)
        ) or "current is None",
        "window": lambda depth: f"({''.join(t + ', ' for t in ordered)})",
        "zero": lambda depth: node.const((0,) * len(POINTS)),
        "missed": lambda depth: node.const(missed),
        "bind": lambda depth: "%bind",
        "tally": lambda depth: "%tally",
        "where": lambda depth: clause(at_tuple, depth, analyzed.ast.where),
        "select": select,
        "new": lambda depth: node.const(object.__new__),
        "record": lambda depth: node.const(Record),
        "schema": lambda depth: node.const(op.output_schema),
        "tuple_fed": lambda depth: fed(depth, "tuple", at_tuple, "on_tuple(key, {v})"),
        "update": update,
        "group": lambda depth: layout.display(node.const),
        "group_fed": lambda depth: fed(depth, "group", at_key, "on_group_added(key, {v})"),
        "cleaning_when": lambda depth: clause(at_key, depth, spec.cleaning_when),
        "cleaning_by": cleaning_by,
        "once": lambda depth: "%once",
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

    def write(template: str, result: str, name: str, params: str, main: str) -> Any:
        nonlocal node
        node = _Emitter(bind_group((), "key"), forms)
        node.hoisted, node.scope = "", ""  # what a clause reads is in locals already
        node.binds = None if "per-record" in tags else {}  # a supergroup per record: looked up

        def fill(match: Any) -> str:
            # what a group created, visited or evicted does is counted as it runs
            node.arms = int(match[1] in ("group_fed", "cleaning_by", "evict"))
            return parts[match[1]](depth)

        for line in template.split("\n"):
            text, _, only = line.partition("  #? ")
            if not only or tags & set(only.split()):
                depth = (len(text) - len(text.lstrip())) // 4 + 1
                text = re.sub(r"\{(\w+)\}", fill, text)
                if text.strip():
                    node.depth = 1
                    node.line(text)
                if text.strip() == "for record in records:":  # the one-read rule's body
                    node.body = depth + 1
        expand("%bind", list((node.binds or {}).values()))  # every call is known now
        expand("%once", [f"{name} = {source}" for source, name in (node.once or {}).items()])
        slot = next(i for i, const in enumerate(node.consts) if const is missed)
        node.consts[slot], totals = tally(node, main)
        expand("%tally", totals)
        return MethodType(node.function(result, f"{label}:{name}", name, params), op)

    def expand(mark: str, body: List[str]) -> None:
        """Write ``body`` in place of each line ``mark``, at its indent."""
        for at in reversed([i for i, line in enumerate(node.lines) if line.strip() == mark]):
            node.lines[at : at + 1] = [node.lines[at][: -len(mark)] + line for line in body]

    if kind != "selection":
        op._emit_window = write(CLOSE, "rows", "_emit_window", "self", "n_groups")
    if type(op).process_many is Operator.process_many:
        op.process_many = write(LOOP, "out", "process_many", "self, records, out=None", "n_in")


def tally(node: _Emitter, main: str) -> Tuple[Callable[[BaseException], Tuple[int, ...]], List[str]]:
    """Take the points (``@ name += 1``) out of ``node``'s lines.  Return
    the statements that derive each of :data:`POINTS` — once per ``main``
    (a record, a group), less the exits before it — and a function of what
    a record (group) raised: the points it had yet to pass, found by the
    line its node's frame was on.  An ``else`` starts where its ``if`` was."""
    passed: Counter[str] = Counter()
    full, moved = passed, False
    block: Optional[int] = None  # the indent of ``main``'s block, while in it
    ifs: Dict[int, Counter[str]] = {}
    exits: List[Tuple[str, Counter[str]]] = []
    lines: List[str] = []
    marks: List[Tuple[int, Counter[str]]] = []
    for line in node.lines:
        text, indent = line.strip(), len(line) - len(line.lstrip())
        word = text.split(" ")[0]
        if word == "@":
            passed[text.split(" ")[1]] += 1
            moved = True
            continue
        if text == f"{main} += 1":
            passed, block, moved = Counter(), indent, True
        elif block is not None and indent < block:
            full, block, moved = passed, None, True
        elif text.endswith(" += 1") and word in EXITS:
            exits.append((word, Counter(passed)))
        elif word == "if":
            ifs[indent] = Counter(passed)
        elif text == "else:":
            passed, moved = Counter(ifs[indent]), True
        lines.append(line)
        if moved:  # from this line of the function on
            marks.append((len(lines) + 1, Counter(passed) if block is not None else full))
            moved = False
    node.lines, totals = lines, []
    for i, point in enumerate(POINTS):
        if full[point]:
            terms = [f" - {full[point] - before[point]} * {exit}" for exit, before in exits]
            totals.append(f"{point} += {full[point]} * {main}{''.join(terms)} - miss[{i}]")
    starts = [-1] + [number for number, _ in marks]  # -1, None: a line unknown
    misses = [tuple(full[p] - state[p] for p in POINTS) for state in [full] + [m for _, m in marks]]
    return lambda exc: misses[bisect_right(starts, exc.__traceback__.tb_lineno or 0) - 1], [
        re.sub(r"\b1 \* | - 0 \* \w+", "", line) for line in totals
    ]


def scannable(op: Operator) -> bool:
    """``op`` is a selection whose generated entry builds its rows, so a
    scan (:func:`emit_scan`) can stand in for it."""
    return op.kind_label == "selection" and "process_many" in vars(op) and not op._forwards


#: a comparison with the literal on its left, as the column's: ``200 < len`` is ``len > 200``
MIRRORED = {">": "<", ">=": "<=", "<": ">", "<=": ">="}

#: one comparison of a column against a numeric literal: (input schema, column, comparison, literal)
Bound = Tuple[int, str, str, Any]


def bound(op: Operator) -> Optional[Bound]:
    """``op``'s WHERE as a :data:`Bound`, the column on the left, when it
    is one comparison of a column of its input schema against an int or
    float literal; else None."""
    where = op.analyzed.ast.where
    if not isinstance(where, BinaryOp) or where.op not in MIRRORED:
        return None
    column, literal, comparison = where.left, where.right, where.op
    if isinstance(column, Literal):
        column, literal, comparison = literal, column, MIRRORED[comparison]
    if not (isinstance(column, ColumnRef) and isinstance(literal, Literal)
            and type(literal.value) in (int, float)):
        return None
    return id(op.analyzed.schema), column.name, comparison, literal.value


def implies(j: Bound, i: Bound) -> bool:
    """A record passing ``j`` passes ``i``: one column, one direction, and
    ``j``'s bound at least as tight — at an equal bound, ``>`` implies
    ``>=`` and not the reverse (``<`` and ``<=`` mirrored)."""
    if j[:2] != i[:2] or j[2][0] != i[2][0]:
        return False
    if j[3] != i[3]:
        return j[3] > i[3] if j[2][0] == ">" else j[3] < i[3]
    return j[2] == i[2] or len(j[2]) == 1


#: how deep a scan nests members: with a SELECT nested as deep as the
#: parser allows, its lines stay inside the tokenizer's 100 levels
NESTED = 16


def nesting(ops: Sequence[Operator]) -> List[Optional[int]]:
    """Each member's parent in a scan of ``ops``: the tightest other
    member its WHERE implies (:func:`implies`) — of two that imply each
    other, the earlier is the parent — or None, also for a member
    :data:`NESTED` parents deep."""
    bounds = [bound(op) for op in ops]
    parents: List[Optional[int]] = []
    for j, bj in enumerate(bounds):
        parent: Optional[int] = None
        tightest: Optional[Bound] = None
        for i, bi in enumerate(bounds):
            if (bi and bj and i != j and implies(bj, bi) and (i < j or not implies(bi, bj))
                    and (tightest is None or implies(bi, tightest))):
                parent, tightest = i, bi
        parents.append(parent)

    def depth(j: int) -> int:
        parent = parents[j]
        return 0 if parent is None else depth(parent) + 1

    for j in sorted(range(len(ops)), key=depth):  # a chain too deep starts again
        if depth(j) > NESTED:
            parents[j] = None
    return parents


def emit_scan(ops: Sequence[Operator], label: str) -> Callable[..., Tuple[List[Record], ...]]:
    """One pass for the :func:`scannable` selections ``ops`` over one
    stream: ``scan(records, contexts)`` reads each record once and returns
    each member's rows as its entry would emit them, counting member
    ``i``'s clause calls in ``contexts[i]``.  WHERE and SELECT are
    :data:`LOOP`'s selection terms.  A member whose WHERE implies
    another's is tested inside that one's ``if`` (:func:`nesting`), so a
    record failing ``len > 200`` is not tested against ``len > 1400``;
    the others follow one another in registration order.  A value that
    compares against one numeric literal without raising compares against
    any, so the scan raises on the batches the members' own nodes would.
    Members with equal SELECT lists (calling no function) and output
    attributes share a row, built for the first that passes in the scan's
    order and carrying its output schema, whatever the queries are named;
    under a member that built it, a sharer emits it with no test.  A scan
    of one is its member's entry, less the counters :func:`take` settles."""

    def select_key(i: int, op: Operator) -> Any:
        select = [item.expr for item in op.analyzed.ast.select]
        if any(isinstance(node, (ScalarCall, FunctionCall)) for expr in select for node in expr.walk()):
            return i
        # positions are bound per input schema: share under the same one only
        return id(op.analyzed.schema), op.output_schema.attributes, tuple(map(str, select))

    keys = [select_key(i, op) for i, op in enumerate(ops)]
    shared = {key: f"row{keys.index(key)}" for key in keys if keys.count(key) > 1}
    parents = nesting(ops)
    node = _Emitter(bind_group((), "key"))
    node.hoisted, node.body = "", 2  # what a clause reads is in locals already
    members = range(len(ops))
    node.line(f"{''.join(f'rows{i}, ' for i in members)}= runs = ({'[], ' * len(ops)})")
    node.line(f"{''.join(f'emit{i}, ' for i in members)}= {''.join(f'rows{i}.append, ' for i in members)}")
    node.line(f"{''.join(f'ctx{i}, ' for i in members)}= contexts")
    node.line("for record in records:")
    node.depth = 2
    node.line("v = record.values")
    top = len(node.lines)
    built: List[str] = []  # the shared rows a member written so far builds
    reset: List[str] = []  # ... and those a later member may find built by an earlier record

    def write(i: int, depth: int, held: Tuple[str, ...]) -> None:
        """Member ``i`` at ``depth``, then what nests in it; ``held``: the
        shared rows its enclosing members built."""
        op, start = ops[i], len(node.lines)
        node.bind, node.depth = bind_input(op.analyzed.schema, "v"), depth
        if op.analyzed.ast.where is not None:
            node.line(f"if {node.emit(op.analyzed.ast.where)}:")
            node.depth += 1
        inner, row = node.depth, shared.get(keys[i], "row")
        if row not in held:
            if row in built:  # by another branch, or not in this record
                reset.append(row)
                node.line(f"if {row} is None:")
                node.depth += 1
            if keys[i] in shared:
                built.append(row)
            node.line(f"{row} = {node.const(object.__new__)}({node.const(Record)})")
            values = node.row([item.expr for item in op.analyzed.ast.select])
            node.line(f"{row}.schema, {row}.values = {node.const(op.output_schema)}, {values}")
            node.depth = inner
        node.line(f"emit{i}({row})")
        if re.search(r"\bctx\b", "\n".join(node.lines[start:])):
            node.lines.insert(start, "    " * depth + f"ctx = ctx{i}")
        for j in members:
            if parents[j] == i:
                write(j, inner, held + (row,) if keys[i] in shared else held)

    for i in members:
        if parents[i] is None:
            write(i, 2, ())
    node.lines[top:top] = [f"        {row} = None" for row in dict.fromkeys(reset)]
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
    n_in, n_out = len(records), len(rows)
    charge, account = op._cost.charge, op._account
    charge(account, "tuple_read", n_in)
    charge(account, "predicate_eval", n_in if op.analyzed.ast.where is not None else 0)
    charge(account, "function_call", calls.function_calls)
    charge(account, "sfun_call", calls.sfun_calls)
    op.m_in.inc(n_in)
    op.m_filtered.inc(n_in - n_out)
    op.m_rows_out.inc(n_out)
    return out
