"""A deliberately naive reference interpreter of the paper's operator.

PAPER.md §1 gives the operator one semantics (paper §5, §6.4); this
module follows it literally, one record at a time, and is what every
deployment's *rows* are checked against (``tests/test_oracle.py``):

1. GROUP BY over the input columns; the ordered group-by values are the
   window id.  A window id other than the open one closes the window —
   unless it orders before the open one (a *late* tuple) or cannot be
   ordered against it (*incomparable*): such a tuple is dropped and the
   window stays open (DESIGN.md §2, "Hardening beyond the paper").
2. Find or create the tuple's supergroup (its non-ordered supergroup
   values); a new one's SFUN states start from the last window's
   supergroup of that key (``state_init(new, old)``).
3. WHERE; FALSE drops the tuple.
4. Tuple-fed superaggregates see the tuple; the group is found or
   created and its aggregates updated; a new group joins the group-fed
   superaggregates.
5. CLEANING WHEN; TRUE runs a cleaning phase: CLEANING BY per group of
   the supergroup, in insertion order, evicting the groups it is FALSE
   for (which leave the superaggregates).
6. At the close: every new-window state hears ``on_window_final``, then
   HAVING per group in insertion order — a rejected group is evicted
   like a cleaned one, so later groups see the superaggregates without
   it — and SELECT emits the survivors.  The supergroups become the
   old window's.

A plain aggregation is the same operator with no SFUNs, supergroups or
cleaning; a selection is WHERE and SELECT.  The SFUN packs, UDAFs and
superaggregates are reused unchanged (they are the algorithms, with
suites of their own); a built-in aggregate keeps every value it is fed
and is computed when read (:class:`_Builtin`), where the engines keep
it in cells.  Only the operator is reimplemented here, and
every expression goes through :func:`tests.dsms._naive_eval.naive_evaluate`.
There is no cost model, no metric, no run and no shard.  Scoping is
PAPER.md's: GROUP BY sees input columns; WHERE and aggregate arguments
see the tuple's group-by values first, then its columns; every later
clause sees group-by values only.

Under ``shed=N`` a stream's records reach its queries only while the
current value of its first increasing attribute has admitted fewer than
N: a record whose value is greater starts a new count, any other —
equal, late, ``None``, NaN — counts against the current value (before
the first orderable value, against none).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.dsms.aggregates import BUILTINS, Cells
from repro.dsms.expr import EvalContext, Star
from repro.dsms.parser import compile_query
from repro.errors import ExecutionError
from repro.streams.schema import Ordering

from tests.dsms._naive_eval import naive_evaluate


class _Builtin:
    """A built-in aggregate, the plainest way: every value kept, the
    aggregate computed from them when read."""

    def __init__(self, cells: Cells) -> None:
        self.name = next(name for name, known in BUILTINS.items() if known == cells)
        self.values: List[Any] = []

    def update(self, value: Any) -> None:
        self.values.append(value)

    def value(self) -> Any:
        name, values = self.name, self.values
        if name == "count":
            return len(values)
        if name == "count_distinct":
            return len(set(values))
        if name in ("first", "last"):
            return (values[0] if name == "first" else values[-1]) if values else None
        best: Any = None
        if name in ("min", "max"):  # the first of equals, and a NaN seen first, is kept
            for value in values:
                if best is None or (value < best if name == "min" else value > best):
                    best = value
            return best
        total: Any = 0
        for value in values:
            total += value
        if name == "sum":
            return total
        return total / len(values) if values else None  # avg


class _Scope(EvalContext):
    """What an expression sees: columns by name, and the call fields."""

    def __init__(self, node: "_Node", columns: Dict[str, Any]) -> None:
        super().__init__(node.registries.scalars.functions, node.registries.stateful.functions)
        self.columns = columns

    def column(self, name: str) -> Any:
        if name in self.columns:
            return self.columns[name]
        raise ExecutionError(f"column {name!r} not available in this context")


class _Node:
    """One query of the DAG: its plan, its state, the queries reading it."""

    def __init__(self, plan: Any) -> None:
        self.plan, self.registries = plan, plan.registries
        self.names = plan.output_schema.names
        self.children: List[_Node] = []
        self.rows: List[Tuple[Any, ...]] = []
        spec = plan.sampling
        if spec is None:  # a selection, with one global state set if stateful
            self.states = self.registries.stateful.instantiate_states(plan.analyzed.state_names)
            return
        self.spec = spec
        self.group_names = spec.group_by_names
        self.window: Optional[Tuple[Any, ...]] = None
        #: group key -> (aggregates, supergroup key), in insertion order
        self.groups: Dict[Tuple[Any, ...], Tuple[List[Any], Tuple[Any, ...]]] = {}
        #: supergroup key -> (states, superaggregates), this window's and last window's
        self.supergroups: Dict[Tuple[Any, ...], Tuple[Dict[str, Any], List[Any]]] = {}
        self.old_supergroups: Dict[Tuple[Any, ...], Tuple[Dict[str, Any], List[Any]]] = {}

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, expr: Any, columns: Dict[str, Any], **fields: Any) -> Any:
        scope = _Scope(self, columns)
        for name, value in fields.items():
            setattr(scope, name, value)
        return naive_evaluate(expr, scope)

    def group_scope(self, key: Tuple[Any, ...]) -> Dict[str, Any]:
        return dict(zip(self.group_names, key))

    # -- input ----------------------------------------------------------------

    def take(self, columns: Dict[str, Any]) -> None:
        if self.plan.sampling is None:
            self.select(columns)
        else:
            self.aggregate(columns)

    def emit(self, values: Tuple[Any, ...]) -> None:
        self.rows.append(values)
        for child in self.children:
            child.take(dict(zip(self.names, values)))

    def select(self, columns: Dict[str, Any]) -> None:
        ast = self.plan.analyzed.ast
        if ast.where is not None and not self.evaluate(ast.where, columns, states=self.states):
            return
        self.emit(tuple(self.evaluate(item.expr, columns, states=self.states) for item in ast.select))

    def aggregate(self, columns: Dict[str, Any]) -> None:
        spec = self.spec
        key = tuple(self.evaluate(item.expr, columns) for item in spec.group_by)
        window = tuple(key[i] for i in spec.ordered_indices)
        if self.window is not None and window != self.window:
            try:
                if window < self.window:
                    return  # late: its window closed and was emitted
            except TypeError:
                return  # incomparable: no window to put it in
            self.close()
        self.window = window
        sg_key = tuple(key[i] for i in spec.nonordered_supergroup_indices)
        if sg_key not in self.supergroups:
            old = self.old_supergroups.get(sg_key)
            self.supergroups[sg_key] = (
                self.registries.stateful.instantiate_states(
                    spec.state_names, old[0] if old is not None else None
                ),
                [
                    self.registries.superaggregates.create(sa.name, sa.const_args)
                    for sa in spec.superaggregates
                ],
            )
        states, supers = self.supergroups[sg_key]
        at_tuple = {**columns, **self.group_scope(key)}
        calls = {"states": states, "superaggregates": supers}
        if spec.where is not None and not self.evaluate(spec.where, at_tuple, **calls):
            return
        for sa, superaggregate in zip(spec.superaggregates, supers):
            if sa.feeds == "tuple":
                superaggregate.on_tuple(key, self.evaluate(sa.value_expr, at_tuple, **calls))
        new = key not in self.groups
        if new:
            kinds = [self.registries.aggregates.factory(node.name) for node in spec.aggregates]
            aggregates = [_Builtin(kind) if isinstance(kind, Cells) else kind() for kind in kinds]
            self.groups[key] = (aggregates, sg_key)
        aggregates = self.groups[key][0]
        for node, aggregate in zip(spec.aggregates, aggregates):
            fed = node.args and not isinstance(node.args[0], Star)  # count(*) is fed 1
            aggregate.update(self.evaluate(node.args[0], at_tuple, **calls) if fed else 1)
        if new:
            for sa, superaggregate in zip(spec.superaggregates, supers):
                if sa.feeds == "group":
                    superaggregate.on_group_added(key, self.group_value(sa, key, aggregates, calls))
        if spec.cleaning_when is not None and self.evaluate(
            spec.cleaning_when, self.group_scope(key), **calls
        ):
            for member in [k for k, (_, sg) in self.groups.items() if sg == sg_key]:
                if not self.evaluate(
                    spec.cleaning_by, self.group_scope(member),
                    aggregates=self.groups[member][0], **calls,
                ):
                    self.evict(member, calls)

    def group_value(self, sa: Any, key: Tuple[Any, ...], aggregates: List[Any], calls: Dict[str, Any]) -> Any:
        return self.evaluate(sa.value_expr, self.group_scope(key), **{**calls, "aggregates": aggregates})

    def evict(self, key: Tuple[Any, ...], calls: Dict[str, Any]) -> None:
        aggregates, _ = self.groups.pop(key)
        for sa, superaggregate in zip(self.spec.superaggregates, calls["superaggregates"]):
            value = self.group_value(sa, key, aggregates, calls) if sa.feeds == "group" else None
            superaggregate.on_group_removed(key, value)

    def close(self) -> None:
        spec = self.spec
        for states, _ in self.supergroups.values():
            for state in states.values():
                state.on_window_final()
        for key in list(self.groups):
            aggregates, sg_key = self.groups[key]
            states, supers = self.supergroups[sg_key]
            calls = {"states": states, "superaggregates": supers, "aggregates": aggregates}
            at_group = self.group_scope(key)
            if spec.having is not None and not self.evaluate(spec.having, at_group, **calls):
                self.evict(key, calls)
                continue
            self.emit(tuple(self.evaluate(item.expr, at_group, **calls) for item in spec.select_items))
        self.groups = {}
        self.old_supergroups, self.supergroups = self.supergroups, {}
        self.window = None

    def flush(self) -> None:
        if self.plan.sampling is not None and self.window is not None:
            self.close()


class Oracle:
    """Queries over the streams of ``registries``, run record by record.

    ``add(text, name)`` compiles a query against those registries (its
    output becomes a stream later queries may read); ``feed(records)``
    hands every record ``shed_threshold`` does not shed to the queries
    reading its stream; ``finish()``
    closes every open window in registration order; ``run`` is both, and
    returns each query's rows.  When an expression raises, so does the
    call, and ``rows`` holds what every query emitted before that.
    """

    def __init__(self, registries: Any, shed_threshold: Optional[int] = None) -> None:
        self.registries = registries
        self.shed_threshold = shed_threshold
        self.nodes: Dict[str, _Node] = {}
        self.readers: Dict[str, List[_Node]] = {}
        #: per stream: the current value of its increasing attribute, and
        #: how many records that value has admitted
        self.seconds: Dict[str, List[Any]] = {}

    def add(self, text: str, name: str) -> None:
        plan = compile_query(text, self.registries, query_name=name)
        node = self.nodes[name] = _Node(plan)
        source = plan.analyzed.ast.from_stream
        if source in self.nodes:
            self.nodes[source].children.append(node)
        else:
            self.readers.setdefault(source, []).append(node)
        self.registries.schemas[name] = plan.output_schema

    @property
    def rows(self) -> Dict[str, List[Tuple[Any, ...]]]:
        return {name: node.rows for name, node in self.nodes.items()}

    def shed(self, record: Any) -> bool:
        schema = record.schema
        time = next(a.name for a in schema.attributes if a.ordering is Ordering.INCREASING)
        value = record.values[schema.index_of(time)]
        current = self.seconds.setdefault(schema.name, [None, 0])
        if current[0] is None:
            newer = value is not None and value == value
        else:
            try:
                newer = value > current[0]
            except TypeError:
                newer = False
        if newer:
            current[:] = [value, 0]
        if current[1] == self.shed_threshold:
            return True
        current[1] += 1
        return False

    def feed(self, records: Any) -> None:
        for record in records:
            if self.shed_threshold is not None and self.shed(record):
                continue
            columns = dict(zip(record.schema.names, record.values))
            for node in self.readers.get(record.schema.name, ()):
                node.take(columns)

    def finish(self) -> None:
        for node in self.nodes.values():
            node.flush()

    def run(self, records: Any) -> Dict[str, List[Tuple[Any, ...]]]:
        self.feed(records)
        self.finish()
        return self.rows
