"""Which deployment may run which query: one table, two readers.

An :class:`ExecTarget` describes a deployment: every runtime derives its
own (``Gigascope.target``, ``ShardedGigascope.target``,
``DurableRunner.target``, the serving engine's per instance) and
``repro lint --target`` parses one.  :data:`RULES` has a row per thing a
deployment asks of a query plan.  The linter reports every row a plan
fails, with a caret (:func:`repro.analysis.execsafety.check_execsafety`);
the runtimes raise the first (:func:`require_runnable`).  What is left
at a refusal site is what only a runtime knows (DESIGN.md §10).
"""

from __future__ import annotations

from dataclasses import Field, asdict, dataclass, field, fields
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.dsms.parser.analyzer import Registries
from repro.dsms.parser.planner import QueryPlan, partition_info


@dataclass(frozen=True)
class ExecTarget:
    """A deployment, built by ``repro.deploy.deploy(target)``, the one
    place a target becomes one: ``ShardedGigascope(shards=, supervise=,
    shed_threshold=)``, a serial ``Gigascope``, or for ``serve`` the
    engine over serial ones; ``DurableRunner`` drives it when ``durable``.
    A combination no runtime can build is a :class:`ValueError`.

    A boolean field is a flag of the ``--target`` grammar, any other a
    ``key=N`` item (``metadata["key"]`` where the key is not the field
    name): :meth:`describe`, :meth:`to_json` and :func:`parse_target`
    read the fields, so a new one is declared here and nowhere else.
    """

    shards: Optional[int] = None
    supervise: bool = False
    durable: bool = False
    serve: bool = False
    shed_threshold: Optional[int] = field(default=None, metadata={"key": "shed"})

    def __post_init__(self) -> None:
        if self.supervise and self.shards is None:
            raise ValueError(
                "target 'supervise' needs shards=N: only a sharded"
                " deployment has workers to supervise"
            )
        if self.serve and self.shards is not None:
            raise ValueError(
                "target 'serve' excludes shards=N: the serving engine"
                " drives serial Gigascope instances"
            )
        if self.shed_threshold is not None and self.shed_threshold < 1:
            raise ValueError(
                f"shed threshold must be >= 1 (got {self.shed_threshold}):"
                " a lower one sheds every record"
            )

    @property
    def sharded(self) -> bool:
        """SPLIT/MERGE execution, whose plan rules hold for one shard too."""
        return self.shards is not None

    @property
    def checkpoints(self) -> bool:
        """The deployment snapshots operator state as it runs (SA305): a
        durable journal, or supervised shard workers."""
        return self.durable or self.supervise

    def describe(self) -> str:
        parts = []
        for key, spec in _grammar().items():
            value = getattr(self, spec.name)
            if value is not None and value is not False:
                parts.append(key if value is True else f"{key}={value}")
        return ",".join(parts) or "serial"

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


def _grammar() -> Dict[str, Field]:
    """``--target`` item key -> the field it sets, in field order."""
    return {f.metadata.get("key", f.name): f for f in fields(ExecTarget)}


def grammar_hint() -> str:
    """The ``--target`` items, ``shards=N`` style for a keyed value."""
    items = [
        key if spec.default is False else f"{key}=N" for key, spec in _grammar().items()
    ]
    return ", ".join(items[:-1]) + ", or " + items[-1]


def parse_target(text: str) -> ExecTarget:
    """Parse a ``--target`` value like ``shards=4,durable,supervise``:
    comma-separated flags (``durable``) and keyed values (``shards=N``).
    Raises :class:`ValueError` with a usage hint on anything else, and
    on a combination :class:`ExecTarget` refuses.
    """
    grammar = _grammar()
    target: Dict[str, Any] = {}
    for raw in text.split(","):
        item = raw.strip()
        if not item:
            continue
        key, _, value = (part.strip().lower() for part in item.partition("="))
        spec = grammar.get(key)
        if spec is None:
            raise ValueError(f"unknown target item {item!r}; expected {grammar_hint()}")
        if spec.default is False:
            if value:
                raise ValueError(
                    f"target flag {key!r} takes no value (got {item!r})"
                )
            target[spec.name] = True
            continue
        try:
            number = int(value)
        except ValueError:
            raise ValueError(
                f"target {key!r} needs an integer value (got {item!r})"
            ) from None
        if number < 1:
            raise ValueError(f"target {key!r} must be >= 1 (got {number})")
        target[spec.name] = number
    return ExecTarget(**target)


# -- the table ---------------------------------------------------------------------

Reason = Callable[[QueryPlan, Registries, ExecTarget], Optional[str]]
States = Callable[[QueryPlan, Registries], Sequence[str]]


@dataclass(frozen=True)
class Rule:
    """One thing a deployment asks of a query plan."""

    id: str
    title: str  #: one line for the SARIF rule catalogue
    applies: Callable[[ExecTarget], bool]
    reason: Reason  #: why this plan does not meet the demand, or None
    message: str  #: the linter's sentence around ``{reason}`` and ``{target}``
    clause: str  #: the clause the linter points at ...
    hint: str
    culprits: States = lambda plan, registries: ()  #: ... or an SFUN call on one of these
    error: bool = True  #: False: a warning — the query runs anyway, at a cost


def opted_out(plan: QueryPlan, registries: Registries) -> Sequence[str]:
    """The plan's SFUN states whose class declares ``checkpointable = False``."""
    return [
        name for name in plan.analyzed.state_names
        if not registries.stateful.checkpointable(name)
    ]


def _needs_snapshots(plan: QueryPlan, registries: Registries, target: ExecTarget) -> Optional[str]:
    """The demand of a consumer of operator checkpoints; the reason names
    every state that opts out of them, so one pass fixes the query."""
    states = opted_out(plan, registries)
    if not states:
        return None
    others = f" (as do {', '.join(map(repr, states[1:]))})" if states[1:] else ""
    return (
        f"SFUN state {states[0]!r} declares checkpointable=False{others},"
        " so this query cannot ride a durable journal commit or a worker checkpoint"
    )


def _unpartitionable(plan: QueryPlan, registries: Registries, target: ExecTarget) -> Optional[str]:
    info = partition_info(plan)  # candidates: None = any column will do, () = none
    return info.reason if info.candidates == () else None


def _private_feed(plan: QueryPlan, registries: Registries, target: ExecTarget) -> Optional[str]:
    from repro.serving.sharing import share_signature  # imports the runtimes

    return share_signature(plan, registries, shed_threshold=target.shed_threshold)[1]


#: In refusal order: a runtime raises the first row that answers.  The
#: snapshot row comes first because no rewrite of the query lifts it
#: (the state class has to change), so a query failing several hears that.
RULES: Tuple[Rule, ...] = (
    Rule(
        "SA305",
        "SFUN state is not checkpointable under a durable or supervised target",
        lambda target: target.checkpoints,
        _needs_snapshots,
        "{reason} (target {target})",
        "FROM",
        "make the state checkpointable (implement checkpoint()/restore()"
        " and drop the opt-out) or run without durable / supervise",
        culprits=opted_out,
    ),
    Rule(
        "SA301",
        "output has no ordered attribute for the sharded MERGE",
        lambda target: target.sharded,
        lambda plan, registries, target: None
        if plan.output_schema.ordered_attributes()
        else "its output has no ordered attribute for the recombining MERGE",
        "cannot shard this query (target {target}): {reason}",
        "SELECT",
        "select the window variable (an ordered column) first;"
        " ShardedGigascope.add_query refuses this plan at runtime",
    ),
    Rule(
        "SA302",
        "operator state cannot be hash-partitioned",
        lambda target: target.sharded,
        _unpartitionable,
        "cannot shard this query (target {target}): {reason}",
        "GROUP BY",
        "ShardedGigascope.add_query refuses this plan at runtime",
        # a stateful selection has no keys: the call whose global state it is
        culprits=lambda plan, registries: plan.analyzed.state_names
        if plan.kind == "stateful_selection"
        else (),
    ),
    Rule(
        "SA401",
        "query cannot share a served feed",
        lambda target: target.serve,
        _private_feed,
        "query cannot share a served feed: {reason}",
        "FROM",
        "the standing-query server will run this query on a private"
        " low-level node; it pays the full per-tuple scan instead of"
        " joining a shared prefilter group (docs/SERVING.md)",
        error=False,
    ),
)


def refusals(
    target: ExecTarget, plan: QueryPlan, registries: Registries
) -> Iterator[Tuple[Rule, str]]:
    """The rows ``target`` holds ``plan`` to and the plan fails, each
    with its reason."""
    for rule in RULES:
        reason = rule.reason(plan, registries, target) if rule.applies(target) else None
        if reason is not None:
            yield rule, reason


def require_runnable(
    target: ExecTarget, plan: QueryPlan, registries: Registries, name: str, error: type
) -> None:
    """The runtimes' reading: raise ``error`` for the first row that
    forbids ``target`` to run query ``name`` (a warning row forbids
    nothing)."""
    for rule, reason in refusals(target, plan, registries):
        if rule.error:
            raise error(f"target {target.describe()} cannot run query {name!r}: {reason}")
