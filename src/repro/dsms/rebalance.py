"""Elastic skew-aware sharding: routing tables, hot keys, live migration.

Static hash partitioning (PR 2) assigns each partition-key value to the
shard ``stable_hash(value) % shards`` forever.  Under the paper's own
motivating workload — DDoS detection, where one victim key concentrates
nearly all traffic — that saturates a single shard while the others
idle.  This module turns the checkpoint/restore machinery of PR 3/5
from a recovery tool into a scaling tool:

* :class:`RoutingTable` replaces the pure modulo with an indirection —
  a fixed slot space (``hash % num_slots -> shard``) plus exact-hash
  overrides for pinned hot keys.  The default table is byte-identical
  to the legacy modulo (``num_slots`` is a multiple of the shard
  count), so routing only changes when a rebalance commits.
* :class:`Rebalancer` watches deterministic load signals gathered at
  the SPLIT edge (tuples routed per shard / per slot, heavy-hitter key
  counts) and, every ``check_interval`` rounds, produces a
  :class:`RoutingPlan`: slot reassignments, hot-key pins, shard-count
  scaling, and — when a single key is too hot to migrate away from —
  bounded *hot-key curation* that downsamples only that key's traffic
  with full shed-style cost accounting.
* :func:`migrate_states` rewrites per-shard :meth:`Gigascope.checkpoint`
  snapshots so that every group / supergroup / SFUN state lands on the
  shard the new table routes its key to — by asking each query's
  operator to cut and join its own snapshots (``split_snapshot`` /
  ``merge_snapshot``); no operator's layout is known here.  Migration
  happens at a barrier where the snapshots cover all shipped input (the
  supervisor's ``checkpoint_all``, or an inline round boundary), so a
  shard crash mid-migration recovers through the normal restart path
  from the already-rewritten checkpoints.

Decisions are **data-deterministic**: every input the planner consults
(tuple counts, key counts, the accumulator deciding which curated
records survive) is a pure function of the record stream, never of
wall-clock queue depths.  That is what lets a rebalanced run ride the
durable journal: the routing table and the rebalancer's counters are
journalled with each commit, and a ``--resume`` replays the same
decisions at the same rounds (docs/RESILIENCE.md).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dsms.sharded import ShardedGigascope

#: single-key share of traffic that gets the key pinned
HOT_KEY_FRACTION = 0.3
#: routing slots per shard (the "finer routing table" granularity)
SLOTS_PER_SHARD = 32
#: floor on routable shards
MIN_SHARDS = 1
#: heavy-hitter candidates tracked per decision window
TOP_K = 16


# --------------------------------------------------------------------------
# Routing
# --------------------------------------------------------------------------


class RoutingTable:
    """Slot-based routing with exact-hash overrides for hot keys.

    ``route(h)`` first consults ``hot`` (pinned key hashes), then the
    slot map ``slots[h % len(slots)]``.  ``shard_count`` is the number
    of shards the table may route to (shard ids ``0..shard_count-1``);
    the owning runtime's worker pool may be larger (retired shards stay
    alive to report results but receive no further traffic).
    """

    def __init__(
        self,
        slots: List[int],
        hot: Optional[Dict[int, int]] = None,
        shard_count: int = 1,
        version: int = 0,
    ) -> None:
        if not slots:
            raise ExecutionError("routing table needs at least one slot")
        self.slots = list(slots)
        self.hot: Dict[int, int] = dict(hot or {})
        self.shard_count = shard_count
        self.version = version

    @classmethod
    def default(cls, shards: int) -> "RoutingTable":
        """The table equivalent to legacy ``stable_hash % shards``.

        ``num_slots`` is a multiple of ``shards``, so
        ``slots[h % num_slots] == (h % num_slots) % shards == h % shards``
        — byte-identical routing until the first rebalance commits.
        """
        num_slots = max(1, shards) * SLOTS_PER_SHARD
        return cls(
            slots=[i % shards for i in range(num_slots)],
            shard_count=shards,
        )

    def route(self, h: int) -> int:
        pinned = self.hot.get(h)
        if pinned is not None:
            return pinned
        return self.slots[h % len(self.slots)]

    def copy(self) -> "RoutingTable":
        return RoutingTable(
            slots=list(self.slots),
            hot=dict(self.hot),
            shard_count=self.shard_count,
            version=self.version,
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "shard_count": self.shard_count,
            "num_slots": len(self.slots),
            "slots": list(self.slots),
            "hot": {str(h): shard for h, shard in sorted(self.hot.items())},
        }

    def snapshot(self) -> Dict[str, Any]:
        """Picklable state for the durable journal."""
        return {
            "slots": list(self.slots),
            "hot": dict(self.hot),
            "shard_count": self.shard_count,
            "version": self.version,
        }

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "RoutingTable":
        return cls(
            slots=snap["slots"],
            hot=snap["hot"],
            shard_count=snap["shard_count"],
            version=snap["version"],
        )


# --------------------------------------------------------------------------
# Policy / report
# --------------------------------------------------------------------------


@dataclass
class RebalancePolicy:
    """Tunables for elastic rebalancing (defaults suit test-scale runs).

    All thresholds are evaluated over the records observed since the
    previous decision point, never over wall-clock signals — the
    decisions must replay identically under ``--resume``.
    """

    #: evaluate a rebalance every N shipped rounds
    check_interval: int = 4
    #: skip a decision point that observed fewer records than this
    min_records: int = 256
    #: max-shard load over mean-shard load that counts as imbalanced
    imbalance_threshold: float = 1.5
    #: ceiling on routable shards (None: stay at the initial count)
    max_shards: Optional[int] = None
    #: records per decision window one shard should handle; drives
    #: scale up/down (None: shard count changes only on hot-key pins)
    shard_capacity: Optional[int] = None
    #: downsample a key once its traffic share exceeds curate_threshold
    curate: bool = False
    #: single-key share beyond which even a dedicated shard cannot keep
    #: up and the key's traffic is curated (requires ``curate=True``)
    curate_threshold: float = 0.6
    #: fraction of a curated key's records that are admitted
    curate_keep: float = 0.125


@dataclass
class RebalanceReport:
    """What the rebalancer did, for the run report and the CLI."""

    plans: int = 0
    deferred: int = 0
    migrated_groups: int = 0
    migrated_supergroups: int = 0
    moved_slots: int = 0
    pinned_keys: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    curated_keys: int = 0
    curated_records: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "plans": self.plans,
            "deferred": self.deferred,
            "migrated_groups": self.migrated_groups,
            "migrated_supergroups": self.migrated_supergroups,
            "moved_slots": self.moved_slots,
            "pinned_keys": self.pinned_keys,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "curated_keys": self.curated_keys,
            "curated_records": self.curated_records,
            "events": list(self.events),
        }


@dataclass
class RoutingPlan:
    """One committed-or-deferred rebalancing decision."""

    table: RoutingTable
    actions: List[Dict[str, Any]] = field(default_factory=list)
    #: key hashes newly placed under curation: hash -> (value, keep)
    curated: Dict[int, Tuple[Any, float]] = field(default_factory=dict)

    @property
    def reroutes(self) -> bool:
        return bool(self.actions)


class _Curation:
    """Deterministic per-key downsampler: admit ``keep`` of the stream.

    The accumulator pattern ``floor(n*keep) > floor((n-1)*keep)`` admits
    exactly ``floor(n*keep)`` of the first ``n`` records — a pure
    function of the key's record count, so a resumed run (which restores
    ``seen``/``admitted`` from the journal) curates identically.
    """

    __slots__ = ("value", "keep", "seen", "admitted")

    def __init__(self, value: Any, keep: float) -> None:
        self.value = value
        self.keep = keep
        self.seen = 0
        self.admitted = 0

    def admit(self) -> bool:
        self.seen += 1
        admit = int(self.seen * self.keep) > int((self.seen - 1) * self.keep)
        if admit:
            self.admitted += 1
        return admit

    def snapshot(self) -> Tuple[Any, float, int, int]:
        return (self.value, self.keep, self.seen, self.admitted)

    @classmethod
    def from_snapshot(cls, snap: Tuple[Any, float, int, int]) -> "_Curation":
        cur = cls(snap[0], snap[1])
        cur.seen, cur.admitted = snap[2], snap[3]
        return cur


class Rebalancer:
    """Deterministic skew detector + routing planner for one sharded run.

    The owner calls :meth:`route_record` for every record at the SPLIT
    edge and :meth:`maybe_plan` once per shipped round; a returned
    :class:`RoutingPlan` is applied (state migration, see
    :func:`migrate_states`) and then either :meth:`commit`-ted or
    :meth:`defer`-red (e.g. when shard windows are not aligned yet).
    """

    def __init__(self, policy: RebalancePolicy, table: RoutingTable) -> None:
        self.policy = policy
        self.table = table
        self.report = RebalanceReport()
        self.initial_shards = table.shard_count
        self._rounds = 0
        self._total = 0
        self._shard_counts: Dict[int, int] = {}
        self._slot_counts: Dict[int, int] = {}
        #: space-saving heavy hitters: hash -> [count, value]
        self._keys: Dict[int, List[Any]] = {}
        self._curations: Dict[int, _Curation] = {}
        #: records curated (dropped) per stream since the last drain
        self._curated_pending: Dict[str, int] = {}

    # -- split-edge hooks --------------------------------------------------

    def route_record(self, h: int, value: Any, stream: str) -> Tuple[int, bool]:
        """Route one record; returns ``(shard, admit)``.

        ``admit=False`` means the record belongs to a curated hot key
        and this occurrence is downsampled away (the caller accounts it
        like a shed tuple).
        """
        curation = self._curations.get(h)
        if curation is not None and curation.value == value:
            if not curation.admit():
                self.report.curated_records += 1
                self._curated_pending[stream] = (
                    self._curated_pending.get(stream, 0) + 1
                )
                return -1, False
        shard = self.table.route(h)
        self._total += 1
        self._shard_counts[shard] = self._shard_counts.get(shard, 0) + 1
        slot = h % len(self.table.slots)
        self._slot_counts[slot] = self._slot_counts.get(slot, 0) + 1
        self._observe_key(h, value)
        return shard, True

    def drain_curated(self) -> Dict[str, int]:
        """Per-stream curated-record counts since the last drain."""
        pending, self._curated_pending = self._curated_pending, {}
        return pending

    def _observe_key(self, h: int, value: Any) -> None:
        entry = self._keys.get(h)
        if entry is not None:
            entry[0] += 1
            return
        capacity = max(4, TOP_K * 2)
        if len(self._keys) < capacity:
            self._keys[h] = [1, value]
            return
        # Space-saving: evict the minimum-count candidate and inherit its
        # count — overestimates, never underestimates, a hot key's share.
        victim = min(self._keys.items(), key=lambda kv: (kv[1][0], kv[0]))
        count = victim[1][0]
        del self._keys[victim[0]]
        self._keys[h] = [count + 1, value]

    # -- decisions ---------------------------------------------------------

    def maybe_plan(self) -> Optional[RoutingPlan]:
        """Advance one round; at a decision point, return a plan (or None)."""
        self._rounds += 1
        if self._rounds % self.policy.check_interval != 0:
            return None
        plan = self._plan()
        self._reset_window()
        return plan

    def _reset_window(self) -> None:
        self._total = 0
        self._shard_counts = {}
        self._slot_counts = {}
        self._keys = {}

    def _plan(self) -> Optional[RoutingPlan]:
        policy = self.policy
        total = self._total
        if total < policy.min_records:
            return None
        table = self.table
        active = table.shard_count
        loads = [self._shard_counts.get(s, 0) for s in range(active)]
        mean = total / active
        imbalance = max(loads) / mean if mean else 0.0

        # Hot keys: any single key whose share crosses the pin threshold.
        hot: List[Tuple[int, int, Any]] = []  # (count, hash, value)
        for h, (count, value) in self._keys.items():
            if count >= HOT_KEY_FRACTION * total:
                hot.append((count, h, value))
        hot.sort(key=lambda item: (-item[0], item[1]))
        hot = hot[:TOP_K]

        # Target shard count.
        max_shards = policy.max_shards or self.initial_shards
        want = active
        if policy.shard_capacity:
            want = (total + policy.shard_capacity - 1) // policy.shard_capacity
        elif hot:
            want = active + 1  # give the cold traffic room away from the pin
        want = max(MIN_SHARDS, min(max_shards, want))

        needs_rebalance = (
            imbalance > policy.imbalance_threshold
            or want != active
            or any(
                table.route(h) != table.hot.get(h) and count >= HOT_KEY_FRACTION * total
                for count, h, _value in hot
                if h not in table.hot
            )
        )
        curated_new = self._plan_curation(hot, total)
        if not needs_rebalance and not curated_new:
            return None

        actions: List[Dict[str, Any]] = []
        new_table = table.copy()
        if want != active:
            actions.append(
                {
                    "action": "scale_up" if want > active else "scale_down",
                    "from": active,
                    "to": want,
                }
            )
            new_table.shard_count = want

        # Pin hot keys: each keeps its own dedicated routing entry so slot
        # moves never drag a pinned key's state around implicitly.
        pin_loads: Dict[int, int] = {s: 0 for s in range(want)}
        for count, h, value in hot:
            dest = table.hot.get(h)
            if dest is None or dest >= want:
                dest = min(pin_loads, key=lambda s: (pin_loads[s], s))
                actions.append(
                    {"action": "pin", "hash": h, "value": value, "shard": dest}
                )
            new_table.hot[h] = dest
            pin_loads[dest] += count
        hot_hashes = {h for _count, h, _value in hot}

        # Greedy LPT slot assignment: heaviest slots first onto the
        # currently lightest shard (pinned-key load counts as baseline).
        slot_loads = dict(self._slot_counts)
        for count, h, _value in hot:
            slot = h % len(table.slots)
            slot_loads[slot] = max(0, slot_loads.get(slot, 0) - count)
        order = sorted(
            range(len(new_table.slots)),
            key=lambda s: (-slot_loads.get(s, 0), s),
        )
        shard_loads = dict(pin_loads)
        moved = 0
        for slot in order:
            dest = min(shard_loads, key=lambda s: (shard_loads[s], s))
            if new_table.slots[slot] != dest:
                moved += 1
            new_table.slots[slot] = dest
            shard_loads[dest] += slot_loads.get(slot, 0)
        if moved:
            actions.append({"action": "move_slots", "count": moved})

        if not actions and not curated_new:
            return None
        new_table.version = table.version + 1
        return RoutingPlan(table=new_table, actions=actions, curated=curated_new)

    def _plan_curation(
        self, hot: List[Tuple[int, int, Any]], total: int
    ) -> Dict[int, Tuple[Any, float]]:
        if not self.policy.curate:
            return {}
        curated: Dict[int, Tuple[Any, float]] = {}
        for count, h, value in hot:
            if h in self._curations:
                continue
            if count >= self.policy.curate_threshold * total:
                curated[h] = (value, self.policy.curate_keep)
        return curated

    def commit(self, plan: RoutingPlan, migrated: Tuple[int, int] = (0, 0)) -> None:
        """Install a plan after its state migration succeeded."""
        self.table = plan.table
        self.report.plans += 1
        self.report.migrated_groups += migrated[0]
        self.report.migrated_supergroups += migrated[1]
        for action in plan.actions:
            kind = action["action"]
            if kind == "pin":
                self.report.pinned_keys += 1
            elif kind == "move_slots":
                self.report.moved_slots += action["count"]
            elif kind == "scale_up":
                self.report.scale_ups += 1
            elif kind == "scale_down":
                self.report.scale_downs += 1
            self.report.events.append(
                {"round": self._rounds, "version": plan.table.version, **action}
            )
        for h, (value, keep) in plan.curated.items():
            self._curations[h] = _Curation(value, keep)
            self.report.curated_keys += 1
            self.report.events.append(
                {
                    "round": self._rounds,
                    "action": "curate",
                    "value": value,
                    "keep": keep,
                }
            )

    def defer(self, plan: RoutingPlan, reason: str) -> None:
        """Record that a plan could not be applied yet (windows not
        aligned); curation still engages — it needs no state move."""
        self.report.deferred += 1
        self.report.events.append(
            {"round": self._rounds, "action": "defer", "reason": reason}
        )
        for h, (value, keep) in plan.curated.items():
            if h not in self._curations:
                self._curations[h] = _Curation(value, keep)
                self.report.curated_keys += 1

    # -- durability --------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Picklable snapshot for the durable journal.

        Captures everything a resumed run needs to make the *same*
        decisions on the *same* replayed input: the routing table, the
        observation window, and the curation accumulators.
        """
        return {
            "table": self.table.snapshot(),
            "initial_shards": self.initial_shards,
            "rounds": self._rounds,
            "total": self._total,
            "shard_counts": dict(self._shard_counts),
            "slot_counts": dict(self._slot_counts),
            "keys": {h: list(entry) for h, entry in self._keys.items()},
            "curations": {
                h: cur.snapshot() for h, cur in self._curations.items()
            },
            "report": pickle.dumps(self.report),
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        self.table = RoutingTable.from_snapshot(snap["table"])
        self.initial_shards = snap["initial_shards"]
        self._rounds = snap["rounds"]
        self._total = snap["total"]
        self._shard_counts = dict(snap["shard_counts"])
        self._slot_counts = dict(snap["slot_counts"])
        self._keys = {h: list(entry) for h, entry in snap["keys"].items()}
        self._curations = {
            h: _Curation.from_snapshot(entry)
            for h, entry in snap["curations"].items()
        }
        self.report = pickle.loads(snap["report"])
        self._curated_pending = {}


# --------------------------------------------------------------------------
# State migration over checkpoint snapshots
# --------------------------------------------------------------------------


class MigrationDeferred(Exception):
    """Raised when shard windows are not aligned; retry at a later barrier."""


def migrate_states(
    owner: "ShardedGigascope",
    states: Dict[int, Dict[str, Any]],
    new_table: RoutingTable,
) -> Tuple[Dict[int, Dict[str, Any]], set, Tuple[int, int]]:
    """Rewrite per-shard checkpoint snapshots to match ``new_table``.

    ``states`` maps shard id -> :meth:`Gigascope.checkpoint` dict for
    every shard that currently holds state; destination shards without a
    snapshot get a pristine one from the owner (``shard_state``).  One
    pass, query by query: the query's operator cuts out of every source
    snapshot what ``new_table`` routes elsewhere, then joins each part
    into its destination — source shards ascending, destinations
    ascending.  Returns ``(states, changed, (groups, supergroups))``
    where ``changed`` is the set of shard ids whose snapshot was
    rewritten — sources that lost state and destinations that gained it.

    Raises :class:`MigrationDeferred` when, for some query, the shards
    losing or gaining state disagree on the current window: moving a
    window-w group into a shard already past w would mis-emit it.
    ``states`` is half-rewritten by then and must be discarded — only
    its containers are (a ``checkpoint()`` view per inline shard owns
    them; an unpickled blob per worker), nothing was installed, and
    the shards run on under the old routing until the caller retries at
    the next barrier (worker state is a pure function of the input, so a
    resumed run defers and retries at the same rounds).
    """
    from repro.dsms.sharded import stable_hash

    def route(value: Any) -> int:
        return new_table.route(stable_hash(value))

    changed: set = set()
    groups_moved = supergroups_moved = 0
    for name in owner._order:
        # Every shard runs the same plan, so shard 0's operator answers
        # for all of them; a shardable stateful plan keys its state by
        # its root stream's partition column (``partition_info``).
        operator = owner._handles[name].shard_handles[0].operator
        column = owner._partition[min(owner._nodes[name].roots)]
        snaps = {shard: state["queries"][name]["operator"] for shard, state in states.items()}
        parts = {
            src: operator.split_snapshot(snaps[src], column, route, src)
            for src in sorted(snaps)
        }
        involved = {src for src, cut in parts.items() if cut}
        involved.update(dest for cut in parts.values() for dest in cut)
        # ``current_window`` is the one key of an operator's snapshot
        # read here (see repro.dsms.operators.base).
        windows = {
            snaps[shard]["current_window"]
            for shard in involved
            if shard in snaps and snaps[shard]["current_window"] is not None
        }
        if len(windows) > 1:
            raise MigrationDeferred(
                f"query {name!r}: shards disagree on the current window"
                f" ({sorted(windows)})"
            )
        window = next(iter(windows), None)
        changed |= involved
        for src, cut in parts.items():
            for dest, part in sorted(cut.items()):
                if dest not in snaps:
                    states[dest] = owner.shard_state(dest)
                    snaps[dest] = states[dest]["queries"][name]["operator"]
                moved = operator.merge_snapshot(snaps[dest], part, window)
                groups_moved += moved[0]
                supergroups_moved += moved[1]
    return states, changed, (groups_moved, supergroups_moved)
