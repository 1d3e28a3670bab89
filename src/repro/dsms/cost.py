"""Deterministic cycle-cost model for reproducing the CPU-usage figures.

The paper reports CPU utilisation of queries running at 100,000 packets/s
on a dual 2.8 GHz server (Figs 5 and 6).  A Python reproduction cannot hit
those packet rates natively, so — per the substitution policy in DESIGN.md
— the *relative* CPU claims are reproduced through an explicit cost model:
every operator charges a deterministic number of "cycles" per logical
operation (tuple copy, hash probe, predicate evaluation, state update,
cleaning pass...), and CPU% is charged cycles divided by the cycles one
CPU offers over the stream-time span of the experiment.

The charge constants in :class:`CostBook` are calibrated so the model
reproduces the paper's anchor points:

* a low-level *selection* query forwarding every packet to a high-level
  query costs ≈ 60% of one CPU at 100 kpps (dominated by the per-tuple
  copy out of the ring buffer — paper §7.2);
* a low-level *basic subset-sum* query that forwards only ~1/25 of packets
  costs ≈ 4%;
* the full dynamic subset-sum sampling operator costs only 3–5% more CPU
  than a basic subset-sum selection at equal input.

What matters downstream is that the same book is used for every
configuration of an experiment, so ratios and orderings are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import CostModelError


@dataclass(frozen=True)
class CostBook:
    """Charge constants, in cycles per operation.

    Calibration anchor: at 100,000 pkts/s on a 2.8 GHz CPU there are
    28,000 cycles available per packet, so a 60% CPU low-level selection
    query spends ≈ 16,800 cycles per packet — almost all of it in the copy
    of the tuple from the ring buffer into the inter-query stream.
    """

    #: Copying one tuple from the ring buffer to a high-level query's input
    #: stream.  Dominant cost of naive low-level queries (paper Fig 5 text).
    tuple_copy: int = 16_000
    #: Reading a tuple in place (ring buffer or inter-query stream).
    tuple_read: int = 700
    #: Evaluating one scalar predicate / expression node.
    predicate_eval: int = 150
    #: One scalar function call (H(), UMAX(), ...).
    function_call: int = 80
    #: One stateful-function (SFUN) call, including the state-pointer pass.
    sfun_call: int = 250
    #: One hash-table probe (group, supergroup, or supergroup-group table).
    hash_probe: int = 150
    #: Inserting a new entry into a hash table.
    hash_insert: int = 900
    #: Deleting an entry from a hash table.
    hash_delete: int = 400
    #: Updating one aggregate or superaggregate value.
    aggregate_update: int = 100
    #: Per-group work during a cleaning pass (iterate + CLEANING BY eval).
    cleaning_per_group: int = 400
    #: Fixed overhead for starting one cleaning phase.
    cleaning_phase: int = 2_000
    #: Emitting one output tuple at a window boundary.
    output_tuple: int = 900
    #: Per-window fixed overhead (table swaps, state finalisation).
    window_flush: int = 3_000
    #: Dropping one tuple at admission under overload (load shedding).
    #: Deliberately cheap — the whole point of shedding is that refusing
    #: a tuple costs far less than processing it (paper §1: Gigascope
    #: degrades by dropping packets when the feed outruns the system).
    tuple_shed: int = 50
    #: Dead-lettering one malformed tuple at admission.  Slightly above
    #: shedding: the value vector is inspected (validation/coercion)
    #: before the tuple is refused into the quarantine stream.
    tuple_quarantined: int = 200
    #: Refusing one tuple at the serving edge because its tenant is over
    #: its cost quota (docs/SERVING.md).  Priced like overload shedding:
    #: a quota refusal is a counter bump, not per-value work.
    quota_shed: int = 50
    #: Skipping one tuple at the serving edge because the owning
    #: standing query's circuit breaker is open (poison-query
    #: quarantine, docs/SERVING.md).  Priced like the other serving-edge
    #: refusals: the tuple is counted and dropped, never evaluated.
    poison_skip: int = 50


class CostModel:
    """Accumulates charged cycles under named accounts.

    One account per query node ("low.selection", "high.sampling", ...);
    :meth:`cpu_percent` converts an account to the paper's CPU% metric.
    """

    def __init__(self, book: CostBook | None = None, clock_hz: float = 2.8e9) -> None:
        if clock_hz <= 0:
            raise CostModelError("clock_hz must be positive")
        self.book = book or CostBook()
        self.clock_hz = clock_hz
        self._accounts: Dict[str, int] = {}
        self.enabled = True

    # -- charging ------------------------------------------------------------

    def charge(self, account: str, operation: str, count: int = 1) -> None:
        """Charge ``count`` occurrences of ``operation`` to ``account``
        (none leaves no trace: operators settle a run's counts, some of
        them zero, in one call each)."""
        if not self.enabled or not count:
            return
        try:
            unit = getattr(self.book, operation)
        except AttributeError:
            raise CostModelError(f"unknown cost operation {operation!r}") from None
        if count < 0:
            raise CostModelError("cannot charge a negative count")
        self._accounts[account] = self._accounts.get(account, 0) + unit * count

    def absorb(self, accounts: Dict[str, int]) -> None:
        """Merge raw cycle balances into this model.

        Used by the sharded runtime: each worker shard charges its own
        model, and the parent folds the per-shard balances back under
        the same account names so ``cpu_percent`` reports one aggregate
        figure per query regardless of the shard count.
        """
        if not self.enabled:
            return
        for account, cycles in accounts.items():
            if cycles < 0:
                raise CostModelError("cannot absorb a negative balance")
            self._accounts[account] = self._accounts.get(account, 0) + cycles

    # -- reporting -------------------------------------------------------------

    def cycles(self, account: str) -> int:
        """Total cycles charged to one account (0 if never charged)."""
        return self._accounts.get(account, 0)

    def total_cycles(self) -> int:
        return sum(self._accounts.values())

    def cpu_percent(self, account: str, stream_seconds: float) -> float:
        """CPU utilisation of one account over ``stream_seconds`` of input.

        Mirrors the paper's metric: fraction of a single CPU consumed while
        keeping up with the feed.
        """
        if stream_seconds <= 0:
            raise CostModelError("stream_seconds must be positive")
        available = self.clock_hz * stream_seconds
        return 100.0 * self.cycles(account) / available

    def accounts(self) -> Dict[str, int]:
        """A copy of all account balances."""
        return dict(self._accounts)

    def reset(self) -> None:
        self._accounts.clear()


class _NullCostModel(CostModel):
    """A cost model that ignores all charges (used when accounting is off)."""

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False


#: Shared do-nothing cost model.
NULL_COST_MODEL = _NullCostModel()


# ---------------------------------------------------------------------------
# Group-table cardinality estimation (used by the plan lints, rule SA101)
# ---------------------------------------------------------------------------

#: Per-attribute distinct-value hints for the packet-header domain the
#: paper's feeds use.  ``uts`` is a nanosecond timestamp (every packet is
#: its own group — the subset-sum trick); addresses and ports span their
#: 16-bit synthetic ranges; anything unknown defaults conservatively.
ATTRIBUTE_CARDINALITY_HINTS: Dict[str, float] = {
    "time": 86_400.0,
    "uts": 1e9,
    "srcIP": 65_536.0,
    "destIP": 65_536.0,
    "srcPort": 65_536.0,
    "destPort": 65_536.0,
    "protocol": 256.0,
    "len": 1_500.0,
}

#: Distinct values assumed for a column with no hint.
DEFAULT_ATTRIBUTE_CARDINALITY = 10_000.0

#: Group-table entries above which rule SA101 warns (each entry holds the
#: group key plus its aggregate vector; 100k entries is the order of
#: magnitude where the paper starts cleaning instead of growing).
DEFAULT_GROUP_TABLE_BUDGET = 100_000.0


def estimate_expr_cardinality(expr: "Expr") -> float:  # noqa: F821
    """Estimated distinct values of a group-by expression.

    A coarse, order-of-magnitude model: column hints from
    :data:`ATTRIBUTE_CARDINALITY_HINTS`, bucketing division/modulo by a
    constant divides/caps the domain, and every other combinator keeps the
    largest input domain (hashes and arithmetic preserve distinctness at
    this resolution).
    """
    from repro.dsms.expr import BinaryOp, ColumnRef, Literal

    if isinstance(expr, Literal):
        return 1.0
    if isinstance(expr, ColumnRef):
        return ATTRIBUTE_CARDINALITY_HINTS.get(
            expr.name, DEFAULT_ATTRIBUTE_CARDINALITY
        )
    if isinstance(expr, BinaryOp) and expr.op in ("/", "%"):
        left = estimate_expr_cardinality(expr.left)
        divisor = expr.right
        if isinstance(divisor, Literal) and isinstance(divisor.value, (int, float)):
            k = abs(float(divisor.value))
            if k > 0:
                if expr.op == "/":
                    return max(1.0, left / k)
                return min(left, k)
        return left
    children = list(expr.children())
    if not children:
        return DEFAULT_ATTRIBUTE_CARDINALITY
    return max(estimate_expr_cardinality(child) for child in children)
