"""Per-query fault isolation for the serving layer (docs/SERVING.md).

A standing-query server multiplexes many independently owned queries
over one feed; one tenant's buggy scalar must never take the feed loop
down for everyone else.  The isolation discipline mirrors what the
sharded runtime already does for workers (PR 3's supervisor) and the
ingest edge does for malformed records (PR 5's quarantine), applied per
*query*:

* :class:`CircuitBreaker` — the per-query fault budget.  Purely
  batch-count-driven (no clocks), so breaker decisions are a
  deterministic function of the data and replay byte-identically on
  ``--resume``: CLOSED → OPEN after ``failure_threshold`` consecutive
  batch failures → after ``cooldown_batches`` skipped batches,
  HALF_OPEN admits one probe batch → success re-CLOSES, failure
  re-OPENs.

* :class:`DeadLetterLog` — the bounded quarantine record.  Every batch
  a query failed on (exception, record-offset span, batch size, breaker
  verdict) is retained for inspection and JSONL export, exactly like
  the ingest-edge :class:`~repro.streams.sources.QuarantineStream` —
  counted, capped, never the unbounded buffer that sinks the process it
  protects.

Both carry ``checkpoint()``/``restore()`` so quarantine state rides the
serving journal's commits and a resumed serve skips the same batches
the original would have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.streams.sources import BoundedDeadLetters

#: breaker states, in escalation order
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: numeric encoding for the ``serving_breaker_state`` gauge
#: (0 = closed, 1 = half-open probe, 2 = open).
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass(frozen=True)
class BreakerConfig:
    """The per-query error budget.

    ``failure_threshold`` consecutive batch failures open the breaker;
    while open, ``cooldown_batches`` offered batches are skipped (and
    accounted — see ``serve_poison_skipped_total``) before one probe
    batch is admitted half-open.
    """

    failure_threshold: int = 3
    cooldown_batches: int = 8

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_batches < 1:
            raise ValueError("cooldown_batches must be >= 1")


@dataclass
class CircuitBreaker:
    """One query's fault boundary, driven by batch outcomes.

    The engine calls :meth:`admits` once per offered batch (its answer
    decides feed vs. skip), then exactly one of :meth:`record_success`
    / :meth:`record_failure` for admitted batches.  All transitions are
    counted so ``/metrics`` can expose them.
    """

    config: BreakerConfig = field(default_factory=BreakerConfig)
    state: str = CLOSED
    consecutive_failures: int = 0
    cooldown_left: int = 0
    failures_total: int = 0
    skipped_batches: int = 0
    opens_total: int = 0
    last_error: Optional[str] = None

    def admits(self) -> bool:
        """Whether the next batch should be fed to this query.

        While OPEN, burns one cooldown credit per offered batch; when
        the cooldown is exhausted the breaker moves to HALF_OPEN and the
        batch is admitted as the probe.
        """
        if self.state == OPEN:
            self.cooldown_left -= 1
            if self.cooldown_left > 0:
                self.skipped_batches += 1
                return False
            self.state = HALF_OPEN
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self.last_error = None

    def record_failure(self, error: str) -> None:
        self.failures_total += 1
        self.consecutive_failures += 1
        self.last_error = error
        if (
            self.state == HALF_OPEN
            or self.consecutive_failures >= self.config.failure_threshold
        ):
            if self.state != OPEN:
                self.opens_total += 1
            self.state = OPEN
            self.cooldown_left = self.config.cooldown_batches

    @property
    def quarantined(self) -> bool:
        """Open or probing: the query is not trusted with leadership."""
        return self.state != CLOSED

    def state_code(self) -> int:
        return STATE_CODES[self.state]

    def checkpoint(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "cooldown_left": self.cooldown_left,
            "failures_total": self.failures_total,
            "skipped_batches": self.skipped_batches,
            "opens_total": self.opens_total,
            "last_error": self.last_error,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        self.state = snapshot["state"]
        self.consecutive_failures = snapshot["consecutive_failures"]
        self.cooldown_left = snapshot["cooldown_left"]
        self.failures_total = snapshot["failures_total"]
        self.skipped_batches = snapshot["skipped_batches"]
        self.opens_total = snapshot["opens_total"]
        self.last_error = snapshot.get("last_error")

    def describe(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failures_total": self.failures_total,
            "skipped_batches": self.skipped_batches,
            "opens_total": self.opens_total,
            "last_error": self.last_error,
        }


@dataclass(frozen=True)
class DeadLetter:
    """One poisoned batch: who failed, where, and why."""

    qid: str
    tenant: str
    role: str  # "leader" | "follower" | "direct"
    offset: int  # records consumed *before* this batch
    batch_size: int
    error_type: str
    error: str
    breaker_state: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "qid": self.qid,
            "tenant": self.tenant,
            "role": self.role,
            "offset": self.offset,
            "batch_size": self.batch_size,
            "error_type": self.error_type,
            "error": self.error,
            "breaker_state": self.breaker_state,
        }


class DeadLetterLog(BoundedDeadLetters):
    """Log of quarantined batch failures, counted per query."""

    count_key = "qid"
    counts_by_query = BoundedDeadLetters.counts

    def put(self, entry: DeadLetter) -> DeadLetter:
        return self._append(entry)

    def checkpoint(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "total": self.total,
            "evicted": self.evicted,
            "by_query": self.counts(),
            "entries": [entry.as_dict() for entry in self._entries],
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        self.total = snapshot["total"]
        self.evicted = snapshot["evicted"]
        self._counts = dict(snapshot["by_query"])
        self._entries.clear()
        for raw in snapshot["entries"]:
            self._entries.append(DeadLetter(**raw))
