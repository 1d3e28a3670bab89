"""Structured trace events for window, cleaning and supervision activity.

A :class:`TraceSink` records typed events; every event is a ``kind``
plus a flat field dict and a sink-assigned sequence number.  Events are
*logical*: they carry no wall-clock timestamps, so a trace of a
deterministic run is itself deterministic — which is what makes the
golden-file tests (tests/obs/test_trace_golden.py) possible.

Event kinds emitted by the runtime (field schema in
docs/OBSERVABILITY.md):

===================== =====================================================
kind                  emitted when
===================== =====================================================
window_open           a sampling/aggregation window opens
window_close          a window closes (carries the window's counters)
cleaning_trigger      CLEANING WHEN evaluated TRUE for a supergroup
group_evicted         CLEANING BY evicted one group
group_emitted         a group survived HAVING and was emitted
having_rejected       HAVING rejected a group at window close
supergroup_carryover  a new supergroup inherited SFUN state from the
                      previous window's matching supergroup
shed                  the runtime shed records past a second's allowance
shard_restart         the supervisor restarted a shard worker
shard_checkpoint      a shard checkpoint arrived at the supervisor
shard_replay          recovery replayed journalled batches into a shard
===================== =====================================================

The default sink everywhere is :data:`NULL_TRACE`, whose ``emit`` is a
no-op — tracing costs nothing unless a real sink is attached.  Sinks
checkpoint/restore alongside operator state, so a supervised restart
neither loses nor duplicates events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One typed event: sink-assigned seq, kind, and flat fields."""

    seq: int
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"seq": self.seq, "kind": self.kind}
        out.update(self.fields)
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, default=_jsonable)


def _jsonable(value: Any) -> Any:
    """JSON fallback: tuples render as lists via repr-free conversion."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return repr(value)


class TraceSink:
    """In-memory event recorder with JSONL serialisation.

    ``limit`` bounds memory on long runs: once reached, the oldest
    events are discarded and ``dropped_events`` counts the loss (the
    sink degrades the same way the runtime does — visibly).
    """

    enabled = True

    def __init__(self, limit: Optional[int] = None) -> None:
        self.events: List[TraceEvent] = []
        self.limit = limit
        self.dropped_events = 0
        self._next_seq = 0

    def emit(self, kind: str, **fields: Any) -> None:
        event = TraceEvent(seq=self._next_seq, kind=kind, fields=fields)
        self._next_seq += 1
        self.events.append(event)
        if self.limit is not None and len(self.events) > self.limit:
            overflow = len(self.events) - self.limit
            del self.events[:overflow]
            self.dropped_events += overflow

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> Dict[str, int]:
        """Event count per kind (a cheap trace summary)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def lines(self) -> Iterator[str]:
        for event in self.events:
            yield event.to_json()

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns events written."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.lines():
                fh.write(line + "\n")
        return len(self.events)

    # -- folding (sharded runtime) ----------------------------------------

    def absorb(self, events: List[TraceEvent], **extra_fields: Any) -> None:
        """Append another sink's events, re-sequencing and stamping extra
        fields (``shard=...``) so merged traces stay attributable."""
        for event in events:
            fields = dict(event.fields)
            fields.update(extra_fields)
            self.emit(event.kind, **fields)

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self, since: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The sink's state; of its events, those emitted since the commit
        ``since`` marks (``durability.marks``) as an ``Appended`` piece.

        The piece's positions count from the oldest event the journal
        holds, and it is keyed by that event's seq (``{origin: piece}``).
        When ``limit`` dropped events before any commit held them, no older
        event survives a restore either: the piece then starts a new list,
        under a new origin, from the oldest event kept.
        """
        from repro.dsms.durability import Appended  # repro.dsms imports this module

        oldest = self._next_seq - len(self.events)  # the seq of events[0]
        origin, held = next(iter(since["events"].items())) if since else (oldest, 0)
        if origin + held < oldest:
            origin, held = oldest, 0
        new = self.events[origin + held - oldest:]
        return {
            "events": {origin: Appended(held, [(e.seq, e.kind, dict(e.fields)) for e in new])},
            "next_seq": self._next_seq,
            "dropped": self.dropped_events,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reinstate a :meth:`checkpoint` (its pieces joined), within ``limit``."""
        (piece,) = snapshot["events"].values()
        events = piece.items
        if self.limit is not None:
            events = events[max(0, len(events) - self.limit):]
        self.events = [TraceEvent(seq=seq, kind=kind, fields=fields) for seq, kind, fields in events]
        self._next_seq = snapshot["next_seq"]
        self.dropped_events = snapshot["dropped"]


class NullTraceSink(TraceSink):
    """Do-nothing sink: the zero-overhead default."""

    enabled = False

    def emit(self, kind: str, **fields: Any) -> None:  # noqa: D102
        return

    def absorb(self, events: List[TraceEvent], **extra_fields: Any) -> None:  # noqa: D102
        return

    def restore(self, snapshot: Dict[str, Any]) -> None:  # noqa: D102
        return


#: Shared no-op sink (safe to share: it never mutates).
NULL_TRACE = NullTraceSink()
