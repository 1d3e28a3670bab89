"""Fixed-size ring buffer feeding low-level queries.

Paper §3: "Data from a source stream is fed to the low level queries from
a ring buffer without copying."  We model the buffer explicitly because the
performance experiments depend on *where* copies happen: reading from the
ring is free, but every tuple a low-level query forwards to a high-level
query costs a copy (the dominant cost in Fig 5's low-level selection
query).

The buffer is single-producer / multi-consumer.  Producers ``push``;
consumers attach with :meth:`subscribe` and receive every record pushed
after their subscription.  If a consumer lags more than ``capacity``
records behind, the oldest records are dropped and the consumer's drop
counter increments — the stream analogue of packet loss under overload.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.errors import StreamError


class RingBuffer:
    """Bounded buffer with per-subscriber read cursors and drop accounting."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise StreamError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._slots: List[Any] = [None] * capacity
        self._head = 0  # sequence number of the next record to be written
        self._cursors: Dict[int, int] = {}
        self._drops: Dict[int, int] = {}
        self._next_subscriber = 0

    # -- producer side -----------------------------------------------------

    def push(self, record: Any) -> None:
        """Append one record, overwriting the oldest slot when full."""
        self._slots[self._head % self.capacity] = record
        self._head += 1

    def extend(self, records: Iterable[Any]) -> int:
        """Append a run, as ``push`` per record would, with at most two
        slice assignments (a run may wrap); return its length.  Of a run
        longer than ``capacity`` only the newest ``capacity`` records
        are written, into the slots they would have landed in."""
        run = records if isinstance(records, (list, tuple)) else list(records)
        count, capacity = len(run), self.capacity
        if count > capacity:
            run = run[count - capacity:]
        start = (self._head + count - len(run)) % capacity
        room = capacity - start  # slots before the wrap
        if len(run) <= room:
            self._slots[start:start + len(run)] = run
        else:
            self._slots[start:] = run[:room]
            self._slots[:len(run) - room] = run[room:]
        self._head += count
        return count

    # -- consumer side -----------------------------------------------------

    def subscribe(self) -> int:
        """Register a consumer; returns its subscriber id.

        The consumer starts at the current head (it sees only records pushed
        after subscription), matching how a query attaches to a live feed.
        """
        sid = self._next_subscriber
        self._next_subscriber += 1
        self._cursors[sid] = self._head
        self._drops[sid] = 0
        return sid

    def poll(self, subscriber_id: int, max_records: Optional[int] = None) -> List[Any]:
        """Return (and consume) available records for one subscriber."""
        if subscriber_id not in self._cursors:
            raise StreamError(f"unknown subscriber id {subscriber_id}")
        if max_records is not None and max_records < 0:
            # it would move the cursor backwards and re-deliver records
            raise StreamError(f"max_records must not be negative: {max_records}")
        cursor = self._cursors[subscriber_id]
        oldest_available = max(0, self._head - self.capacity)
        if cursor < oldest_available:
            self._drops[subscriber_id] += oldest_available - cursor
            cursor = oldest_available
        end = self._head
        if max_records is not None:
            end = min(end, cursor + max_records)
        # At most ``capacity`` records are readable: the span wraps once.
        start = cursor % self.capacity
        stop = start + end - cursor
        out = self._slots[start:stop]
        if stop > self.capacity:
            out += self._slots[: stop - self.capacity]
        self._cursors[subscriber_id] = end
        return out

    def drops(self, subscriber_id: int) -> int:
        """How many records this subscriber lost to overwrites.

        Includes records already overwritten but not yet accounted by a
        :meth:`poll`, so overload is observable the moment it happens.
        """
        if subscriber_id not in self._drops:
            raise StreamError(f"unknown subscriber id {subscriber_id}")
        return self._drops[subscriber_id] + self._pending_drops(subscriber_id)

    def backlog(self, subscriber_id: int) -> int:
        """Records currently waiting (still readable) for this subscriber."""
        if subscriber_id not in self._cursors:
            raise StreamError(f"unknown subscriber id {subscriber_id}")
        return self._head - self._cursors[subscriber_id] - self._pending_drops(
            subscriber_id
        )

    def max_drops(self) -> int:
        """Worst drop count over all subscribers (0 with no subscribers).

        Subscribers read the same records, so the slowest consumer's drop
        counter is the stream's effective loss under overload.
        """
        return max((self.drops(sid) for sid in self._cursors), default=0)

    def max_backlog(self) -> int:
        """Worst backlog over all subscribers (0 with no subscribers).

        This is the overload signal the load-shedding admission check
        reads: when the slowest consumer is this far behind, pushing more
        records only converts backlog into drops.
        """
        return max((self.backlog(sid) for sid in self._cursors), default=0)

    def _pending_drops(self, subscriber_id: int) -> int:
        """Records overwritten past this subscriber's cursor since its
        last poll (the poll will fold them into the stored counter)."""
        oldest_available = max(0, self._head - self.capacity)
        return max(0, oldest_available - self._cursors[subscriber_id])

    def __len__(self) -> int:
        """Total records ever pushed (monotone)."""
        return self._head
