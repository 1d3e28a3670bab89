"""Bounded ring buffer feeding low-level queries.

Paper §3: "Data from a source stream is fed to the low level queries from
a ring buffer without copying."  We model the buffer explicitly because the
performance experiments depend on *where* copies happen: reading from the
ring is free, but every tuple a low-level query forwards to a high-level
query costs a copy (the dominant cost in Fig 5's low-level selection
query).

The buffer is single-producer / multi-consumer.  Producers ``push``;
consumers attach with :meth:`subscribe` and receive every record pushed
after their subscription.  The buffer holds only the records some
subscriber has yet to read, at most ``capacity`` of them: a ring nobody
reads holds nothing.  If a consumer lags more than ``capacity`` records
behind, the oldest records are dropped and the consumer's drop counter
increments — the stream analogue of packet loss under overload.
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
        #: the records ``[head - len(_slots), head)``: at most ``capacity``
        #: of them, and only while some subscriber has yet to read them
        self._slots: List[Any] = []
        self._head = 0  # sequence number of the next record to be written
        self._cursors: Dict[int, int] = {}
        self._drops: Dict[int, int] = {}
        self._next_subscriber = 0

    # -- producer side -----------------------------------------------------

    def push(self, record: Any) -> None:
        """Append one record, releasing the oldest past ``capacity``.
        With no subscriber nobody can read it, so nothing is kept."""
        self._head += 1
        if self._cursors:
            slots = self._slots
            slots.append(record)
            if len(slots) > self.capacity:
                del slots[0]

    def extend(self, records: Iterable[Any]) -> int:
        """Append a run, as ``push`` per record would; return its length."""
        run = records if isinstance(records, (list, tuple)) else list(records)
        self._head += len(run)
        if self._cursors:
            self._slots += run
            del self._slots[: -self.capacity]
        return len(run)

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

    def unsubscribe(self, subscriber_id: int) -> None:
        """Detach a consumer; what only it had yet to read is released."""
        self.poll(subscriber_id)  # read to the head: nothing left pinned by it
        del self._cursors[subscriber_id], self._drops[subscriber_id]

    def poll(self, subscriber_id: int, max_records: Optional[int] = None) -> List[Any]:
        """Return (and consume) available records for one subscriber.
        When the slowest subscriber reads on, the records every
        subscriber has now read are released."""
        if subscriber_id not in self._cursors:
            raise StreamError(f"unknown subscriber id {subscriber_id}")
        if max_records is not None and max_records < 0:
            # it would move the cursor backwards and re-deliver records
            raise StreamError(f"max_records must not be negative: {max_records}")
        cursor = self._cursors[subscriber_id]
        oldest_available = self._head - self.capacity
        if cursor < oldest_available:
            self._drops[subscriber_id] += oldest_available - cursor
            cursor = oldest_available
        end = self._head
        if max_records is not None:
            end = min(end, cursor + max_records)
        slots = self._slots
        base = self._head - len(slots)
        out = slots[cursor - base:end - base]
        self._cursors[subscriber_id] = end
        if cursor == base:  # only the slowest reader can free records
            low = min(self._cursors.values())
            if low > base:
                del slots[: low - base]
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
