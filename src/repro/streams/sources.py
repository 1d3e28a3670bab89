"""Fault-tolerant ingest sources and the dead-letter quarantine.

The paper's operator ran against live AT&T NIC taps where "dirty" input
— truncated captures, malformed packets, feed stalls and reconnects —
is the normal case (§1).  This module hardens the ingest edge of the
reproduction accordingly:

* :class:`ResilientSource` — wraps any record-iterator *factory* with
  per-read timeouts, capped exponential backoff + jitter reconnection
  and a pluggable :class:`RetryPolicy`.  A read that stalls or raises
  does not abort the query: the source reconnects (the factory is called
  with the number of records already delivered, so a replayable source
  resumes without loss or duplication) and only an exhausted retry
  budget surfaces as :class:`repro.errors.SourceError`.
* :class:`TraceTailSource` — reads the trace-file format of
  :mod:`repro.streams.persistence` record by record, surviving truncated
  or partially-written files by *resyncing on the fixed-width record
  framing*: every complete row decodes, a torn tail is quarantined (or,
  in ``follow`` mode, awaited until the writer completes it).
* :class:`QuarantineStream` — the bounded, inspectable dead-letter
  stream.  Malformed, corrupt, or uncoercible records land here (with a
  reason, source and index) instead of raising mid-query; the runtime
  counts them so the conservation identity
  ``records == ingested + shed + quarantined`` stays checkable.

Validation/coercion itself lives in :func:`repro.streams.schema.coerce_record`;
this module routes its rejections.
"""

from __future__ import annotations

import json
import os
import queue as _queue
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import SchemaError, SourceError, StreamError, TraceCorruptError
from repro.streams.persistence import read_header, row_decoder
from repro.streams.records import Record
from repro.streams.schema import StreamSchema, coerce_record


# ---------------------------------------------------------------------------
# Dead-letter quarantine
# ---------------------------------------------------------------------------


@dataclass
class QuarantinedRecord:
    """One dead-lettered input: what it was and why it was refused."""

    reason: str
    payload: Any  # Record, raw bytes, mapping — whatever failed admission
    source: str = ""
    index: Optional[int] = None  # record index at the source, when known

    def as_dict(self) -> Dict[str, Any]:
        if isinstance(self.payload, Record):
            payload: Any = self.payload.as_dict()
        elif isinstance(self.payload, (bytes, bytearray)):
            payload = {"hex": bytes(self.payload).hex()}
        else:
            payload = repr(self.payload)
        return {
            "reason": self.reason,
            "source": self.source,
            "index": self.index,
            "payload": payload,
        }


class BoundedDeadLetters:
    """Bounded, inspectable dead-letter container.

    Keeps the most recent ``capacity`` entries (older ones are evicted
    and only counted), a running ``total``, and a count per
    ``count_key`` attribute of the entries — a quarantine must never
    become the unbounded buffer that sinks the process it is protecting.
    Entries need that attribute and an ``as_dict()``.
    """

    #: entry attribute the per-key counts are kept by
    count_key = ""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise StreamError("dead-letter capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)
        self.total = 0
        self.evicted = 0
        self._counts: Dict[str, int] = {}

    def _append(self, entry: Any) -> Any:
        if len(self._entries) == self.capacity:
            self.evicted += 1
        self._entries.append(entry)
        self.total += 1
        key = getattr(entry, self.count_key)
        self._counts[key] = self._counts.get(key, 0) + 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(list(self._entries))

    @property
    def entries(self) -> List[Any]:
        return list(self._entries)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def write_jsonl(self, path: str) -> int:
        """Dump the retained entries as JSONL; returns the entry count."""
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self._entries:
                fh.write(json.dumps(entry.as_dict(), default=repr))
                fh.write("\n")
        return len(self._entries)


class QuarantineStream(BoundedDeadLetters):
    """Dead-letter stream for refused input, counted per reason."""

    count_key = "reason"
    counts_by_reason = BoundedDeadLetters.counts

    def put(
        self,
        reason: str,
        payload: Any,
        *,
        source: str = "",
        index: Optional[int] = None,
    ) -> QuarantinedRecord:
        return self._append(
            QuarantinedRecord(
                reason=reason, payload=payload, source=source, index=index
            )
        )


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Reconnection discipline for a :class:`ResilientSource`.

    ``max_retries`` bounds consecutive reconnect attempts per failure
    event; a successful read resets the budget.  The Nth attempt waits
    ``min(backoff_base * 2**(N-1), backoff_cap)`` seconds, stretched by
    up to ``jitter`` (a fraction, drawn from a seeded RNG so tests are
    repeatable).  ``read_timeout`` is the per-read stall ceiling: a pull
    that produces nothing for that long counts as a failure (None
    disables the watchdog, and with it the reader thread).

    Subclass and override :meth:`retryable` to make the policy pluggable
    — e.g. treat :class:`TraceCorruptError` as fatal while retrying
    transient I/O errors.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.1
    read_timeout: Optional[float] = None

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)
        if self.jitter <= 0:
            return base
        return base * (1.0 + self.jitter * rng.random())

    def retryable(self, exc: BaseException) -> bool:
        """Whether a failed read/connect is worth another attempt."""
        return True


#: No waiting, no watchdog: retries happen back-to-back (test-friendly).
EAGER_RETRY = RetryPolicy(backoff_base=0.0, backoff_cap=0.0, jitter=0.0)


@dataclass
class SourceStats:
    """What the resilient source did (mirrors its metric counters)."""

    records: int = 0
    reconnects: int = 0
    read_errors: int = 0
    stalls: int = 0
    quarantined: int = 0
    failures: List[str] = field(default_factory=list)


class _Stall(Exception):
    """Internal: a read exceeded the policy's read_timeout."""


class _Connection:
    """One live underlying iterator, optionally pulled on a watchdog thread.

    Without a read timeout, ``next_record`` is a plain ``next`` — no
    thread, no queue, no overhead.  With one, a daemon thread pulls
    records into a bounded queue and the consumer waits at most
    ``read_timeout`` per record; an abandoned connection's thread parks
    on the ``_abandoned`` flag and exits at the next item boundary (a
    thread blocked *inside* the underlying read can only be leaked — it
    is a daemon, and its queue is private so it cannot contaminate the
    replacement connection).
    """

    def __init__(self, iterator: Iterator[Any], read_timeout: Optional[float]) -> None:
        self._iterator = iterator
        self._read_timeout = read_timeout
        self._abandoned = False
        if read_timeout is not None:
            self._pipe: _queue.Queue = _queue.Queue(maxsize=8)
            self._buffer: deque = deque()
            thread = threading.Thread(target=self._pull, daemon=True)
            thread.start()

    def _pull(self) -> None:
        # Records cross the thread boundary in adaptive batches: while
        # the consumer keeps the queue drained (it is waiting) each
        # record is flushed immediately, but when the consumer lags the
        # batch grows up to 64, amortising the queue round-trip that
        # would otherwise dominate a fast source.  Stall detection is
        # unaffected — the consumer's timeout clock only runs while its
        # local buffer is empty.
        batch = []
        try:
            for item in self._iterator:
                batch.append(item)
                if len(batch) >= 64 or self._pipe.empty():
                    if not self._flush(("recs", batch)):
                        return
                    batch = []
            if batch and not self._flush(("recs", batch)):
                return
            self._pipe.put(("end", None))
        except BaseException as exc:
            self._pipe.put(("err", exc))

    def _flush(self, message) -> bool:
        while not self._abandoned:
            try:
                self._pipe.put(message, timeout=0.1)
                return True
            except _queue.Full:
                continue
        return False

    def next_record(self) -> Any:
        if self._read_timeout is None:
            return next(self._iterator)
        if self._buffer:
            return self._buffer.popleft()
        try:
            kind, payload = self._pipe.get(timeout=self._read_timeout)
        except _queue.Empty:
            raise _Stall() from None
        if kind == "recs":
            self._buffer.extend(payload)
            return self._buffer.popleft()
        if kind == "end":
            raise StopIteration
        raise payload

    def abandon(self) -> None:
        self._abandoned = True
        close = getattr(self._iterator, "close", None)
        if close is not None and self._read_timeout is None:
            # Generators support close(); only safe when no thread is
            # mid-pull on the iterator.
            try:
                close()
            except Exception:
                pass


class ResilientSource:
    """A record iterator that reconnects instead of dying.

    ``factory(skip)`` must return a fresh iterator positioned *after*
    the first ``skip`` records of the logical stream — for a trace file
    that is a seek, for a list a slice (:func:`replayable`), for a live
    feed typically a resubscription (at-least-once sources may
    re-deliver; exact resume needs a positionable source).  The source
    tracks how many records it has delivered and passes that count on
    every reconnect, so a crash of the *underlying* source is invisible
    to the query: same records, same order.

    ``schema`` (optional) turns on admission validation: each record is
    passed through :func:`repro.streams.schema.coerce_record`, and
    uncoercible ones are routed to ``quarantine`` (required with
    ``schema``) instead of being yielded — note that quarantined records
    still advance the skip position.
    """

    def __init__(
        self,
        factory: Callable[[int], Iterator[Any]],
        policy: Optional[RetryPolicy] = None,
        *,
        schema: Optional[StreamSchema] = None,
        quarantine: Optional[QuarantineStream] = None,
        name: str = "source",
        metrics: Any = None,
        seed: int = 0,
    ) -> None:
        if schema is not None and quarantine is None:
            raise StreamError(
                "ResilientSource(schema=...) needs a quarantine stream for"
                " the records that fail validation"
            )
        self._factory = factory
        self.policy = policy or RetryPolicy()
        self.schema = schema
        self.quarantine = quarantine
        self.name = name
        self.stats = SourceStats()
        self._rng = random.Random(seed)
        self._metrics = metrics

    # -- observability -----------------------------------------------------

    def _count(self, metric: str, by: int = 1, help: str = "") -> None:
        if self._metrics is not None:
            self._metrics.counter(
                metric, help=help or None, source=self.name
            ).inc(by)

    # -- connection management ---------------------------------------------

    def _connect(self, skip: int, reason: str) -> _Connection:
        """Open the underlying source, burning retry budget on failures."""
        attempt = 0
        while True:
            try:
                return _Connection(self._factory(skip), self.policy.read_timeout)
            except Exception as exc:
                reason = f"connect failed: {exc!r}"
                attempt = self._note_failure(attempt, reason, exc)

    def _reconnect(self, attempt: int, skip: int, reason: str, exc: Optional[BaseException]) -> tuple:
        """One failure event: charge the budget, back off, reopen.

        Returns ``(attempt, connection)`` so the caller can keep the
        ladder position until a successful read resets it.
        """
        attempt = self._note_failure(attempt, reason, exc)
        self.stats.reconnects += 1
        self._count(
            "source_reconnects_total", help="source reconnections attempted"
        )
        try:
            return attempt, _Connection(self._factory(skip), self.policy.read_timeout)
        except Exception as connect_exc:
            return self._reconnect(
                attempt, skip, f"connect failed: {connect_exc!r}", connect_exc
            )

    def _note_failure(
        self, attempt: int, reason: str, exc: Optional[BaseException]
    ) -> int:
        self.stats.failures.append(reason)
        if exc is not None and not self.policy.retryable(exc):
            raise SourceError(
                f"source {self.name!r} failed non-retryably: {reason}",
                attempts=attempt,
            ) from exc
        attempt += 1
        if attempt > self.policy.max_retries:
            raise SourceError(
                f"source {self.name!r} exhausted {self.policy.max_retries}"
                f" retries: {'; '.join(self.stats.failures[-3:])}",
                attempts=attempt - 1,
            ) from exc
        delay = self.policy.delay(attempt, self._rng)
        if delay > 0:
            time.sleep(delay)
        return attempt

    # -- iteration ---------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        emitted = 0
        attempt = 0
        connection = self._connect(emitted, "initial connect")
        while True:
            try:
                record = connection.next_record()
            except StopIteration:
                return
            except _Stall:
                self.stats.stalls += 1
                self._count(
                    "source_stalls_total",
                    help="reads that exceeded the per-read timeout",
                )
                connection.abandon()
                attempt, connection = self._reconnect(
                    attempt,
                    emitted,
                    f"stalled: no record within {self.policy.read_timeout}s",
                    None,
                )
                continue
            except Exception as exc:
                self.stats.read_errors += 1
                self._count(
                    "source_read_errors_total", help="reads that raised"
                )
                connection.abandon()
                attempt, connection = self._reconnect(
                    attempt, emitted, f"read failed: {exc!r}", exc
                )
                continue
            attempt = 0  # a successful read resets the backoff ladder
            emitted += 1
            if self.schema is not None:
                try:
                    record = coerce_record(self.schema, record)
                except SchemaError as exc:
                    self.stats.quarantined += 1
                    self._count(
                        "source_quarantined_total",
                        help="records dead-lettered at the source",
                    )
                    assert self.quarantine is not None
                    self.quarantine.put(
                        str(exc), record, source=self.name, index=emitted - 1
                    )
                    continue
            self.stats.records += 1
            yield record


def replayable(records: List[Any]) -> Callable[[int], Iterator[Any]]:
    """A :class:`ResilientSource` factory over an in-memory record list."""

    def factory(skip: int) -> Iterator[Any]:
        return iter(records[skip:])

    return factory


# ---------------------------------------------------------------------------
# Trace-file tail source
# ---------------------------------------------------------------------------


class TraceTailSource:
    """Iterate a persisted trace file record by record, tolerating damage.

    The persistence format is self-framing: a header followed by
    fixed-width rows, so the byte offset of record *i* is
    ``body_offset + i * row_size``.  This source exploits that framing:

    * a **torn tail** (partially-written last record — the normal state
      of a file another process is still writing, or of a capture cut by
      a crash) is quarantined with its raw bytes and offset, not raised;
    * in ``follow`` mode the source instead *waits* for the writer to
      complete the row (tail -f semantics), up to ``idle_timeout``
      seconds of no growth;
    * ``skip`` positions past already-consumed records, which is exactly
      the reconnect contract of :class:`ResilientSource` — see
      :func:`resilient_trace_source`.

    Header damage is not recoverable (there is no framing yet to resync
    on) and raises :class:`TraceCorruptError`.
    """

    def __init__(
        self,
        path: str,
        *,
        skip: int = 0,
        follow: bool = False,
        poll_interval: float = 0.02,
        idle_timeout: float = 5.0,
        quarantine: Optional[QuarantineStream] = None,
    ) -> None:
        self.path = path
        self.follow = follow
        self.poll_interval = poll_interval
        self.idle_timeout = idle_timeout
        self.quarantine = quarantine
        self._fh = open(path, "rb")
        try:
            self.schema, self._body_offset = read_header(self._fh)
        except Exception:
            self._fh.close()
            raise
        self._row_size = 8 * len(self.schema)
        self._decode_row = row_decoder(self.schema)
        self.index = skip
        self._fh.seek(self._body_offset + skip * self._row_size)

    def close(self) -> None:
        self._fh.close()

    def __iter__(self) -> "TraceTailSource":
        return self

    def __next__(self) -> Record:
        waited = 0.0
        while True:
            offset = self._body_offset + self.index * self._row_size
            self._fh.seek(offset)
            row = self._fh.read(self._row_size)
            if len(row) == self._row_size:
                self.index += 1
                return self._decode_row(row)
            if self.follow and waited < self.idle_timeout:
                # The writer may still be mid-append: wait for the rest
                # of the row to land.
                time.sleep(self.poll_interval)
                waited += self.poll_interval
                continue
            if row:
                # Torn tail: the framing says this is a partial record.
                # Dead-letter the raw bytes (inspectable, counted) and
                # end the stream at the last complete record.
                if self.quarantine is not None:
                    self.quarantine.put(
                        "torn tail: partial record"
                        f" ({len(row)} of {self._row_size} bytes)",
                        row,
                        source=f"trace:{os.path.basename(self.path)}",
                        index=self.index,
                    )
                if self.follow:
                    self.close()
                    raise TraceCorruptError(
                        "trace tail stayed partial for"
                        f" {self.idle_timeout}s (writer died mid-record?)",
                        offset=offset,
                        record_index=self.index,
                    )
            self.close()
            raise StopIteration


def resilient_trace_source(
    path: str,
    policy: Optional[RetryPolicy] = None,
    *,
    quarantine: Optional[QuarantineStream] = None,
    validate: bool = False,
    follow: bool = False,
    metrics: Any = None,
    name: Optional[str] = None,
) -> ResilientSource:
    """A :class:`ResilientSource` over a trace file.

    Reconnection reopens the file and seeks past the records already
    delivered (fixed-width framing makes the position exact), so a
    reader surviving transient I/O errors, stalls, or a concurrently
    appending writer yields the same record sequence a clean
    :func:`repro.streams.persistence.iter_trace` would.  With
    ``validate=True`` (requires ``quarantine``) each decoded record also
    passes admission coercion, dead-lettering rows whose *values* are
    corrupt — e.g. a NaN timestamp from flipped bytes mid-file.
    """
    quarantine = quarantine if quarantine is not None else QuarantineStream()
    with open(path, "rb") as fh:
        schema, _ = read_header(fh)

    def factory(skip: int) -> TraceTailSource:
        return TraceTailSource(
            path, skip=skip, follow=follow, quarantine=quarantine
        )

    return ResilientSource(
        factory,
        policy,
        schema=schema if validate else None,
        quarantine=quarantine,
        name=name or f"trace:{os.path.basename(path)}",
        metrics=metrics,
    )
