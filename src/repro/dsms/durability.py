"""Whole-pipeline durable resume: one feed loop, one journal, one resume.

The supervision layer (:mod:`repro.dsms.resilience`) survives *worker*
crashes; this module survives the death of the **entire process**, the
same way for every deployment.  A serial
:class:`~repro.dsms.runtime.Gigascope`, a
:class:`~repro.dsms.sharded.ShardedGigascope` over either shard pool and
a :class:`~repro.serving.server.StandingQueryEngine` answer the same
calls — ``start()``, ``feed(batch) -> int``, ``finish()``,
``checkpoint(since) -> dict``, ``restore(dict)``, plus ``abandon()`` —
and the rest is written once, here, against those:

* :func:`batches` cuts a stream into batches (the one place a batch size
  is validated) and :func:`skip` drops a committed prefix;
* :func:`feed_loop` feeds batch after batch and commits when due: when a
  window closed since the last commit (``windows_closed()`` grew — a
  serial instance sees its windows close; shard pools and the serving
  engine report a constant, so theirs is interval-only) or after
  ``commit_interval`` batches.  A batch boundary is a consistent cut:
  ``feed`` runs a batch through before it returns, and a supervised
  worker's checkpoint request queues behind every batch shipped to it;
* :func:`run_batches` is a whole run — start, loop, finish, final
  commit — journalled or not;
* :func:`read_journal` says what kind of journal it was handed;
  :func:`resume` restores the last commit and hands back the input
  still to be fed, so replaying it into an *identically registered*
  deployment is byte-identical to an uninterrupted run.

The journal (:class:`ResultJournal`) is an fsync'd, framed, CRC-checked
append-only file — a torn tail (the normal state of a file whose writer
was killed mid-append) is detected and discarded on read, so the last
*complete* entry is always a consistent resume point.  Every entry wears
one envelope (:func:`entry`): ``journal_version``, ``kind`` (``commit``
/ ``final``, and the serving registry's ``register`` / ``unregister``),
``mode`` (the deployment's ``journal_mode``: serial, sharded or serving)
and ``consumed``; a commit carries what the deployment's ``checkpoint``
holds beside it, of each append-only list what was :class:`Appended`.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from dataclasses import replace
from functools import reduce
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import ExecutionError, StreamError, TraceCorruptError
from repro.analysis.legality import ExecTarget, require_runnable
from repro.streams.records import Record

_MAGIC = b"RPJRNL01"
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

#: journal entry format version; version 1 gave serving entries no
#: envelope (they were stamped ``serving_version``) and is refused
JOURNAL_VERSION = 2

#: version of what ``checkpoint()`` returns, per ``journal_mode``,
#: independent of the above: it rides inside each commit as
#: ``checkpoint_version``; within a version, keys are only ever added.
#: Version 3 journals append-only lists as :class:`Appended` suffixes;
#: version 4 writes slotted state by its field values, not field dicts
#: (DESIGN.md §8); version 5 shards by a key's value, not its ``repr``
#: (``sharded.stable_hash``), so equal keys of a bool or float column
#: that version 4 placed on two shards would split a group on resume;
#: sharded version 6 journals each shard's appended lists as suffixes
#: too, where version 5 wrote a whole pickled shard per commit; serial
#: and served version 6 and sharded version 7 write a group as columns of
#: its cells (``aggregates.checkpoint_cells``), where the versions before
#: held built-in aggregate objects.  Any other version of a mode is
#: refused
CHECKPOINT_VERSION = {"serial": 6, "serving": 6, "sharded": 7}

Hook = Optional[Callable[[int, str], None]]


class ResultJournal:
    """Fsync'd append-only journal of pickled commit entries.

    Layout: an 8-byte magic header, then frames of
    ``<u32 length><u32 crc32><payload>``.  Every append is flushed and
    fsync'd before returning, so an entry either exists completely or
    (if the process died mid-write) is detected as a torn tail and
    ignored by :meth:`read` — reads never propagate a partial entry.
    """

    def __init__(self, path: str, fresh: bool = False, end: Optional[int] = None) -> None:
        """Open ``path`` for appending; ``fresh=True`` truncates first.

        Appending to an existing journal seeks past the last complete
        frame (``end``, if read), so a torn tail from a previous crash
        is overwritten rather than permanently wedging the file.
        """
        self.path = path
        self.marks: Optional[Dict[str, Any]] = None  # :func:`marks` of the last commit
        if fresh or not os.path.exists(path) or os.path.getsize(path) == 0:
            self._fh = open(path, "wb")
            self._fh.write(_MAGIC)
            self._flush()
        else:
            if end is None:
                _, end = self._scan(path)
            self._fh = open(path, "r+b")
            self._fh.truncate(end)
            self._fh.seek(end)

    def append(self, entry: Dict[str, Any]) -> None:
        payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        self._fh.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
        self._fh.write(payload)
        self._flush()

    def _flush(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    @staticmethod
    def _scan(path: str) -> Tuple[List[Dict[str, Any]], int]:
        """Decode all complete entries; returns ``(entries, good_offset)``.

        ``good_offset`` is the byte offset just past the last complete
        frame — where a resuming writer should truncate-and-append.
        A bad magic header is unrecoverable and raises
        :class:`TraceCorruptError`; anything torn *after* the header is
        simply where the journal ends.
        """
        entries: List[Dict[str, Any]] = []
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise TraceCorruptError(
                    f"not a result journal: bad magic in {path!r}", offset=0
                )
            good = fh.tell()
            while True:
                header = fh.read(_FRAME.size)
                if len(header) < _FRAME.size:
                    break
                length, crc = _FRAME.unpack(header)
                payload = fh.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    break  # torn or corrupt tail: journal ends here
                try:
                    entries.append(pickle.loads(payload))
                except (AttributeError, ImportError):
                    # a class (or module) an earlier version pickled is
                    # gone: read it as a stand-in, so that the entry's
                    # version refuses it, not a silent end of the journal
                    entries.append(_Unpickler(io.BytesIO(payload)).load())
                except Exception:
                    break  # CRC passed but payload undecodable: stop
                good = fh.tell()
        return entries, good

    @classmethod
    def read(cls, path: str) -> List[Dict[str, Any]]:
        """All complete entries, oldest first (torn tail silently cut)."""
        return cls._scan(path)[0]


class _Gone:
    """Stands in for an object whose class this version no longer has."""

    def __init__(self, *args: Any) -> None:
        self.args = args

    def __setstate__(self, state: Any) -> None:
        self.state = state


class _Unpickler(pickle.Unpickler):
    """Reads a class that is gone (an earlier checkpoint version's) as a
    :class:`_Gone` subclass of its name."""

    def find_class(self, module: str, name: str) -> Any:
        try:
            return super().find_class(module, name)
        except (AttributeError, ImportError):
            return type(name, (_Gone,), {"__module__": module})


def entry(kind: str, mode: str, consumed: int, **fields: Any) -> Dict[str, Any]:
    """One journal entry in the envelope every writer uses."""
    return {
        "journal_version": JOURNAL_VERSION,
        "kind": kind,
        "mode": mode,
        "consumed": consumed,
        **fields,
    }


def read_journal(path: str, mode: str) -> Tuple[List[Dict[str, Any]], int]:
    """Every complete entry of the ``mode`` journal at ``path``, and the
    offset past the last, where a resumed run appends.

    The one place a journal is judged fit to resume from: a missing
    file, a file that is not a journal (:class:`TraceCorruptError`), an
    entry or checkpoint version this code does not read, a journal
    written by another kind of run and a commit stamped with no
    checkpoint version are each refused here, by name.
    """
    if not os.path.exists(path):
        raise ExecutionError(f"journal {path!r} does not exist")
    entries, end = ResultJournal._scan(path)
    expected = CHECKPOINT_VERSION[mode]
    for e in entries:
        version = e.get("journal_version", e.get("serving_version"))
        if version != JOURNAL_VERSION:
            raise ExecutionError(
                f"journal entry version {version!r} in"
                f" {path!r} is not supported (expected {JOURNAL_VERSION})"
            )
        if e.get("mode") != mode:
            raise ExecutionError(
                f"journal {path!r} was written by a {e.get('mode')!r} run;"
                f" it cannot resume a {mode!r} run"
            )
        if e.get("checkpoint_version", expected) != expected:
            raise ExecutionError(
                f"checkpoint version {e['checkpoint_version']!r} of a {mode!r} run in"
                f" {path!r} is not supported (expected {expected})"
            )
    for e in entries:
        if e.get("kind") in ("commit", "final") and "checkpoint_version" not in e:
            raise ExecutionError(
                f"the commit at offset {e.get('consumed')!r} in {path!r} carries no"
                f" checkpoint version (expected {expected})"
            )
    return entries, end


class Appended(NamedTuple):
    """An append-only list in a checkpoint: its ``items`` from ``start`` on."""

    start: int
    items: List[Any]


def marks(state: Dict[str, Any]) -> Dict[str, Any]:
    """Where each :class:`Appended` list in ``state`` ends: the next ``since``."""
    return {
        key: value.start + len(value.items) if isinstance(value, Appended) else marks(value)
        for key, value in state.items()
        if isinstance(value, (Appended, dict))
    }


def cut(state: Dict[str, Any], at: Dict[str, Any]) -> Dict[str, Any]:
    """``state`` with each :class:`Appended` list cut where the marks
    ``at`` end it: what a commit after those marks carries of it."""
    out = dict(state)
    for key, value in state.items():
        if isinstance(value, Appended):
            start = at.get(key, 0)
            out[key] = Appended(start, value.items[start - value.start:])
        elif isinstance(value, dict):
            out[key] = cut(value, at.get(key, {}))
    return out


def joined(held: Dict[str, Any], state: Dict[str, Any], path: str = "") -> Dict[str, Any]:
    """Commit ``state``, each :class:`Appended` piece joined onto ``held``'s
    (the commits before, joined), which it must continue exactly."""
    out = dict(state)
    for key, value in state.items():
        before, where = held.get(key), f"{path}/{key}"
        if isinstance(value, Appended):
            out[key] = before = before if isinstance(before, Appended) else Appended(0, [])
            if value.start != len(before.items):
                raise ExecutionError(f"journal commits do not join up: {where[1:]} continues"
                                     f" from {value.start}, after {len(before.items)} items")
            before.items.extend(value.items)
        elif isinstance(value, dict):
            out[key] = joined(before if isinstance(before, dict) else {}, value, where)
    return out


def batches(records: Iterable[Record], size: int) -> Iterator[List[Record]]:
    """Cut ``records`` into lists of ``size`` (the last may be shorter)."""
    if size < 1:
        raise StreamError(f"batch size must be >= 1, got {size}")
    source = iter(records)
    return iter(lambda: list(islice(source, size)), [])


def skip(records: Iterable[Record], n: int) -> Iterator[Record]:
    """``records`` past the first ``n``, which a resumed run already ate."""
    iterator = iter(records)
    skipped = sum(1 for _ in islice(iterator, n))
    if skipped < n:
        raise ExecutionError(
            f"resume input is shorter than the committed prefix"
            f" ({skipped} < {n} records): the input must be the same"
            " replayable stream the original run consumed"
        )
    return iterator


def commit(
    driven: Any,
    journal: Optional[ResultJournal],
    kind: str,
    consumed: int,
    on_commit: Hook = None,
) -> None:
    """Make ``driven``'s state after ``consumed`` records durable: its
    ``checkpoint(since)`` view is pickled here, and that is its one copy.

    ``on_commit(consumed, kind)`` fires once the entry is fsync'd;
    killing the process inside it is exactly the crash the journal is
    designed to survive.
    """
    if journal is None:
        return
    state = driven.checkpoint(journal.marks)
    mode = driven.journal_mode
    envelope = entry(kind, mode, consumed, checkpoint_version=CHECKPOINT_VERSION[mode])
    journal.append({**state, **envelope})
    journal.marks = marks(state)
    if on_commit is not None:
        on_commit(consumed, kind)


def feed_loop(
    driven: Any,
    batch_iter: Iterable[List[Record]],
    journal: Optional[ResultJournal] = None,
    *,
    consumed: int = 0,
    commit_interval: int = 4,
    on_batch: Optional[Callable[[int, int], None]] = None,
    on_commit: Hook = None,
) -> Iterator[int]:
    """Feed ``driven`` batch after batch, committing when due.

    A generator yielding the records consumed so far after each batch,
    so an asyncio caller can ``await`` between steps while a synchronous
    one just exhausts it.  ``on_batch(batch_no, consumed)`` fires after
    each batch is fed.  An error — a refused cadence included — abandons
    the run rather than flushing half-fed windows.
    """
    try:
        if commit_interval < 1:
            raise StreamError(f"commit_interval must be >= 1, got {commit_interval}")
        closed = driven.windows_closed() if journal is not None else 0
        since_commit = 0
        for batch_no, batch in enumerate(batch_iter, 1):
            consumed += driven.feed(batch)
            if on_batch is not None:
                on_batch(batch_no, consumed)
            since_commit += 1
            if journal is not None:
                now = driven.windows_closed()
                if now > closed or since_commit >= commit_interval:
                    commit(driven, journal, "commit", consumed, on_commit)
                    closed, since_commit = now, 0
            yield consumed
    except GeneratorExit:
        raise  # the caller stopped driving; the run is still its to end
    except BaseException:
        driven.abandon()
        raise


def run_batches(
    driven: Any,
    batch_iter: Iterable[List[Record]],
    journal: Optional[ResultJournal] = None,
    consumed: int = 0,
    on_commit: Hook = None,
    **cadence: Any,
) -> int:
    """One whole run: start, feed every batch, finish, final commit.

    Returns the records consumed, ``consumed`` (a resumed run's
    committed prefix) included; ``cadence`` is :func:`feed_loop`'s.
    """
    driven.start()
    loop = feed_loop(
        driven, batch_iter, journal, consumed=consumed, on_commit=on_commit, **cadence
    )
    for consumed in loop:
        pass
    driven.finish()
    commit(driven, journal, "final", consumed, on_commit)
    return consumed


def resume(
    driven: Any, path: str, scan: Tuple[List[Dict[str, Any]], int], records: Iterable[Record]
) -> Tuple[int, Optional[Iterable[Record]], Optional[ResultJournal]]:
    """Restore the last commit of the journal ``path`` (``scan``: as
    :func:`read_journal` read it), its pieces joined, into ``driven``.
    Returns the records it consumed, the input still to be fed (the
    rest of ``records``, the same replayable stream the original run
    consumed) and the journal to go on with: ``None`` for both after a
    ``final`` commit."""
    commits = [e for e in scan[0] if e["kind"] in ("commit", "final")]
    if not commits:
        return 0, records, ResultJournal(path, fresh=True)
    last = reduce(joined, commits, {})
    driven.restore(last)
    if last["kind"] == "final":
        return last["consumed"], None, None
    journal = ResultJournal(path, end=scan[1])
    journal.marks = marks(last)  # unfed since the restore took the lists over
    return last["consumed"], skip(records, last["consumed"]), journal


class DurableRunner:
    """Drive an instance through a stream with journalled commits.

    ``instance`` is a :class:`~repro.dsms.runtime.Gigascope` or a
    :class:`~repro.dsms.sharded.ShardedGigascope`; both shard pools
    checkpoint at round boundaries, and a journal written over one
    resumes over the other.  Every registered query must pass the rows
    of the legality table (:mod:`repro.analysis.legality`) the
    instance's target holds it to once ``durable`` is added to it
    (:attr:`target`) — ``ExecutionError`` names the first.  Checked at
    construction, and again before a run or a resume reads anything:
    a query may be registered in between.

    Hooks (both optional, both for chaos tests and progress reporting):
    ``on_batch(batch_no, consumed)`` after each batch is fed, and
    ``on_commit(consumed, kind)`` after each journal entry is durable
    (``kind`` is ``"commit"`` or ``"final"``).
    """

    def __init__(
        self,
        instance: Any,
        journal_path: str,
        *,
        batch_size: int = 512,
        commit_interval: int = 4,
        on_batch: Optional[Callable[[int, int], None]] = None,
        on_commit: Hook = None,
    ) -> None:
        self.instance = instance
        self.journal_path = journal_path
        self.batch_size = batch_size
        self.commit_interval = commit_interval
        self.on_batch = on_batch
        self.on_commit = on_commit
        self._require_runnable()

    @property
    def target(self) -> ExecTarget:
        """The driven instance's deployment, made durable."""
        return replace(self.instance.target, durable=True)

    def _require_runnable(self) -> None:
        for handle in self.instance.query_handles():
            if handle.plan is not None:
                require_runnable(
                    self.target, handle.plan, self.instance.registries,
                    handle.name, ExecutionError,
                )

    def run(self, records: Iterable[Record]) -> int:
        """Fresh run: truncate the journal, run, commit, finalize.

        Returns total records consumed.
        """
        self._require_runnable()
        return self._run(records, ResultJournal(self.journal_path, fresh=True), 0)

    def resume(self, records: Iterable[Record]) -> int:
        """Resume from the journal's last commit (see :func:`resume`)."""
        self._require_runnable()
        scan = read_journal(self.journal_path, self.instance.journal_mode)
        consumed, rest, journal = resume(self.instance, self.journal_path, scan, records)
        return consumed if journal is None else self._run(rest, journal, consumed)

    def _run(self, records: Iterable[Record], journal: ResultJournal, consumed: int) -> int:
        with journal:
            return run_batches(
                self.instance,
                batches(records, self.batch_size),
                journal,
                consumed,
                self.on_commit,
                commit_interval=self.commit_interval,
                on_batch=self.on_batch,
            )
