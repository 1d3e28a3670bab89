"""Whole-pipeline durable resume: a write-ahead result journal.

The supervision layer (:mod:`repro.dsms.resilience`) survives *worker*
crashes; this module survives the death of the **entire process**.  A
:class:`DurableRunner` drives a :class:`~repro.dsms.runtime.Gigascope`
or a :class:`~repro.dsms.sharded.ShardedGigascope` (inline or
supervised shards alike) through a record stream while journalling
committed progress to disk:

* the journal (:class:`ResultJournal`) is an fsync'd, framed, CRC-checked
  append-only file — a torn tail (the normal state of a file whose
  writer was killed mid-append) is detected and discarded on read, so
  the last *complete* entry is always a consistent resume point;
* each commit entry pairs ``consumed`` (records of input fully applied)
  with the v2 checkpoint state that reflects exactly that prefix —
  serial runs embed :meth:`Gigascope.checkpoint` (which includes
  retained results and metrics), sharded runs embed every shard's
  ``(seq, pickled checkpoint)`` from the shard pool's
  ``checkpoint_all()`` plus the parent's SPLIT-edge metrics;
* :meth:`DurableRunner.resume` restores the last committed entry into an
  *identically registered* instance, skips the committed input prefix,
  and replays the rest — producing byte-identical results and metrics to
  an uninterrupted run, because checkpoints are taken at batch
  boundaries where the pipeline is fully drained (``feed`` drains the
  rings each batch; a supervised worker's checkpoint request queues
  behind every batch shipped to it).

Commit granularity: serial runs commit at **window granularity** — a
commit is appended whenever a window closed (some retained query emitted
rows) since the last one — with an optional every-N-batches fallback.
Sharded runs commit every ``commit_interval`` rounds (under supervision
window closes happen inside the workers, invisible to the parent until
checkpointed).

Load shedding and durable resume do not mix deterministically: shedding
decisions depend on wall-clock queue depths, so a resumed run may shed
differently than the original would have.  The runner refuses the
combination rather than producing a silently different answer.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError, StreamError, TraceCorruptError
from repro.dsms.runtime import Gigascope
from repro.streams.records import Record

_MAGIC = b"RPJRNL01"
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

#: journal entry format version (independent of the checkpoint version,
#: which rides inside each entry as ``checkpoint_version``)
JOURNAL_VERSION = 1


class ResultJournal:
    """Fsync'd append-only journal of pickled commit entries.

    Layout: an 8-byte magic header, then frames of
    ``<u32 length><u32 crc32><payload>``.  Every append is flushed and
    fsync'd before returning, so an entry either exists completely or
    (if the process died mid-write) is detected as a torn tail and
    ignored by :meth:`read` — reads never propagate a partial entry.
    """

    def __init__(self, path: str, fresh: bool = False) -> None:
        """Open ``path`` for appending; ``fresh=True`` truncates first.

        Appending to an existing journal seeks past the last complete
        frame, so a torn tail from a previous crash is overwritten
        rather than permanently wedging the file.
        """
        self.path = path
        if fresh or not os.path.exists(path) or os.path.getsize(path) == 0:
            self._fh = open(path, "wb")
            self._fh.write(_MAGIC)
            self._flush()
        else:
            _, good_offset = self._scan(path)
            self._fh = open(path, "r+b")
            self._fh.truncate(good_offset)
            self._fh.seek(good_offset)

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
                except Exception:
                    break  # CRC passed but payload undecodable: stop
                good = fh.tell()
        return entries, good

    @classmethod
    def read(cls, path: str) -> List[Dict[str, Any]]:
        """All complete entries, oldest first (torn tail silently cut)."""
        return cls._scan(path)[0]

    @classmethod
    def last_entry(cls, path: str) -> Optional[Dict[str, Any]]:
        entries = cls.read(path)
        return entries[-1] if entries else None


def _batches(records: Iterable[Record], size: int) -> Iterator[List[Record]]:
    batch: List[Record] = []
    for record in records:
        batch.append(record)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


class DurableRunner:
    """Drive an instance through a stream with journalled commits.

    ``instance`` is either a :class:`Gigascope` (serial) or a
    :class:`~repro.dsms.sharded.ShardedGigascope`; both shard pools
    checkpoint at round boundaries, and a journal written over one
    resumes over the other.

    Hooks (both optional, both for chaos tests and progress reporting):

    * ``on_batch(batch_no, consumed)`` — before each serial batch is fed
      / after each sharded round is shipped;
    * ``on_commit(consumed, kind)`` — after each journal entry is
      durable (``kind`` is ``"commit"`` or ``"final"``).  Killing the
      process inside this hook is exactly the crash the journal is
      designed to survive.
    """

    def __init__(
        self,
        instance: Any,
        journal_path: str,
        *,
        batch_size: int = 512,
        commit_interval: int = 4,
        window_commits: bool = True,
        on_batch: Optional[Callable[[int, int], None]] = None,
        on_commit: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        self.instance = instance
        self.journal_path = journal_path
        self.batch_size = batch_size
        if commit_interval < 1:
            raise StreamError("commit_interval must be >= 1")
        self.commit_interval = commit_interval
        self.window_commits = window_commits
        self.on_batch = on_batch
        self.on_commit = on_commit
        self._serial = isinstance(instance, Gigascope)
        if getattr(instance, "shed_threshold", None) is not None:
            raise ExecutionError(
                "durable resume and load shedding do not mix: shedding"
                " depends on wall-clock queue depths, so a resumed run"
                " could shed differently and silently diverge"
            )
        bad_states = self._non_checkpointable_states()
        if bad_states:
            raise ExecutionError(
                "durable resume needs checkpointable operator state, but"
                f" SFUN state(s) {bad_states} declare checkpointable=False;"
                " run without durable resume or make the state snapshottable"
            )

    def _non_checkpointable_states(self) -> List[str]:
        """SFUN states of registered queries that opt out of checkpoints.

        Static introspection: reads each operator's ``required_states``
        capability record against the instance's stateful library, so an
        unsafe deployment is refused at construction — the same verdict
        ``repro lint --target durable`` reports as rule SA305.
        """
        library = self.instance.registries.stateful
        bad: List[str] = []
        for handle in self.instance.query_handles():
            for state in getattr(handle.operator, "required_states", ()):
                if state not in bad and not library.checkpointable(state):
                    bad.append(state)
        return sorted(bad)

    # -- public API --------------------------------------------------------

    def run(self, records: Iterable[Record]) -> int:
        """Fresh run: truncate the journal, run, commit, finalize.

        Returns total records consumed.
        """
        journal = ResultJournal(self.journal_path, fresh=True)
        try:
            return self._run(journal, records, consumed=0, snapshot=None)
        finally:
            journal.close()

    def resume(self, records: Iterable[Record]) -> int:
        """Resume from the journal's last committed entry.

        ``records`` must be the *same* logical input as the original run
        (a replayable source: a trace file, a seeded generator); the
        committed prefix is skipped and the remainder replayed.  If the
        journal's last entry is ``final`` the run already completed: the
        final state is restored (results included) and no input is read.
        """
        entries = ResultJournal.read(self.journal_path)
        commits = [
            e for e in entries if e.get("kind") in ("commit", "final")
        ]
        if not commits:
            # Nothing durable yet (died before the first commit): the
            # resume degenerates to a fresh run.
            return self.run(records)
        last = commits[-1]
        self._check_entry(last)
        if last["kind"] == "final":
            self._restore_final(last)
            return last["consumed"]
        journal = ResultJournal(self.journal_path, fresh=False)
        try:
            return self._run(
                journal,
                records,
                consumed=last["consumed"],
                snapshot=last,
            )
        finally:
            journal.close()

    # -- shared plumbing ---------------------------------------------------

    def _mode(self) -> str:
        return "serial" if self._serial else "sharded"

    def _check_entry(self, entry: Dict[str, Any]) -> None:
        if entry.get("journal_version") != JOURNAL_VERSION:
            raise ExecutionError(
                "journal entry version"
                f" {entry.get('journal_version')!r} is not supported"
                f" (expected {JOURNAL_VERSION})"
            )
        # Journals from before the shard pools shared one checkpoint
        # currency say "supervised" where they now say "sharded".
        mode = entry.get("mode")
        if (mode == "serial") != self._serial:
            raise ExecutionError(
                f"journal was written by a {mode!r} run; this"
                f" runner drives a {self._mode()!r} instance"
            )

    def _entry(self, kind: str, consumed: int, **state: Any) -> Dict[str, Any]:
        return {
            "journal_version": JOURNAL_VERSION,
            "checkpoint_version": 2,
            "kind": kind,
            "mode": self._mode(),
            "consumed": consumed,
            **state,
        }

    def _commit(
        self, journal: ResultJournal, kind: str, consumed: int, **state: Any
    ) -> None:
        journal.append(self._entry(kind, consumed, **state))
        if self.on_commit is not None:
            self.on_commit(consumed, kind)

    def _skip(self, records: Iterable[Record], n: int) -> Iterator[Record]:
        iterator = iter(records)
        skipped = sum(1 for _ in islice(iterator, n))
        if skipped < n:
            raise ExecutionError(
                f"resume input is shorter than the committed prefix"
                f" ({skipped} < {n} records): the input must be the same"
                " replayable stream the original run consumed"
            )
        return iterator

    def _run(
        self,
        journal: ResultJournal,
        records: Iterable[Record],
        consumed: int,
        snapshot: Optional[Dict[str, Any]],
    ) -> int:
        if self._serial:
            return self._run_serial(journal, records, consumed, snapshot)
        return self._run_sharded(journal, records, consumed, snapshot)

    # -- serial ------------------------------------------------------------

    def _results_watermark(self) -> int:
        gs = self.instance
        return sum(
            len(gs.query(name).results)
            for name in gs._order
            if gs.query(name).keep_results
        )

    def _run_serial(
        self,
        journal: ResultJournal,
        records: Iterable[Record],
        consumed: int,
        snapshot: Optional[Dict[str, Any]],
    ) -> int:
        gs = self.instance
        if snapshot is not None:
            gs.restore(snapshot["snapshot"])
            records = self._skip(records, consumed)
        gs.start()
        watermark = self._results_watermark()
        batch_no = 0
        since_commit = 0
        try:
            for batch in _batches(records, self.batch_size):
                batch_no += 1
                if self.on_batch is not None:
                    self.on_batch(batch_no, consumed)
                consumed += gs.feed(batch)
                since_commit += 1
                grew = self._results_watermark()
                if (self.window_commits and grew > watermark) or (
                    since_commit >= self.commit_interval
                ):
                    # The rings are fully drained after feed(), so the
                    # checkpoint reflects exactly `consumed` input.
                    self._commit(
                        journal, "commit", consumed, snapshot=gs.checkpoint()
                    )
                    watermark = grew
                    since_commit = 0
        except BaseException:
            gs._session = None  # abandon without flushing
            raise
        gs.finish()
        self._commit(journal, "final", consumed, snapshot=gs.checkpoint())
        return consumed

    # -- sharded -----------------------------------------------------------

    def _run_sharded(
        self,
        journal: ResultJournal,
        records: Iterable[Record],
        consumed: int,
        snapshot: Optional[Dict[str, Any]],
    ) -> int:
        sh = self.instance
        resume_state = None
        if snapshot is not None:
            resume_state = {
                int(shard): (seq, blob)
                for shard, (seq, blob) in snapshot["shards"].items()
            }
            if snapshot.get("routing") is not None:
                # The routing table (and the rebalancer's decision state)
                # rides every commit, so the replay routes — and keeps
                # re-deciding — under the same routing history.
                sh.restore_rebalance(snapshot["routing"])
            elif getattr(sh, "_rebalancer", None) is not None:
                raise ExecutionError(
                    "journal has no routing table but this instance"
                    " rebalances; resume with the same configuration as"
                    " the original run"
                )
            if snapshot.get("metrics"):
                sh.metrics.restore(snapshot["metrics"])
            records = self._skip(records, consumed)
        start = consumed
        rounds = 0
        rebalancing = getattr(sh, "_rebalancer", None) is not None

        def on_round(pool: Any, total: int) -> None:
            nonlocal rounds
            rounds += 1
            if self.on_batch is not None:
                self.on_batch(rounds, start + total)
            if rounds % self.commit_interval == 0:
                extra = (
                    {"routing": sh.routing_snapshot()} if rebalancing else {}
                )
                self._commit(
                    journal,
                    "commit",
                    start + total,
                    shards=pool.checkpoint_all(),
                    # SPLIT-edge counters (quarantine, curation) live in
                    # the parent, outside every shard checkpoint.
                    metrics=sh.metrics.checkpoint(),
                    **extra,
                )

        total = sh.run(
            records,
            batch_size=self.batch_size,
            on_round=on_round,
            resume_state=resume_state,
        )
        consumed = start + total
        self._commit(
            journal,
            "final",
            consumed,
            results={
                name: list(sh.query(name).results) for name in sh._order
            },
            metrics=sh.metrics.checkpoint(),
        )
        return consumed

    def _restore_final(self, entry: Dict[str, Any]) -> None:
        """Reinstate a completed run's results from its final entry."""
        if self._serial:
            self.instance.restore(entry["snapshot"])
            return
        sh = self.instance
        for name, rows in entry["results"].items():
            sh.query(name).results[:] = rows
        if entry.get("metrics"):
            sh.metrics.restore(entry["metrics"])
