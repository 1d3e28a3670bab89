"""Shard supervision: crash detection, restart, replay and checkpoints.

A production DSMS keeps answering queries when a worker dies; this
module gives the sharded runtime that property.  The
:class:`ShardSupervisor` is the shard pool whose instances live in
forked workers: :meth:`ShardedGigascope.run` drives it round by round
(``start`` / ``ship`` / ``finish``), and every call monitors the workers:

* **Failure detection** — three signals: the worker process is dead
  (``is_alive`` false, with a short grace period for a result already in
  the queue's feeder pipe), the worker is *stalled* (alive but no
  ack/checkpoint/result event for ``heartbeat_timeout`` seconds while it
  has outstanding work), or the result queue delivered an undecodable
  (corrupt) message — the sender of a corrupt message is expected to die
  and is then attributed by the liveness check.
* **Restart with capped exponential backoff** — each shard may restart
  ``max_restarts`` times; the Nth restart waits
  ``min(backoff_base * 2**(N-1), backoff_cap)`` seconds.  Workers are
  re-forked from the parent's pristine (never-started) shard instances,
  so a restarted worker begins from a clean slate.
* **Replay from a bounded journal** — the parent journals every routed
  batch per shard as ``(seq, records)``.  Recovery replays journalled
  batches in order, so a restarted shard deterministically reconstructs
  its state (all sampling state is seeded RNG + counters, so replay is
  exact).
* **Checkpoint when the journal is truncated** — every
  ``checkpoint_interval`` batches the parent asks the worker for an
  operator-state snapshot (:meth:`Gigascope.checkpoint`), and on the
  snapshot's arrival trims journal entries it covers.  The journal is
  thereby bounded by ``journal_capacity``; if it fills before a snapshot
  lands, shipping backpressures until the in-flight checkpoint arrives
  (the supervisor never discards a batch it might need — recoverability
  is an invariant, not best-effort).  Recovery then *restores* the
  snapshot and replays only the journal tail past it.
* **Graceful degradation** — when a shard's input queue stays full and
  its depth is at ``shed_threshold``, the supervisor drops the batch
  instead of blocking indefinitely: the shed records are counted per
  shard in the :class:`SupervisionReport` and accounted in the owner's
  registry like every other shed record (``runtime.REFUSALS``: offered,
  shed, charged ``tuple_shed``), and the run keeps its latency at the
  cost of answer completeness (the paper's position: a degraded sample
  beats a stalled operator).

Epochs disambiguate incarnations: every worker message carries the
worker's epoch, and the parent ignores messages from epochs it has
already declared dead (a killed worker's queued acks must not be
mistaken for progress of its replacement).

Caveat: terminating a worker mid-``put`` can in principle corrupt a
queue (multiprocessing's documented limitation).  The supervisor only
terminates workers that have been silent for ``heartbeat_timeout``,
which in practice means blocked or sleeping, not mid-write; the corrupt
message path is handled anyway.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as _queue
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.dsms.runtime import Gigascope, account_refusal
from repro.streams.records import Record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dsms.sharded import ShardedGigascope


#: overall ceiling, in seconds, on waiting for final results after finish
RESULT_TIMEOUT = 30.0
#: grace, in seconds, for a dead worker's in-flight result to surface
#: from the pipe
RESULT_GRACE = 1.0


@dataclass
class SupervisionPolicy:
    """Tunables for shard supervision (defaults suit test-scale runs)."""

    #: restarts allowed per shard before the run fails permanently
    max_restarts: int = 2
    #: first-restart backoff in seconds; doubles per restart
    backoff_base: float = 0.05
    #: ceiling on the exponential backoff
    backoff_cap: float = 2.0
    #: seconds without any worker event before an alive worker counts as stalled
    heartbeat_timeout: float = 10.0
    #: request an operator-state checkpoint every N shipped batches
    checkpoint_interval: int = 8
    #: max journalled batches per shard before shipping backpressures
    journal_capacity: int = 64
    #: per-attempt queue put timeout (liveness is re-checked between attempts)
    put_timeout: float = 0.25


@dataclass
class SupervisionReport:
    """What the supervisor did: per-shard counters plus a failure log."""

    restarts: Dict[int, int] = field(default_factory=dict)
    checkpoints: Dict[int, int] = field(default_factory=dict)
    recoveries_from_checkpoint: Dict[int, int] = field(default_factory=dict)
    replayed_batches: Dict[int, int] = field(default_factory=dict)
    shed_records: Dict[int, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def total_restarts(self) -> int:
        return sum(self.restarts.values())

    @property
    def total_shed(self) -> int:
        return sum(self.shed_records.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "restarts": dict(self.restarts),
            "checkpoints": dict(self.checkpoints),
            "recoveries_from_checkpoint": dict(self.recoveries_from_checkpoint),
            "replayed_batches": dict(self.replayed_batches),
            "shed_records": dict(self.shed_records),
            "failures": list(self.failures),
        }


def _bump(counter: Dict[int, int], shard: int, by: int = 1) -> None:
    counter[shard] = counter.get(shard, 0) + by


class _WorkerDied(Exception):
    """Internal: the worker targeted by a recovery put is gone."""


class ShardSupervisor:
    """The shard pool of forked workers, under crash supervision.

    One supervisor serves one :meth:`ShardedGigascope.run` call; it is
    not reusable.  The owner provides the shard instances, the routed
    buckets and the cost model; the supervisor owns worker lifecycle,
    the journal, checkpoints and the recovery protocol.
    """

    def __init__(
        self,
        owner: "ShardedGigascope",
        policy: Optional[SupervisionPolicy] = None,
        fault_plan: Any = None,
        shed_threshold: Optional[int] = None,
    ) -> None:
        self.owner = owner
        self.policy = policy or SupervisionPolicy()
        self.fault_plan = fault_plan
        self.shed_threshold = shed_threshold
        self.report = SupervisionReport()
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise ExecutionError(
                "supervised execution needs the 'fork' start method (POSIX)"
            ) from exc
        shards = owner.shards
        self._out_queue = self._context.Queue()
        self._in_queues: List[Any] = [None] * shards
        self._workers: List[Any] = [None] * shards
        self._epoch = [0] * shards
        self._seq = [0] * shards
        #: per shard: journalled (seq, records) batches not yet checkpointed
        self._journal: List[List[Tuple[int, List[Record]]]] = [[] for _ in range(shards)]
        #: per shard: latest checkpoint as (covered seq, pickled snapshot)
        self._ckpt: List[Optional[Tuple[int, bytes]]] = [None] * shards
        self._last_ckpt_request = [0] * shards
        self._last_event = [0.0] * shards
        self._restarts = [0] * shards
        #: error text a worker reported before exiting (better than exitcode)
        self._pending_error: Dict[int, str] = {}
        #: per shard: (results, cost accounts, run report, metrics snapshot,
        #: trace events)
        self._results: Dict[int, tuple] = {}
        self._finishing = False
        #: monotonic time of the outstanding checkpoint request, per shard
        self._ckpt_request_time: Dict[int, float] = {}

    # -- observability ---------------------------------------------------------------

    def _count(self, name: str, shard: int, by: int = 1, help: str = "") -> None:
        """Bump a supervisor counter in the owner's registry.

        The ``supervisor_`` prefix matters: these series describe the
        *recovery machinery*, not the data, so determinism tests exclude
        them when comparing a faulted run against an unfaulted one.
        """
        self.owner.metrics.counter(name, help=help or None, shard=shard).inc(by)

    def _trace(self, kind: str, **fields: Any) -> None:
        if self.owner.trace.enabled:
            self.owner.trace.emit(kind, **fields)

    # -- the pool calls ------------------------------------------------------------

    def start(self, resume_state: Dict[int, Tuple[int, bytes]]) -> None:
        """Fork the workers; restore the shards ``resume_state`` lists.

        ``resume_state`` (per shard: ``(covered_seq, pickled snapshot)``,
        as produced by :meth:`checkpoint_all`) seeds the run from a prior
        process's committed checkpoints — the whole-pipeline durable
        resume of :mod:`repro.dsms.durability`.  Each listed shard starts
        by restoring its snapshot, and its sequence numbering continues
        from ``covered_seq`` so later checkpoints and journal trims line
        up; unlisted shards start fresh at seq 0.
        """
        for shard in range(self.owner.shards):
            self._spawn(shard)
        for shard, (seq, blob) in resume_state.items():
            self._ckpt[shard] = (seq, blob)
            self._seq[shard] = seq
            self._last_ckpt_request[shard] = seq
            self._trace(
                "shard_resume", shard=shard, seq=seq, bytes=len(blob)
            )
            try:
                self._put_or_die(shard, ("restore", seq, blob))
            except _WorkerDied as died:
                # _recover re-sends the restore from self._ckpt.
                self._recover(shard, str(died))

    def ship(self, buckets: List[List[Record]]) -> None:
        """Journal and send one round's routed buckets."""
        for shard, bucket in enumerate(buckets):
            if not bucket:
                continue
            self._seq[shard] += 1
            seq = self._seq[shard]
            self._journal[shard].append((seq, bucket))
            self._send_batch(shard, seq, bucket)
            self._maybe_checkpoint(shard)
            self._enforce_journal_bound(shard)
        self._drain()

    def close(self) -> None:
        """Reap the workers (any still alive: the run failed)."""
        for worker in self._workers:
            if worker is not None and worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            if worker is not None:
                worker.join(timeout=5.0)

    def add_shard(self, shard: int) -> None:
        """Grow the supervised pool by one worker (elastic scale-up).

        The owner must already have grown ``_instances``/``shards``; this
        extends every per-shard structure and spawns the worker.  The new
        shard starts at seq 0 with no journal — it receives state only
        through :meth:`install_checkpoints` (a migration) or routed
        batches.
        """
        if shard != len(self._workers):
            raise ExecutionError(
                f"add_shard({shard}) out of order: pool has"
                f" {len(self._workers)} workers"
            )
        self._in_queues.append(None)
        self._workers.append(None)
        self._epoch.append(0)
        self._seq.append(0)
        self._journal.append([])
        self._ckpt.append(None)
        self._last_ckpt_request.append(0)
        self._last_event.append(0.0)
        self._restarts.append(0)
        self._trace("shard_added", shard=shard)
        self._count(
            "supervisor_shards_added_total", shard,
            help="workers added to the pool by elastic scale-up",
        )
        self._spawn(shard)

    def install_checkpoints(self, blobs: Dict[int, bytes]) -> None:
        """Atomically replace shard checkpoints after a state migration.

        Two phases, deliberately ordered: first *every* affected shard's
        parent-side ``_ckpt`` slot is rewritten (and its journal prefix
        dropped — the new snapshot covers everything shipped so far), and
        only then are the live workers told to restore.  A worker that
        crashes before, during, or after its restore is recovered by the
        normal :meth:`_recover` path, which reads the already-rewritten
        ``_ckpt`` — so a mid-migration crash can only land the run in the
        consistent post-migration state, never a half-migrated one.
        """
        for shard, blob in blobs.items():
            seq = self._seq[shard]
            self._ckpt[shard] = (seq, blob)
            self._last_ckpt_request[shard] = seq
            self._journal[shard] = [
                entry for entry in self._journal[shard] if entry[0] > seq
            ]
            self._trace(
                "shard_migrate", shard=shard, seq=seq, bytes=len(blob)
            )
            self._count(
                "supervisor_migrations_total", shard,
                help="post-migration checkpoints installed into workers",
            )
        for shard in blobs:
            seq, blob = self._ckpt[shard]
            # False return means recovery intervened — and _recover
            # already restored from the new _ckpt, so nothing to re-send.
            self._send_control(shard, ("restore", seq, blob))

    def checkpoint_all(self) -> Dict[int, Tuple[int, bytes]]:
        """Synchronously checkpoint every shard at its current sequence.

        Queue ordering guarantees the returned snapshots cover every
        batch shipped so far: the checkpoint request is enqueued behind
        them, so the worker processes them first.  Blocks (pumping events
        and running recovery as needed) until every shard's snapshot has
        arrived; a shard that recovers mid-request is re-asked, because
        the replacement's restored state never saw the request.  Shards
        that have received no batches are omitted — they have no state.
        """
        deadline = time.monotonic() + RESULT_TIMEOUT
        while True:
            pending = [
                shard
                for shard in range(self.owner.shards)
                if (self._ckpt[shard][0] if self._ckpt[shard] else 0)
                < self._seq[shard]
            ]
            if not pending:
                break
            for shard in pending:
                covered = self._ckpt[shard][0] if self._ckpt[shard] else 0
                if self._last_ckpt_request[shard] <= covered:
                    if self._send_control(
                        shard, ("checkpoint", self._seq[shard])
                    ):
                        self._last_ckpt_request[shard] = self._seq[shard]
                        self._ckpt_request_time[shard] = time.monotonic()
            if not self._pump_once(0.05):
                for shard in pending:
                    self._check_health(shard)
            if time.monotonic() > deadline:
                raise ExecutionError(
                    "checkpoint_all timed out after"
                    f" {RESULT_TIMEOUT}s waiting for shards"
                    f" {pending}"
                )
        return {
            shard: self._ckpt[shard]
            for shard in range(self.owner.shards)
            if self._ckpt[shard] is not None
        }

    def states(self) -> Dict[int, Dict[str, Any]]:
        """Every shard's current checkpoint, unpickled (the rebalance
        barrier rewrites them and hands back the changed ones)."""
        return {
            shard: pickle.loads(blob)
            for shard, (_seq, blob) in self.checkpoint_all().items()
        }

    def install_states(self, states: Dict[int, Dict[str, Any]]) -> None:
        self.install_checkpoints(
            {shard: pickle.dumps(state) for shard, state in states.items()}
        )

    # -- worker lifecycle ------------------------------------------------------------

    def _spawn(self, shard: int) -> None:
        old_queue = self._in_queues[shard]
        if old_queue is not None:
            try:
                old_queue.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        in_queue = self._context.Queue(maxsize=self.owner.queue_depth)
        worker = self._context.Process(
            target=_supervised_worker,
            args=(
                shard,
                self._epoch[shard],
                self.owner._instances[shard],
                list(self.owner._order),
                in_queue,
                self._out_queue,
                self.fault_plan,
            ),
            daemon=True,
        )
        self._in_queues[shard] = in_queue
        self._workers[shard] = worker
        worker.start()
        self._last_event[shard] = time.monotonic()

    def _recover(self, shard: int, reason: str) -> None:
        """Restart one shard: backoff, re-fork, restore, replay.

        Loops (rather than recursing) if the replacement also dies during
        recovery; every attempt burns one unit of the restart budget.
        """
        while True:
            self.report.failures.append(
                f"shard {shard} epoch {self._epoch[shard]}: {reason}"
            )
            if self._restarts[shard] >= self.policy.max_restarts:
                raise ExecutionError(
                    f"shard {shard} failed permanently after"
                    f" {self._restarts[shard]} restart(s): {reason}"
                    f" (failure log: {'; '.join(self.report.failures)})"
                )
            self._restarts[shard] += 1
            _bump(self.report.restarts, shard)
            self._count(
                "supervisor_restarts_total", shard,
                help="shard worker restarts",
            )
            self._trace(
                "shard_restart",
                shard=shard,
                epoch=self._epoch[shard] + 1,
                reason=reason,
            )
            old = self._workers[shard]
            if old.is_alive():
                old.terminate()
            old.join(timeout=5.0)
            time.sleep(
                min(
                    self.policy.backoff_base * (2 ** (self._restarts[shard] - 1)),
                    self.policy.backoff_cap,
                )
            )
            self._epoch[shard] += 1
            self._pending_error.pop(shard, None)
            self._spawn(shard)
            checkpoint = self._ckpt[shard]
            self._last_ckpt_request[shard] = checkpoint[0] if checkpoint else 0
            try:
                start_seq = 0
                if checkpoint is not None:
                    ckpt_seq, blob = checkpoint
                    self._put_or_die(shard, ("restore", ckpt_seq, blob))
                    start_seq = ckpt_seq
                    _bump(self.report.recoveries_from_checkpoint, shard)
                replayed = 0
                for seq, bucket in self._journal[shard]:
                    if seq > start_seq:
                        self._put_or_die(shard, ("batch", seq, bucket))
                        _bump(self.report.replayed_batches, shard)
                        replayed += 1
                self._count(
                    "supervisor_replayed_batches_total", shard, by=replayed,
                    help="journalled batches replayed into restarted workers",
                )
                self._trace(
                    "shard_replay",
                    shard=shard,
                    epoch=self._epoch[shard],
                    from_seq=start_seq,
                    batches=replayed,
                    from_checkpoint=checkpoint is not None,
                )
                if self._finishing:
                    self._put_or_die(shard, ("finish",))
                return
            except _WorkerDied as died:
                reason = str(died)

    def _put_or_die(self, shard: int, message: tuple) -> None:
        while True:
            worker = self._workers[shard]
            if not worker.is_alive():
                raise _WorkerDied(
                    f"replacement worker (pid {worker.pid}) exited with code"
                    f" {worker.exitcode} during recovery"
                )
            try:
                self._in_queues[shard].put(message, timeout=self.policy.put_timeout)
                return
            except _queue.Full:
                self._drain()
                if (
                    time.monotonic() - self._last_event[shard]
                    > self.policy.heartbeat_timeout
                ):
                    worker.terminate()
                    worker.join(timeout=5.0)
                    raise _WorkerDied(
                        "replacement worker stalled during recovery replay"
                    ) from None

    def _failure_reason(self, shard: int) -> str:
        error = self._pending_error.pop(shard, None)
        if error is not None:
            return f"worker raised: {error}"
        worker = self._workers[shard]
        return (
            f"worker (pid {worker.pid}) exited with code {worker.exitcode}"
            " without reporting a result"
        )

    # -- shipping --------------------------------------------------------------------

    def _send_batch(self, shard: int, seq: int, bucket: List[Record]) -> None:
        while True:
            worker = self._workers[shard]
            if not worker.is_alive():
                # Recovery replays the journal, which already holds this
                # batch — nothing further to send here.
                self._recover(shard, self._failure_reason(shard))
                return
            try:
                self._in_queues[shard].put(("batch", seq, bucket), timeout=self.policy.put_timeout)
                return
            except _queue.Full:
                if (
                    self.shed_threshold is not None
                    and self._queue_depth(shard) >= self.shed_threshold
                ):
                    entry = self._journal[shard].pop()
                    assert entry[0] == seq
                    self._shed(shard, bucket)
                    return
                self._drain()
                if self._check_stalled(shard):
                    return

    def _send_control(self, shard: int, message: tuple) -> bool:
        """Send a non-batch message; returns False if recovery intervened
        (recovery resets control bookkeeping, so nothing is re-sent)."""
        while True:
            worker = self._workers[shard]
            if not worker.is_alive():
                self._recover(shard, self._failure_reason(shard))
                return False
            try:
                self._in_queues[shard].put(message, timeout=self.policy.put_timeout)
                return True
            except _queue.Full:
                self._drain()
                if self._check_stalled(shard):
                    return False

    def _check_stalled(self, shard: int) -> bool:
        """Terminate-and-recover a silent worker; True if recovery ran."""
        if time.monotonic() - self._last_event[shard] <= self.policy.heartbeat_timeout:
            return False
        worker = self._workers[shard]
        worker.terminate()
        worker.join(timeout=5.0)
        self._recover(
            shard,
            f"stalled: no event for {self.policy.heartbeat_timeout}s"
            " with outstanding work",
        )
        return True

    def _maybe_checkpoint(self, shard: int) -> None:
        covered = self._ckpt[shard][0] if self._ckpt[shard] else 0
        outstanding = max(self._last_ckpt_request[shard], covered)
        if self._seq[shard] - outstanding >= self.policy.checkpoint_interval:
            if self._send_control(shard, ("checkpoint", self._seq[shard])):
                self._last_ckpt_request[shard] = self._seq[shard]
                self._ckpt_request_time[shard] = time.monotonic()

    def _enforce_journal_bound(self, shard: int) -> None:
        """Backpressure until an in-flight checkpoint trims the journal."""
        while len(self._journal[shard]) > self.policy.journal_capacity:
            covered = self._ckpt[shard][0] if self._ckpt[shard] else 0
            if self._last_ckpt_request[shard] <= covered:
                if self._send_control(shard, ("checkpoint", self._seq[shard])):
                    self._last_ckpt_request[shard] = self._seq[shard]
                    self._ckpt_request_time[shard] = time.monotonic()
                continue
            if not self._pump_once(0.05):
                self._check_health(shard)

    def _check_health(self, shard: int) -> None:
        worker = self._workers[shard]
        if not worker.is_alive():
            self._recover(shard, self._failure_reason(shard))
        else:
            self._check_stalled(shard)

    def _shed(self, shard: int, bucket: List[Record]) -> None:
        _bump(self.report.shed_records, shard, len(bucket))
        self._count(
            "supervisor_shed_records_total", shard, by=len(bucket),
            help="records dropped at a saturated shard input queue",
        )
        per_stream: Dict[str, int] = {}
        for record in bucket:
            name = record.schema.name
            per_stream[name] = per_stream.get(name, 0) + 1
        for stream, count in per_stream.items():
            # The worker never sees these, so the parent counts them as
            # offered; the supervisor counter above is the by-cause view.
            fields = {"shard": shard, "epoch": self._epoch[shard], "records": count}
            account_refusal(
                self.owner, "shed", stream, count, offered=True,
                event="shard_shed", fields=fields,
            )

    def _queue_depth(self, shard: int) -> int:
        try:
            return self._in_queues[shard].qsize()
        except NotImplementedError:  # pragma: no cover - macOS
            # No depth introspection: a full queue counts as at-threshold.
            return self.shed_threshold or 0

    # -- event pump ------------------------------------------------------------------

    def _drain(self) -> None:
        while self._pump_once(0.0):
            pass

    def _pump_once(self, timeout: float) -> bool:
        """Process at most one worker event; True if anything arrived."""
        try:
            if timeout <= 0:
                message = self._out_queue.get_nowait()
            else:
                message = self._out_queue.get(timeout=timeout)
        except _queue.Empty:
            return False
        except Exception as exc:
            # A message that failed to unpickle: the queue survives, the
            # broken sender dies and the liveness check attributes it.
            self.report.failures.append(
                f"result queue delivered an undecodable message: {exc!r}"
            )
            return True
        kind, shard, epoch = message[0], message[1], message[2]
        if epoch != self._epoch[shard]:
            return True  # stale event from a dead incarnation
        self._last_event[shard] = time.monotonic()
        if kind == "ack":
            pass  # the event itself is the heartbeat
        elif kind == "ckpt":
            seq, blob = message[3], message[4]
            self._ckpt[shard] = (seq, blob)
            _bump(self.report.checkpoints, shard)
            self._count(
                "supervisor_checkpoints_total", shard,
                help="shard checkpoints received",
            )
            self.owner.metrics.histogram(
                "supervisor_checkpoint_bytes",
                help="pickled size of shard checkpoints",
                shard=shard,
            ).observe(len(blob))
            requested = self._ckpt_request_time.pop(shard, None)
            if requested is not None:
                self.owner.metrics.histogram(
                    "supervisor_checkpoint_seconds",
                    help="request-to-arrival latency of shard checkpoints",
                    shard=shard,
                ).observe(time.monotonic() - requested)
            self._trace(
                "shard_checkpoint",
                shard=shard,
                epoch=epoch,
                seq=seq,
                bytes=len(blob),
            )
            self._journal[shard] = [
                entry for entry in self._journal[shard] if entry[0] > seq
            ]
        elif kind == "result":
            self._results[shard] = (
                message[3], message[4], message[5], message[6], message[7]
            )
        elif kind == "error":
            self._pending_error[shard] = message[3]
        return True

    # -- completion ------------------------------------------------------------------

    def finish(self) -> Tuple[List[Dict[str, List[Record]]], List[dict]]:
        """Flush every worker; returns ``(results per shard, run reports)``."""
        self._finishing = True
        for shard in range(self.owner.shards):
            self._send_control(shard, ("finish",))
        deadline = time.monotonic() + RESULT_TIMEOUT
        dead_since: Dict[int, float] = {}
        while len(self._results) < self.owner.shards:
            if self._pump_once(0.05):
                continue
            now = time.monotonic()
            for shard in range(self.owner.shards):
                if shard in self._results:
                    dead_since.pop(shard, None)
                    continue
                worker = self._workers[shard]
                if not worker.is_alive():
                    since = dead_since.setdefault(shard, now)
                    if now - since >= RESULT_GRACE:
                        dead_since.pop(shard, None)
                        self._recover(shard, self._failure_reason(shard))
                elif now - self._last_event[shard] > self.policy.heartbeat_timeout:
                    worker.terminate()
                    worker.join(timeout=5.0)
                    self._recover(
                        shard,
                        "stalled while finishing: no event for"
                        f" {self.policy.heartbeat_timeout}s",
                    )
            if time.monotonic() > deadline:
                missing = sorted(set(range(self.owner.shards)) - set(self._results))
                raise ExecutionError(
                    f"supervised run timed out after {RESULT_TIMEOUT}s"
                    f" waiting for shards {missing}"
                    f" (failure log: {'; '.join(self.report.failures) or 'none'})"
                )
        shard_results: List[Dict[str, List[Record]]] = []
        reports: List[dict] = []
        for shard in range(self.owner.shards):
            results, accounts, report, metrics_snap, trace_events = self._results[shard]
            shard_results.append(results)
            self.owner.cost.absorb(accounts)
            reports.append(report)
            self.owner._absorb_shard_obs(shard, metrics_snap, trace_events)
        return shard_results, reports


def _supervised_worker(
    shard: int,
    epoch: int,
    instance: "Gigascope",
    query_names: List[str],
    in_queue,
    out_queue,
    fault_plan: Any = None,
) -> None:
    """Worker loop under supervision: a small message protocol.

    Runs in a forked child, so ``instance`` (including closures inside
    SFUN libraries) is inherited by memory copy rather than pickled; only
    record batches, checkpoints, result records and cost balances cross
    the process boundary, and those pickle cleanly.

    Inbound: ``("restore", seq, blob)`` reinstates a pickled
    :meth:`Gigascope.checkpoint`; ``("batch", seq, records)`` feeds one
    routed batch and acks it; ``("checkpoint", seq)`` snapshots operator
    state and ships it back; ``("finish",)`` flushes and reports.
    Outbound messages all carry ``(kind, shard, epoch, ...)`` so the
    parent can discard events from incarnations it has declared dead.

    The checkpoint blob is pickled *synchronously* (``pickle.dumps``)
    before it enters the queue: Queue.put pickles lazily on a feeder
    thread, which would race with this loop mutating operator state on
    the very next batch.
    """
    try:
        if instance.cost.enabled:
            # The fork copied the parent's balances; count only this
            # worker's own charges so the parent can absorb the delta.
            instance.cost.reset()
        instance.start()
        batch_no = 0
        while True:
            message = in_queue.get()
            kind = message[0]
            if kind == "restore":
                # Any balances in it are this worker's own (cf. ``shard_state``).
                instance.restore(pickle.loads(message[2]))
            elif kind == "batch":
                seq, records = message[1], message[2]
                batch_no += 1
                if fault_plan is not None:
                    fault_plan.fire_batch(shard, epoch, batch_no, out_queue)
                instance.feed(records)
                out_queue.put(("ack", shard, epoch, seq))
            elif kind == "checkpoint":
                blob = pickle.dumps(instance.checkpoint())
                out_queue.put(("ckpt", shard, epoch, message[1], blob))
            elif kind == "finish":
                if fault_plan is not None and fault_plan.drops_result(shard, epoch):
                    fault_plan.die(out_queue, 0)
                instance.finish()
                results = {name: instance.query(name).results for name in query_names}
                accounts = instance.cost.accounts() if instance.cost.enabled else {}
                trace_events = (
                    list(instance.trace.events) if instance.trace.enabled else []
                )
                out_queue.put(
                    ("result", shard, epoch, results, accounts,
                     instance.run_report(), instance.metrics.checkpoint(),
                     trace_events)
                )
                return
            else:  # pragma: no cover - protocol guard
                raise ExecutionError(f"unknown supervisor message {kind!r}")
    except BaseException as exc:  # pragma: no cover - exercised via parent
        out_queue.put(("error", shard, epoch, repr(exc)))
