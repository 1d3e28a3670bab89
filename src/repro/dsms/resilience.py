"""Shard supervision: crash detection, restart, replay and checkpoints.

A production DSMS keeps answering queries when a worker dies; this
module gives the sharded runtime that property.  The
:class:`ShardSupervisor` is the shard pool whose instances live in
forked workers: :meth:`ShardedGigascope.run` drives it round by round
(``start`` / ``ship`` / ``finish``), and every call monitors the workers:

* **Failure detection** — three signals: the worker process is dead,
  the worker is *stalled* (alive but no ack/checkpoint/result event for
  ``heartbeat_timeout`` seconds), or the result queue delivered an
  undecodable (corrupt) message — the sender of a corrupt message is
  expected to die and is then attributed by the liveness check.
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
  ``checkpoint_interval`` batches the parent asks the worker for its
  :meth:`Gigascope.checkpoint` since the state the parent holds, joins
  the reply onto it (``durability.joined``) and trims the journal
  entries it covers.  The journal is thereby bounded by
  ``journal_capacity``; if it fills before a checkpoint lands, shipping
  backpressures until one arrives (the supervisor never discards a batch
  it might need — recoverability is an invariant, not best-effort).
  Recovery *restores* the held state and replays only the journal tail
  past it; a durable commit takes the held state ``durability.cut``.

The parent side is one put and one wait.  :meth:`ShardSupervisor._put`
is the only queue put: it pumps worker events while the queue is full
and gives up on a worker that is dead or silent past the heartbeat
(``_send`` then recovers the shard).  :meth:`ShardSupervisor._await` is
the only wait — the ``checkpoint_all`` barrier, journal backpressure
and ``finish`` — with one rule for the shards it waits on: a worker dead
for ``RESULT_GRACE`` (its last message may still be in the pipe) or
silent past the heartbeat is recovered, and no wait outlasts
``RESULT_TIMEOUT``.

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
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.dsms.durability import cut, joined, marks
from repro.dsms.runtime import Gigascope
from repro.streams.records import Record, records_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dsms.sharded import ShardedGigascope


#: ceiling, in seconds, on every wait for worker events (a checkpoint
#: barrier, journal backpressure, the final results)
RESULT_TIMEOUT = 30.0
#: grace, in seconds, before a waited-on dead worker is recovered: its
#: last message may still be in the pipe
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
    failures: List[str] = field(default_factory=list)

    @property
    def total_restarts(self) -> int:
        return sum(self.restarts.values())


def _bump(counter: Dict[int, int], shard: int, by: int = 1) -> None:
    counter[shard] = counter.get(shard, 0) + by


class _WorkerDied(Exception):
    """Internal: the worker a put targets is dead or stalled."""


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
    ) -> None:
        self.owner = owner
        self.policy = policy or SupervisionPolicy()
        self.fault_plan = fault_plan
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
        self._journal: List[List[Tuple[int, Sequence[Record]]]] = [[] for _ in range(shards)]
        #: per shard: its checkpoints joined, ``{"seq": covered seq, **state}``
        self._held: List[Optional[Dict[str, Any]]] = [None] * shards
        self._last_ckpt_request = [0] * shards
        self._last_event = [0.0] * shards
        self._restarts = [0] * shards
        #: error text a worker reported before exiting (better than exitcode)
        self._pending_error: Dict[int, str] = {}
        #: per shard: (results, cost accounts, metrics snapshot, trace events)
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

    def start(self, resume_state: Dict[int, Dict[str, Any]]) -> None:
        """Fork the workers; restore the shards ``resume_state`` lists.

        ``resume_state`` (per shard ``{"seq": n, **checkpoint}``, a
        journal's commits joined) seeds the run; unlisted shards start
        fresh at seq 0.  Every held state is set before any worker is told
        to restore, so a worker that crashes around its restore is
        recovered (:meth:`_recover`) into the resumed state.
        """
        for shard in range(self.owner.shards):
            self._spawn(shard)
        for shard, state in resume_state.items():
            self._held[shard] = state
            self._seq[shard] = self._last_ckpt_request[shard] = state["seq"]
            self._trace("shard_resume", shard=shard, seq=state["seq"])
        for shard in resume_state:
            self._send(shard, ("restore", cut(self._held[shard], {})))

    def ship(self, buckets: List[Sequence[Record]]) -> None:
        """Journal and send one round's routed buckets; a journal past
        ``journal_capacity`` backpressures until a checkpoint trims it."""
        capacity = self.policy.journal_capacity
        for shard, bucket in enumerate(buckets):
            if not bucket:
                continue
            self._seq[shard] += 1
            seq = self._seq[shard]
            self._journal[shard].append((seq, bucket))
            self._send(shard, ("batch", seq, bucket))
            self._request_checkpoint(shard, every=self.policy.checkpoint_interval)
            self._await(
                lambda shard=shard: (
                    [shard] if len(self._journal[shard]) > capacity else []
                ),
                f"shard {shard}'s journal backpressure",
                ask=self._request_checkpoint,
            )
        self._drain()

    def close(self) -> None:
        """Reap the workers (any still alive: the run failed)."""
        for worker in self._workers:
            if worker is not None and worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            if worker is not None:
                worker.join(timeout=5.0)

    def checkpoint_all(self, since: Dict[int, Any]) -> Dict[int, Dict[str, Any]]:
        """Every shard's held state, once it covers every batch shipped so
        far, cut at the marks ``since`` holds for it.

        Queue ordering guarantees a checkpoint covers every batch
        shipped before its request: the request is enqueued behind
        them.  A shard that recovers mid-request is re-asked, because
        the replacement never saw the request.  Shards that have
        received no batches are omitted — they have no state.
        """
        shards = range(self.owner.shards)
        self._await(
            lambda: [s for s in shards if self._covered(s) < self._seq[s]],
            "checkpoint_all",
            ask=self._request_checkpoint,
        )
        return {s: cut(self._held[s], since.get(s, {})) for s in shards if self._held[s]}

    # -- checkpoints -----------------------------------------------------------------

    def _covered(self, shard: int) -> int:
        """The seq the shard's held state covers (0: none)."""
        held = self._held[shard]
        return held["seq"] if held else 0

    def _hold(self, shard: int, seq: int, state: Dict[str, Any]) -> None:
        """Join ``state``, the shard's checkpoint at ``seq`` since the held
        one, onto the held one (its lists extended in place, so a restore
        sends them ``cut`` afresh: ``Queue.put`` pickles later, on a feeder
        thread); drop the journal entries it covers."""
        self._held[shard] = {**joined(self._held[shard] or {}, state), "seq": seq}
        self._journal[shard] = [
            entry for entry in self._journal[shard] if entry[0] > seq
        ]

    def _request_checkpoint(self, shard: int, every: int = 0) -> None:
        """Ask the worker for a checkpoint at the shard's current seq,
        since the held state's marks: when no request is in flight (a
        reply must join onto what is held when it arrives) and ``every``
        batches have passed the held checkpoint."""
        seq, covered = self._seq[shard], self._covered(shard)
        if self._last_ckpt_request[shard] > covered or seq - covered < every:
            return
        held = self._held[shard]
        if self._send(shard, ("checkpoint", seq, marks(held) if held else None)):
            self._last_ckpt_request[shard] = seq
            self._ckpt_request_time[shard] = time.monotonic()

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
        """Restart one shard: terminate, backoff, re-fork, restore, replay.

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
                old.terminate()  # stalled
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
            held = self._held[shard]
            start_seq = self._last_ckpt_request[shard] = self._covered(shard)
            try:
                if held is not None:
                    self._put(shard, ("restore", cut(held, {})))
                    _bump(self.report.recoveries_from_checkpoint, shard)
                replayed = 0
                for seq, bucket in self._journal[shard]:
                    if seq > start_seq:
                        self._put(shard, ("batch", seq, bucket))
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
                    from_checkpoint=held is not None,
                )
                if self._finishing:
                    self._put(shard, ("finish",))
                return
            except _WorkerDied as died:
                reason = str(died)

    def _failure_reason(self, shard: int) -> str:
        error = self._pending_error.pop(shard, None)
        if error is not None:
            return f"worker raised: {error}"
        worker = self._workers[shard]
        return (
            f"worker (pid {worker.pid}) exited with code {worker.exitcode}"
            " without reporting a result"
        )

    def _stalled(self, shard: int) -> Optional[str]:
        """Why a live worker counts as failed (None: it does not)."""
        if time.monotonic() - self._last_event[shard] > self.policy.heartbeat_timeout:
            return f"stalled: no event for {self.policy.heartbeat_timeout}s"
        return None

    # -- the one put and the one wait ---------------------------------------------

    def _put(self, shard: int, message: tuple) -> None:
        """Put ``message`` on the shard's queue, pumping worker events
        while it is full.

        Raises :class:`_WorkerDied` when the worker is dead, or silent
        past the heartbeat (:meth:`_recover` terminates it).
        """
        while True:
            if not self._workers[shard].is_alive():
                raise _WorkerDied(self._failure_reason(shard))
            try:
                self._in_queues[shard].put(message, timeout=self.policy.put_timeout)
                return
            except _queue.Full:
                self._drain()
                stalled = self._stalled(shard)
                if stalled:
                    raise _WorkerDied(stalled) from None

    def _send(self, shard: int, message: tuple) -> bool:
        """:meth:`_put`, recovering the shard if its worker died — False
        then, and the caller re-sends nothing: recovery restores the held
        state and replays the journal."""
        try:
            self._put(shard, message)
        except _WorkerDied as died:
            self._recover(shard, str(died))
            return False
        return True

    def _await(
        self,
        pending: Callable[[], List[int]],
        what: str,
        ask: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Pump worker events until ``pending()`` names no shard.

        Each turn calls ``ask`` on every pending shard.  A turn that
        brings no event recovers each pending worker dead for
        ``RESULT_GRACE`` or silent past the heartbeat.  A wait that
        outlasts ``RESULT_TIMEOUT`` raises, naming ``what``.
        """
        deadline = time.monotonic() + RESULT_TIMEOUT
        # per (shard, epoch): when this wait first saw that worker dead
        dead_since: Dict[Tuple[int, int], float] = {}
        while True:
            shards = pending()
            if not shards:
                return
            if time.monotonic() > deadline:
                raise ExecutionError(
                    f"{what} timed out after {RESULT_TIMEOUT}s waiting for"
                    f" shards {shards} (failure log:"
                    f" {'; '.join(self.report.failures) or 'none'})"
                )
            if ask is not None:
                for shard in shards:
                    ask(shard)
            if self._pump_once(0.05):
                continue
            now = time.monotonic()
            for shard in shards:
                if self._workers[shard].is_alive():
                    reason = self._stalled(shard)
                else:
                    since = dead_since.setdefault((shard, self._epoch[shard]), now)
                    reason = (
                        self._failure_reason(shard)
                        if now - since >= RESULT_GRACE else None
                    )
                if reason is not None:
                    self._recover(shard, reason)

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
            self._hold(shard, seq, pickle.loads(blob))
            _bump(self.report.checkpoints, shard)
            self._count(
                "supervisor_checkpoints_total", shard,
                help="shard checkpoints received",
            )
            self.owner.metrics.histogram(
                "supervisor_checkpoint_bytes",
                help="pickled size of a shard checkpoint: live state and what it appended since",
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
        elif kind == "result":
            self._results[shard] = message[3:]
        elif kind == "error":
            self._pending_error[shard] = message[3]
        return True

    # -- completion ------------------------------------------------------------------

    def finish(self) -> List[Dict[str, List[Record]]]:
        """Flush every worker, fold its balances and registry into the
        owner's; returns the results per shard."""
        self._finishing = True
        shards = range(self.owner.shards)
        for shard in shards:
            self._send(shard, ("finish",))
        self._await(
            lambda: [s for s in shards if s not in self._results], "supervised run"
        )
        shard_results: List[Dict[str, List[Record]]] = []
        for shard in shards:
            rows, accounts, metrics_snap, trace_events = self._results[shard]
            schemas = {n: self.owner.query(n).output_schema for n in rows}
            shard_results.append({n: records_of(schemas[n], v) for n, v in rows.items()})
            self.owner.cost.absorb(accounts)
            self.owner._absorb_shard_obs(shard, metrics_snap, trace_events)
        return shard_results


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
    record batches, checkpoints, result rows and cost balances cross the
    process boundary, the rows as value tuples (rebuilt by the parent).

    Inbound: ``("restore", state)`` reinstates the checkpoints the parent
    holds, joined; ``("batch", seq, records)`` feeds one routed batch
    and acks it; ``("checkpoint", seq, since)`` replies with
    :meth:`Gigascope.checkpoint` since the marks ``since``;
    ``("finish",)`` flushes and reports.  Outbound messages all carry
    ``(kind, shard, epoch, ...)`` so the parent can discard events from
    incarnations it has declared dead.

    The checkpoint reply is pickled *synchronously* (``pickle.dumps``)
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
                # Any balances in it are this worker's own (cf.
                # ``_InlinePool.checkpoint_all``).
                instance.restore(message[1])
            elif kind == "batch":
                seq, records = message[1], message[2]
                batch_no += 1
                if fault_plan is not None:
                    fault_plan.fire_batch(shard, epoch, batch_no, out_queue)
                instance.feed(records)
                out_queue.put(("ack", shard, epoch, seq))
            elif kind == "checkpoint":
                blob = pickle.dumps(instance.checkpoint(message[2]))
                out_queue.put(("ckpt", shard, epoch, message[1], blob))
            elif kind == "finish":
                if fault_plan is not None and fault_plan.drops_result(shard, epoch):
                    fault_plan.die(out_queue, 0)
                instance.finish()
                rows = {n: [r.values for r in instance.query(n).results] for n in query_names}
                accounts = instance.cost.accounts() if instance.cost.enabled else {}
                trace_events = (
                    list(instance.trace.events) if instance.trace.enabled else []
                )
                out_queue.put(
                    ("result", shard, epoch, rows, accounts,
                     instance.metrics.checkpoint(), trace_events)
                )
                return
            else:  # pragma: no cover - protocol guard
                raise ExecutionError(f"unknown supervisor message {kind!r}")
    except BaseException as exc:  # pragma: no cover - exercised via parent
        out_queue.put(("error", shard, epoch, repr(exc)))
