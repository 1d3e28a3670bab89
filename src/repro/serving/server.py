"""The standing-query serving engine and its asyncio server.

Two layers (docs/SERVING.md):

* :class:`StandingQueryEngine` — the deterministic core.  Every
  registered standing query owns a private, solo-shaped
  :class:`~repro.dsms.runtime.Gigascope` (its own operators, results,
  metrics registry and cost accounts), so each query's outputs are
  byte-identical to a solo serial run *by construction*.  What is shared
  is the **work**: queries whose plans carry equal
  :class:`~repro.serving.sharing.ShareSignature` s form a group whose
  low-level prefix runs once per batch on the canonical member, with the
  captured effects replayed into the rest (see
  :mod:`repro.serving.sharing`).  Per-tenant cost quotas shed whole
  batches for over-budget tenants — counted, charged (``quota_shed``)
  and folded into the conservation identity, never silent.  Every
  query step runs inside a **fault boundary**: a failing query is
  quarantined behind a per-query :class:`~repro.serving.faults.CircuitBreaker`
  with its failures recorded to a :class:`~repro.serving.faults.DeadLetterLog`,
  while every other query keeps serving; a quarantined shared-group
  leader is replaced by the lowest-qid healthy follower *within the
  same batch*, so followers never observe a gap.  The engine answers
  the calls the one feed loop (:mod:`repro.dsms.durability`) drives
  every deployment through — ``feed``, ``finish``, ``checkpoint``,
  ``restore``, ``abandon`` — so with a
  :class:`~repro.dsms.durability.ResultJournal` attached every
  register/unregister event and periodic checkpoint (including breaker
  and dead-letter state) is durable and :func:`resume_serving` rebuilds
  the full standing set after a crash.

* :class:`QueryServer` — the asyncio wrapper: an ingest coroutine
  drives batches through the engine while a dependency-free HTTP
  endpoint serves the Prometheus exposition
  (:func:`repro.obs.export.render_prometheus` over per-query/per-tenant
  labelled series) plus a small JSON control plane (register,
  unregister, results, drain).  Registry mutations land between
  batches, so HTTP-registered queries take effect at batch boundaries —
  the same granularity the journal records.  The HTTP plane is
  hardened (:class:`HttpLimits`): per-connection read/write deadlines,
  bounded header and body sizes, a connection cap with 503 overload
  shedding, and structured JSON error bodies — a slow-loris client or
  a mid-response disconnect can never stall the feed loop.  SIGTERM /
  SIGINT / ``POST /drain`` trigger a graceful drain: ``/readyz`` flips
  to 503, registrations and feed batches stop, open windows flush, a
  final journal commit lands, and the process exits with
  :data:`DRAIN_EXIT_CODE`.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from time import perf_counter
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, QueryError, SchemaError
from repro.analysis.legality import require_runnable
from repro.dsms.durability import (
    ResultJournal,
    batches,
    commit,
    entry,
    feed_loop,
    read_journal,
    resume,
)
from repro.dsms.cost import NULL_COST_MODEL
from repro.dsms.expr import EvalContext
from repro.dsms.node import emit_scan, scannable
from repro.dsms.runtime import (
    Gigascope, StreamRun, own_state, restore_own_state, run_stream,
)
from repro.obs.export import render_prometheus
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import NULL_TRACE, TraceSink
from repro.serving.faults import (
    CLOSED,
    BreakerConfig,
    CircuitBreaker,
    DeadLetter,
    DeadLetterLog,
)
from repro.serving.journal import split_log
from repro.serving.sharing import (
    ReplaySeries,
    Run,
    Shape,
    ShareSignature,
    capture_feed,
    replay_feed,
    share_signature,
    taking,
)
from repro.streams.records import Record

#: ``repro serve`` exit status when the serve was terminated early by a
#: graceful drain (SIGTERM / SIGINT / ``POST /drain``) rather than by
#: reaching the end of its input.
DRAIN_EXIT_CODE = 3

_SCANS_KEPT = 8  # leader sets whose scans are kept; a ninth starts afresh

_SERVING_HELP = {
    "serving_records_total": "records offered to the serving engine",
    "serving_shared_replays_total": "follower feeds satisfied by shared-prefix replay",
    "serving_scans_total": "batches scanned once for all leaders",
}


class UnknownQueryError(ExecutionError):
    """Lookup of a standing-query id that was never registered."""


class ServingUnavailableError(ExecutionError):
    """The engine is draining: no new registrations or feed batches."""


@dataclass(frozen=True)
class TenantQuota:
    """A per-tenant cost budget, in cycles per offered record.

    A tenant's standing queries may spend, in total, up to
    ``cycles_per_record`` × (records offered to the tenant so far).
    The ledger is data-deterministic — spend comes from the instances'
    cost accounts, allowance from the record count — so quota decisions
    replay identically on resume.
    """

    cycles_per_record: float


@dataclass
class ServedQuery:
    """One standing query: its private instance plus serving metadata."""

    qid: str
    name: str
    text: str
    tenant: str
    instance: Gigascope
    stream: str
    low_name: Optional[str]
    high_name: Optional[str]
    signature: Optional[ShareSignature]
    share_reason: Optional[str]
    registered_at: int
    unregistered_at: Optional[int] = None
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    #: as a follower, by each leader's node, the last shape replayed from it
    #: and this instance's counters for it (``replay_feed``)
    series: ReplaySeries = field(default_factory=dict, compare=False, repr=False)
    #: as a leader, the shape of its last capture; an equal next one is this object
    shape: Shape = field(default=(), compare=False, repr=False)

    @property
    def active(self) -> bool:
        return self.unregistered_at is None

    @property
    def quarantined(self) -> bool:
        """The circuit breaker is open (or probing): batches are skipped
        (or probed) instead of trusted."""
        return self.breaker.quarantined

    @property
    def results(self) -> List[Record]:
        return self.instance.query(self.name).results

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.qid,
            "name": self.name,
            "tenant": self.tenant,
            "active": self.active,
            "registered_at": self.registered_at,
            "unregistered_at": self.unregistered_at,
            "shared": self.signature is not None,
            "signature": (
                self.signature.describe() if self.signature else None
            ),
            "share_reason": self.share_reason,
            "rows": len(self.results),
            "quarantined": self.quarantined,
            "breaker": self.breaker.describe(),
        }


class StandingQueryEngine:
    """Multiplexes standing queries over shared feeds, deterministically.

    ``instance_factory`` builds one fresh, fully configured (streams +
    SFUN packs) serial :class:`Gigascope` per registered query; each
    call must return a *new* instance with a private cost model and
    metrics registry (``deploy(ExecTarget(serve=True))`` builds the
    engine over such a factory).  ``quotas`` maps tenant names to
    :class:`TenantQuota` (or bare cycles-per-record numbers).
    ``breaker`` configures the per-query circuit breakers (see
    :mod:`repro.serving.faults`); the poison-batch quarantine log
    (``dead_letters``) is bounded.  ``on_commit(consumed, kind)`` fires
    after each journal commit is durable — the chaos tests' kill point.
    """

    #: the ``mode`` this deployment's journal entries carry
    journal_mode = "serving"

    #: the engine charges nothing itself (spend is per served instance);
    #: the attribute completes the ``host`` contract of ``repro.dsms.runtime``
    cost = NULL_COST_MODEL

    def __init__(
        self,
        instance_factory: Callable[[], Gigascope],
        *,
        quotas: Optional[Dict[str, Any]] = None,
        journal: Optional[ResultJournal] = None,
        on_commit: Optional[Callable[[int, str], None]] = None,
        breaker: Optional[BreakerConfig] = None,
        trace: Optional[TraceSink] = None,
    ) -> None:
        self.instance_factory = instance_factory
        self.quotas: Dict[str, TenantQuota] = {
            tenant: (
                quota if isinstance(quota, TenantQuota)
                else TenantQuota(float(quota))
            )
            for tenant, quota in (quotas or {}).items()
        }
        self.journal = journal
        self.on_commit = on_commit
        self.breaker_config = breaker or BreakerConfig()
        self.dead_letters = DeadLetterLog()
        self.trace = trace if trace is not None else NULL_TRACE
        self.consumed = 0
        self.metrics = MetricsRegistry()
        self._queries: Dict[str, ServedQuery] = {}  # by qid, insertion order
        self._groups: Dict[ShareSignature, List[str]] = {}
        #: the scans written, by the leaders' low-level nodes they stand in for
        self._scans: Dict[Tuple[Any, ...], Callable[..., Any]] = {}
        self._offered: Dict[str, int] = {}  # records offered, per tenant
        #: the per-batch counters, by ``(name, stream, outcome)`` (:meth:`_counter`)
        self._series: Dict[Tuple[str, Optional[str], Optional[str]], Counter] = {}
        self._next_id = 0
        self._closed = False
        self.draining = False  # graceful drain in progress

    # -- registry ----------------------------------------------------------

    def register(
        self,
        text: str,
        name: str = "q",
        tenant: str = "default",
        qid: Optional[str] = None,
    ) -> ServedQuery:
        """Register one standing query; takes effect at the next batch.

        Compilation errors (unknown stream, unknown function...)
        propagate, and so does what the legality table
        (:mod:`repro.analysis.legality`) refuses this deployment — the
        factory's instance, served, durable when journalled — as an
        ``ExecutionError``: a rejected query never joins the set.
        """
        if self._closed:
            raise ExecutionError("the serving engine is closed")
        if self.draining:
            raise ServingUnavailableError(
                "the serving engine is draining; no new registrations"
                " are admitted"
            )
        if qid is None:
            self._next_id += 1
            qid = f"sq{self._next_id}"
        elif qid in self._queries:
            raise ExecutionError(f"standing query id {qid!r} already in use")
        gs = self.instance_factory()
        if not isinstance(gs, Gigascope):
            raise ExecutionError(
                "the serving engine drives serial Gigascope instances;"
                f" the factory returned {type(gs).__name__}"
            )
        handle = gs.add_query(text, name=name)
        target = replace(gs.target, serve=True, durable=self.journal is not None)
        require_runnable(target, handle.plan, gs.registries, name, ExecutionError)
        if handle.feeder is not None:
            low_name: Optional[str] = handle.feeder
            high_name: Optional[str] = name
        elif handle.level == "low":
            low_name, high_name = name, None
        else:
            low_name = high_name = None  # reads another registered query

        node = handle
        while node.level == "high":
            node = gs.query(node.source)
        stream = node.source

        signature, reason = share_signature(
            handle.plan,
            gs.registries,
            shed_threshold=target.shed_threshold,
            validate_admission=gs.validate_admission,
            reads_query=low_name is None,
        )
        if signature is not None:
            # ``add_query`` recompiled a heavy query to read its own
            # feeder; what is shared is the scan of the raw stream
            # under it, whatever the query is called.
            signature = replace(signature, stream=stream)

        gs.start()
        sq = ServedQuery(
            qid=qid,
            name=name,
            text=text,
            tenant=tenant,
            instance=gs,
            stream=stream,
            low_name=low_name,
            high_name=high_name,
            signature=signature,
            share_reason=reason,
            registered_at=self.consumed,
            breaker=CircuitBreaker(self.breaker_config),
        )
        self._queries[qid] = sq
        if signature is not None:
            self._groups.setdefault(signature, []).append(qid)
        self._journal_event(
            "register",
            qid=qid,
            name=name,
            text=text,
            tenant=tenant,
            offset=self.consumed,
        )
        self.metrics.counter(
            "serving_registered_total",
            help="standing queries registered",
            tenant=tenant,
        ).inc()
        self._sync_breaker_gauge(sq)
        self._sync_gauges()
        return sq

    def unregister(self, qid: str) -> ServedQuery:
        """Retire one standing query: flush trailing windows, keep results."""
        sq = self.lookup(qid)
        if not sq.active:
            raise ExecutionError(f"standing query {qid!r} is already retired")
        sq.instance.finish()
        sq.unregistered_at = self.consumed
        self._scans.clear()  # none stands in for a retired node
        if sq.signature is not None:
            members = self._groups[sq.signature]
            members.remove(qid)
            if not members:
                del self._groups[sq.signature]
        self._journal_event("unregister", qid=qid, offset=self.consumed)
        self.metrics.counter(
            "serving_unregistered_total",
            help="standing queries retired",
            tenant=sq.tenant,
        ).inc()
        self._sync_gauges()
        return sq

    def lookup(self, qid: str) -> ServedQuery:
        try:
            return self._queries[qid]
        except KeyError:
            raise UnknownQueryError(
                f"unknown standing query {qid!r}"
            ) from None

    def queries(self) -> List[ServedQuery]:
        """Every served query (active and retired), registration order."""
        return list(self._queries.values())

    def active_queries(self) -> List[ServedQuery]:
        return [sq for sq in self._queries.values() if sq.active]

    # -- execution ---------------------------------------------------------

    def feed(self, batch: Sequence[Record]) -> int:
        """Push one batch through every active standing query.

        The batch visits one feed group at a time (:meth:`_feed_groups`).
        Each member gets one admission decision (shed for its tenant's
        quota, skipped behind its open breaker, or fed) and runs inside
        its own fault boundary: an exception from one instance
        quarantines *that query* (dead-lettered, breaker-counted) and
        never interrupts the others.  The first admitted member leads:
        it feeds the batch, capturing the shared prefix when admitted
        followers replay it, and its low-level node takes its run from
        the one scan of the batch for every leader (:meth:`_scan`).  A
        failing leader is replaced by the next admitted member, which
        re-runs the prefix for the same batch, so followers never
        observe a gap.  The batch is checked for being one run once,
        here, for every instance fed: a run is handed on as a
        :class:`~repro.dsms.runtime.StreamRun`, whose verdict each
        instance's admission reads — still name-only, and an instance
        that validates still validates every payload.
        """
        if self._closed:
            raise ExecutionError("the serving engine is closed")
        if self.draining:
            raise ServingUnavailableError(
                "the serving engine is draining; no new batches are admitted"
            )
        batch = list(batch)
        if not batch:
            return 0
        stream = run_stream(batch)
        if stream is not None:  # checked here, once for every instance fed
            batch = StreamRun(batch, stream)
        n = len(batch)
        offset = self.consumed  # records consumed *before* this batch
        self.consumed += n
        shed_tenants = self._quota_decisions(n)
        groups: List[Tuple[str, List[ServedQuery]]] = []
        for role, members in self._feed_groups():
            fed: List[ServedQuery] = []
            for sq in members:
                if sq.tenant in shed_tenants:
                    sq.instance.refuse("quota_shed", sq.stream, n)
                elif sq.breaker.admits():
                    fed.append(sq)
                else:
                    self._poison_skip(sq, n)
            groups.append((role, fed))
        leaders = [fed[0] for role, fed in groups if role == "leader" and fed]
        runs = self._scan(batch, leaders) if len(leaders) > 1 else {}
        for role, fed in groups:
            for index, leader in enumerate(fed):
                followers = fed[index + 1:]
                run = runs.pop(leader.qid, None)  # a promoted follower runs its own node
                try:
                    if followers:
                        capture = capture_feed(
                            leader.instance, leader.low_name, leader.high_name,
                            batch, run, leader.shape,
                        )
                        leader.shape = capture.shape
                    elif run is None:
                        leader.instance.feed(batch)
                    else:
                        taking(leader.instance, leader.low_name, run, batch)
                except Exception as exc:  # fault boundary, not a bug trap
                    self._record_failure(leader, exc, role, offset, n)
                    if followers:
                        self._note_failover(leader, followers[0], offset)
                    continue
                breaker = leader.breaker  # a closed breaker with no failures: a success changes nothing
                if breaker.consecutive_failures or breaker.state != CLOSED:
                    self._record_success(leader)
                replayed = 0
                for sq in followers:
                    try:
                        replay_feed(sq.instance, sq.low_name, capture, sq.series)
                    except Exception as exc:  # fault boundary, not a bug trap
                        self._record_failure(sq, exc, "follower", offset, n)
                    else:
                        breaker = sq.breaker
                        if breaker.consecutive_failures or breaker.state != CLOSED:
                            self._record_success(sq)
                        replayed += 1
                if replayed:
                    self._counter("serving_shared_replays_total").inc(replayed)
                break
        self._counter("serving_records_total").inc(n)
        return n

    def _counter(self, name: str, stream: Optional[str] = None, outcome: Optional[str] = None) -> Counter:
        """One of the per-batch engine counters, resolved once per label set
        (``serving_scans_total`` is labelled by stream and outcome)."""
        key = (name, stream, outcome)
        series = self._series.get(key)
        if series is None:
            labels = {} if stream is None else {"stream": stream, "outcome": outcome}
            series = self._series[key] = self.metrics.counter(name, help=_SERVING_HELP[name], **labels)
        return series

    def _scan(self, batch: Sequence[Record], leaders: List[ServedQuery]) -> Dict[str, Run]:
        """Each scannable leader's :data:`~repro.serving.sharing.Run` of
        ``batch``, by qid, from one scan; none when fewer than two leaders
        read the stream the batch is one run of (a leader's own node is
        the scan of one) or the scan raised (every leader then runs its
        own node).  Scans are kept per leader set until a query leaves.
        ``batch`` comes checked from :meth:`feed`: reading its stream
        costs no second check."""
        members = [(sq, op) for sq in leaders
                   if scannable(op := sq.instance.query(sq.low_name).operator)]
        stream = run_stream(batch) if len(members) > 1 else None
        members = [(sq, op) for sq, op in members if sq.stream == stream]
        if len(members) < 2:
            return {}
        ops = tuple(op for _, op in members)
        scan = self._scans.get(ops)
        if scan is None:
            if len(self._scans) == _SCANS_KEPT:  # leaders shed or failed over in turn
                self._scans.clear()
            scan = self._scans[ops] = emit_scan(ops, stream)
        contexts = [EvalContext(op._ctx.scalars, op._ctx.sfuns) for op in ops]
        profile = members[0][0].instance.profile
        started = perf_counter() if profile else 0.0
        try:
            rows = scan(batch, contexts)
        except Exception:  # the leaders' own nodes raise it again, each in its boundary
            rows = None
        if profile:
            self.metrics.histogram("serving_scan_seconds", help="wall time per scan",
                                   stream=stream).observe(perf_counter() - started)
        self._counter("serving_scans_total", stream, "discarded" if rows is None else "taken").inc()
        return {sq.qid: (run, calls)
                for (sq, _), run, calls in zip(members, rows or (), contexts)}

    def _feed_groups(self) -> List[Tuple[str, List[ServedQuery]]]:
        """The feed groups, with the dead-letter role of their leaders:
        each sharing group (``leader``), then each active query that
        cannot share, as a group of one (``direct``), registration order
        within both."""
        queries = self._queries
        groups = [
            ("leader", [queries[qid] for qid in members])
            for members in self._groups.values()
        ]
        return groups + [
            ("direct", [sq])
            for sq in queries.values()
            if sq.signature is None and sq.active
        ]

    def _quota_decisions(self, n: int) -> set:
        """Which tenants shed this batch (and advance their ledgers)."""
        shed: set = set()
        for tenant, quota in self.quotas.items():
            actives = [
                sq for sq in self._queries.values()
                if sq.active and sq.tenant == tenant
            ]
            if not actives:
                continue
            self._offered[tenant] = self._offered.get(tenant, 0) + n
            spent = sum(sq.instance.cost.total_cycles() for sq in actives)
            if spent > quota.cycles_per_record * self._offered[tenant]:
                shed.add(tenant)
                self.metrics.counter(
                    "serving_quota_shed_total",
                    help="records refused because the tenant was over quota",
                    tenant=tenant,
                ).inc(n)
        return shed

    # -- fault isolation ---------------------------------------------------

    def _poison_skip(self, sq: ServedQuery, n: int) -> None:
        """Skip one batch for a quarantined query, fully accounted."""
        sq.instance.refuse("poison_skipped", sq.stream, n)
        self.metrics.counter(
            "serving_poison_skipped_total",
            help="records skipped because the query's breaker is open",
            serve_id=sq.qid,
            tenant=sq.tenant,
        ).inc(n)

    def _record_failure(
        self,
        sq: ServedQuery,
        exc: Exception,
        role: str,
        offset: int,
        batch_size: int,
    ) -> None:
        """One batch failed inside ``sq``'s fault boundary: dead-letter
        it, advance the breaker, and surface the state change."""
        was_open = sq.breaker.state
        sq.breaker.record_failure(f"{type(exc).__name__}: {exc}")
        self.dead_letters.put(DeadLetter(
            qid=sq.qid,
            tenant=sq.tenant,
            role=role,
            offset=offset,
            batch_size=batch_size,
            error_type=type(exc).__name__,
            error=str(exc),
            breaker_state=sq.breaker.state,
        ))
        self.metrics.counter(
            "serving_poison_batches_total",
            help="batches that raised inside a query's fault boundary",
            serve_id=sq.qid,
            tenant=sq.tenant,
        ).inc()
        self.metrics.counter(
            "serving_dead_letters_total",
            help="entries appended to the serving dead-letter log",
        ).inc()
        if sq.breaker.state != was_open and sq.breaker.state == "open":
            self.metrics.counter(
                "serving_breaker_opens_total",
                help="circuit-breaker open transitions",
                serve_id=sq.qid,
            ).inc()
            if self.trace.enabled:
                self.trace.emit(
                    "breaker_open",
                    qid=sq.qid,
                    offset=offset,
                    error=f"{type(exc).__name__}: {exc}",
                )
        if self.trace.enabled:
            self.trace.emit(
                "poison_batch",
                qid=sq.qid,
                role=role,
                offset=offset,
                batch_size=batch_size,
                error=f"{type(exc).__name__}: {exc}",
            )
        self._sync_breaker_gauge(sq)

    def _record_success(self, sq: ServedQuery) -> None:
        before = sq.breaker.state
        sq.breaker.record_success()
        if sq.breaker.state != before:
            if self.trace.enabled:
                self.trace.emit(
                    "breaker_close", qid=sq.qid, offset=self.consumed
                )
            self._sync_breaker_gauge(sq)

    def _note_failover(
        self, failed: ServedQuery, promoted: ServedQuery, offset: int
    ) -> None:
        self.metrics.counter(
            "serving_leader_failovers_total",
            help="shared-group leader promotions after a leader failure",
        ).inc()
        if self.trace.enabled:
            self.trace.emit(
                "leader_failover",
                failed=failed.qid,
                promoted=promoted.qid,
                offset=offset,
            )

    def _sync_breaker_gauge(self, sq: ServedQuery) -> None:
        self.metrics.gauge(
            "serving_breaker_state",
            help="per-query circuit breaker (0=closed 1=half-open 2=open)",
            serve_id=sq.qid,
        ).set(sq.breaker.state_code())

    # -- lifecycle ---------------------------------------------------------

    def finish(self) -> None:
        """Flush every active query's trailing windows and close.

        Flushing runs inside the same per-query fault boundary as
        feeding: one poisoned query raising during its trailing window
        flush cannot abort the drain for the others.
        """
        for sq in self.active_queries():
            try:
                sq.instance.finish()
            except Exception as exc:  # fault boundary, not a bug trap
                self._record_failure(sq, exc, "flush", self.consumed, 0)
        self._closed = True

    def abandon(self) -> None:
        """Close without flushing: drop every active query's open run."""
        for sq in self.active_queries():
            sq.instance.abandon()
        self._closed = True

    def close(self) -> None:
        """End the serve: flush every active query, commit final state."""
        if self._closed:
            return
        self.finish()
        self.commit("final")
        if self.journal is not None:
            self.journal.close()

    def drain(self) -> None:
        """Graceful drain: stop admitting, flush, final-commit, close.

        Idempotent; after it returns, ``--resume`` from the journal
        restores the final state and reads no further input.
        """
        self.draining = True
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- durability --------------------------------------------------------

    def _journal_event(self, kind: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(
                entry(kind, self.journal_mode, self.consumed, **fields)
            )

    def commit(self, kind: str = "commit") -> None:
        """Append one durable checkpoint of every served query."""
        commit(self, self.journal, kind, self.consumed, self.on_commit)

    def windows_closed(self) -> int:
        """Constant: the serving cadence is every ``commit_interval``
        batches, whichever windows closed in between."""
        return 0

    def checkpoint(self, since: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Picklable view of the serve at a batch boundary, which
        :meth:`commit` pickles at once: every served query's instance
        checkpoint (since ``since``), the quota ledger, breaker and
        dead-letter state, and what the engine owns itself
        (``runtime.own_state``: its ``serving_*`` series, the HTTP
        plane's included, and its trace)."""
        held = since.get("queries", {}) if since else {}
        return {
            **own_state(self, since),
            "consumed": self.consumed,
            "offered": dict(self._offered),
            "next_id": self._next_id,
            "queries": {
                qid: {
                    "snapshot": sq.instance.checkpoint(held.get(qid, {}).get("snapshot")),
                    "active": sq.active,
                }
                for qid, sq in self._queries.items()
            },
            "breakers": {
                qid: sq.breaker.checkpoint()
                for qid, sq in self._queries.items()
            },
            "dead_letters": self.dead_letters.checkpoint(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Reinstate a :meth:`checkpoint` into an engine that holds the
        same standing set (:func:`resume_serving` rebuilds it from the
        journal's registry events first)."""
        if set(state["queries"]) != set(self._queries):
            raise ExecutionError(
                "checkpoint does not match this engine: it has queries"
                f" {sorted(state['queries'])}, the engine has"
                f" {sorted(self._queries)}"
            )
        for qid, served in state["queries"].items():
            self._queries[qid].instance.restore(served["snapshot"])
        for qid, snapshot in state["breakers"].items():
            sq = self._queries[qid]
            sq.breaker.restore(snapshot)
            self._sync_breaker_gauge(sq)
        self.dead_letters.restore(state["dead_letters"])
        self.consumed = state["consumed"]
        self._offered = dict(state["offered"])
        self._next_id = max(self._next_id, state["next_id"])
        restore_own_state(self, state)

    # -- reporting ---------------------------------------------------------

    def export_metrics(self) -> MetricsRegistry:
        """One registry over the whole serve, per-query/per-tenant labelled.

        Every served query's private registry is folded in stamped with
        ``serve_id`` and ``tenant`` labels (the instance's own ``query``
        and ``stream`` labels survive), alongside the engine's
        ``serving_*`` series — the document the HTTP ``/metrics``
        endpoint renders.
        """
        out = MetricsRegistry()
        out.absorb(self.metrics.checkpoint())
        for sq in self._queries.values():
            out.absorb(
                sq.instance.metrics.checkpoint(),
                extra_labels={"serve_id": sq.qid, "tenant": sq.tenant},
            )
        return out

    def report(self) -> Dict[str, Any]:
        """JSON summary: queries, sharing groups, quotas, quarantine."""
        groups = [
            {
                "signature": signature.describe(),
                "split_keys": list(signature.split_keys),
                "members": list(members),
            }
            for signature, members in self._groups.items()
        ]
        return {
            "consumed": self.consumed,
            "closed": self._closed,
            "draining": self.draining,
            "queries": [sq.describe() for sq in self._queries.values()],
            "shared_groups": groups,
            "tenants": {
                tenant: {
                    "offered": self._offered.get(tenant, 0),
                    "cycles_per_record": quota.cycles_per_record,
                    "spent_cycles": sum(
                        sq.instance.cost.total_cycles()
                        for sq in self._queries.values()
                        if sq.active and sq.tenant == tenant
                    ),
                }
                for tenant, quota in self.quotas.items()
            },
            "dead_letters": {
                "total": self.dead_letters.total,
                "evicted": self.dead_letters.evicted,
                "by_query": self.dead_letters.counts_by_query(),
            },
        }

    def _sync_gauges(self) -> None:
        self.metrics.gauge(
            "serving_active_queries",
            help="currently registered standing queries",
        ).set(len(self.active_queries()))
        self.metrics.gauge(
            "serving_shared_groups",
            help="distinct shared low-level prefixes",
        ).set(len(self._groups))


# -- synchronous drivers ----------------------------------------------------


def _apply_event(engine: StandingQueryEngine, event: Dict[str, Any]) -> None:
    if event["kind"] == "register":
        engine.register(
            event["text"],
            name=event.get("name", "q"),
            tenant=event.get("tenant", "default"),
            qid=event.get("qid"),
        )
    else:
        engine.unregister(event["qid"])


def _scheduled_batches(
    engine: StandingQueryEngine,
    records: Iterable[Record],
    schedule: Iterable[Dict[str, Any]],
    batch_size: int,
) -> Iterator[List[Record]]:
    """Batches cut at event offsets too, each event applied once the
    records before it are fed (the consumer feeds a batch before asking
    for the next, so ``engine.consumed`` is current between yields)."""
    iterator = iter(records)
    for event in sorted(schedule, key=lambda event: event["offset"]):
        before = event["offset"] - engine.consumed
        if before > 0:
            yield from batches(islice(iterator, before), batch_size)
        # Events scheduled past the end of the input apply at stream end.
        _apply_event(engine, event)
    yield from batches(iterator, batch_size)


def _engine_loop(
    engine: StandingQueryEngine,
    batch_iter: Iterable[List[Record]],
    commit_interval: int,
) -> Iterator[int]:
    """The one feed loop, continuing ``engine`` from where it stands."""
    return feed_loop(
        engine,
        batch_iter,
        engine.journal,
        consumed=engine.consumed,
        commit_interval=commit_interval,
        on_commit=engine.on_commit,
    )


def drive(
    engine: StandingQueryEngine,
    records: Iterable[Record],
    schedule: Iterable[Dict[str, Any]] = (),
    *,
    batch_size: int = 512,
    commit_interval: int = 4,
    close: bool = True,
) -> int:
    """Feed a record stream, applying scheduled registry events at their
    record offsets and committing every ``commit_interval`` batches.

    ``schedule`` entries are journal-event-shaped dicts:
    ``{"kind": "register", "offset": N, "text": ..., "name": ...,
    "tenant": ..., "qid": ...}`` or
    ``{"kind": "unregister", "offset": N, "qid": ...}``.  Batches are
    split at event offsets, so an event at offset N takes effect after
    exactly N records — deterministically, which is what lets the
    journal replay a schedule byte-identically on resume.
    """
    scheduled = _scheduled_batches(engine, records, schedule, batch_size)
    for _ in _engine_loop(engine, scheduled, commit_interval):
        pass
    if close:
        engine.close()
    return engine.consumed


def resume_serving(
    engine: StandingQueryEngine,
    journal_path: str,
    records: Iterable[Record],
    *,
    batch_size: int = 512,
    commit_interval: int = 4,
) -> StandingQueryEngine:
    """Resume a journalled serve after a crash, into ``engine``.

    ``engine`` is fresh, built as the original serve's was
    (``deploy(ExecTarget(serve=True, durable=True), ...)`` with the same
    options), so quota and quarantine decisions replay at the same
    offsets and its trace, ``on_commit`` hook and breaker configuration
    carry on; one that already holds queries or a journal is refused.
    Rebuilds every standing registration from the event log, restores
    the last commit's instance checkpoints (including circuit-breaker
    and dead-letter state) and what the engine owns itself, skips the
    committed input prefix and replays the remainder — re-applying any
    events recorded after the last commit at their original offsets.
    ``records`` must be the same replayable stream the original serve
    consumed.  Returns the closed engine (results, metrics and cost
    accounts byte-identical to an uninterrupted serve).
    """
    if engine.queries():
        raise ExecutionError(
            "resume_serving needs a fresh engine; this one already holds"
            f" queries {[sq.qid for sq in engine.queries()]}"
        )
    if engine.journal is not None:
        raise ExecutionError(
            "resume_serving needs a fresh engine; this one already writes"
            f" the journal {engine.journal.path!r}"
        )
    scan = read_journal(journal_path, StandingQueryEngine.journal_mode)
    replayed, _, pending = split_log(scan[0])
    # No journal yet: the events being replayed are already in it.
    for event in replayed:
        # Registrations stamp the offset they happen at.
        engine.consumed = event["offset"]
        _apply_event(engine, event)
    _, rest, engine.journal = resume(engine, journal_path, scan, records)
    if rest is None:
        engine.abandon()  # the serve had ended: nothing is left running
        return engine
    # Past the committed prefix; died before anything durable, a fresh
    # serve with every recorded event as the schedule.
    drive(
        engine,
        rest,
        schedule=pending,
        batch_size=batch_size,
        commit_interval=commit_interval,
    )
    return engine


# -- the asyncio server ------------------------------------------------------


#: header fields accepted per request, beside ``max_header_bytes``
MAX_HEADERS = 64


@dataclass(frozen=True)
class HttpLimits:
    """Hard bounds on the HTTP plane's exposure to misbehaving clients.

    ``read_timeout`` caps the whole request read (line + headers +
    body) per connection, so a slow-loris client is disconnected with
    408 instead of pinning a handler forever.  ``write_timeout`` caps
    each response drain, so a client that stops reading mid-response is
    aborted.  ``max_header_bytes`` bounds the request line and each
    header block; ``max_body_bytes`` bounds the declared body.
    ``max_connections`` caps concurrent handlers — beyond it new
    connections are shed with a structured 503, which is load shedding,
    not failure (the same graceful-degradation posture as admission
    shedding at the data plane).
    """

    read_timeout: float = 5.0
    write_timeout: float = 5.0
    max_body_bytes: int = 1 << 20
    max_header_bytes: int = 8192
    max_connections: int = 64


class _RequestError(Exception):
    """A malformed/oversized request, mapped to a structured 4xx."""

    def __init__(self, status: str, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.reason = reason
        self.detail = detail


class QueryServer:
    """Asyncio façade: standing ingest plus an HTTP control/metrics plane.

    The ingest coroutine feeds batches through the engine, yielding to
    the event loop between batches so HTTP requests (scrapes, hot
    register/unregister, drain) interleave at batch boundaries.  The
    HTTP plane is dependency-free (``asyncio.start_server`` +
    hand-rolled HTTP/1.1) and hardened by :class:`HttpLimits`, serving:

    * ``GET /metrics`` — Prometheus exposition with per-query
      (``serve_id``) and per-tenant labels;
    * ``GET /healthz`` — liveness + records consumed;
    * ``GET /readyz`` — readiness: 200 while serving, 503 once a drain
      begins or the engine closes;
    * ``GET /queries`` — the standing set, sharing and quarantine report;
    * ``POST /queries`` — register (JSON ``{"query": ..., "name": ...,
      "tenant": ...}``, all strings); 400 for a field that is not a
      string, an invalid query or a name no schema can carry; 503 while
      draining;
    * ``DELETE /queries/<id>`` — unregister (404 for unknown ids);
    * ``GET /queries/<id>/results`` — rows emitted so far
      (``?limit=N`` truncates, 400 for a negative or non-integer N; 404
      for unknown ids);
    * ``POST /drain`` — request a graceful drain (202).
    """

    def __init__(
        self,
        engine: StandingQueryEngine,
        *,
        batch_size: int = 512,
        commit_interval: int = 4,
        pace: float = 0.0,
        limits: Optional[HttpLimits] = None,
    ) -> None:
        self.engine = engine
        self.batch_size = batch_size
        self.commit_interval = commit_interval
        self.pace = pace
        self.limits = limits or HttpLimits()
        self.drained = False  # ingest terminated early by a drain
        self._http: Optional[asyncio.AbstractServer] = None
        self._drain_event = asyncio.Event()
        self._connections = 0

    # -- ingest ------------------------------------------------------------

    async def ingest(self, records: Iterable[Record], close: bool = True) -> int:
        """Drive the record stream through the engine.

        Stops early (and closes the engine, flushing windows and
        writing the final journal commit) when a drain is requested via
        :meth:`request_drain`, SIGTERM/SIGINT, or ``POST /drain``.
        """
        engine = self.engine
        loop = _engine_loop(
            engine,
            self._until_drained(batches(records, self.batch_size)),
            self.commit_interval,
        )
        for _ in loop:
            await asyncio.sleep(self.pace)
        if (close or self.drained) and not engine.closed:
            engine.close()
        return engine.consumed

    def _until_drained(
        self, batch_iter: Iterator[List[Record]]
    ) -> Iterator[List[Record]]:
        for batch in batch_iter:
            if self._drain_event.is_set():
                self.drained = True
                return
            yield batch

    # -- drain -------------------------------------------------------------

    def request_drain(self, reason: str = "request") -> None:
        """Begin a graceful drain: flip readiness, stop admissions.

        Safe to call from a signal handler (it only sets flags); the
        ingest loop notices at the next batch boundary, flushes open
        windows, writes the final journal commit and stops.  Idempotent.
        """
        if self._drain_event.is_set() or self.engine.closed:
            return
        self.engine.draining = True
        self._drain_event.set()
        self.engine.metrics.counter(
            "serving_drains_total",
            help="graceful drains requested",
            reason=reason,
        ).inc()
        if self.engine.trace.enabled:
            self.engine.trace.emit(
                "drain_requested", reason=reason,
                consumed=self.engine.consumed,
            )

    def install_signal_handlers(self) -> bool:
        """Map SIGTERM/SIGINT to :meth:`request_drain` on the running loop.

        Returns ``False`` (installing nothing) when this thread cannot
        own process signals — not the main thread, no running event
        loop, or a platform whose loop lacks ``add_signal_handler`` —
        so embedding the server in a worker thread stays safe.
        """
        if threading.current_thread() is not threading.main_thread():
            return False
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return False
        try:
            loop.add_signal_handler(
                signal.SIGTERM, self.request_drain, "SIGTERM"
            )
            loop.add_signal_handler(
                signal.SIGINT, self.request_drain, "SIGINT"
            )
        except (NotImplementedError, RuntimeError, ValueError):
            return False
        return True

    async def linger(self, seconds: float) -> None:
        """Keep the endpoint up for ``seconds``; cut short by a drain."""
        if seconds <= 0:
            return
        try:
            await asyncio.wait_for(self._drain_event.wait(), timeout=seconds)
        except asyncio.TimeoutError:
            pass

    @property
    def ready(self) -> bool:
        return not (
            self._drain_event.is_set()
            or self.engine.draining
            or self.engine.closed
        )

    # -- HTTP plane --------------------------------------------------------

    async def start_http(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Start the endpoint; returns the bound (host, port)."""
        self._http = await asyncio.start_server(
            self._handle, host, port,
            # StreamReader limit: a single header line longer than this
            # raises ValueError out of readline(), mapped to 431 below.
            limit=self.limits.max_header_bytes,
        )
        sockname = self._http.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop_http(self) -> None:
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
            self._http = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        try:
            if self._connections > self.limits.max_connections:
                self.engine.metrics.counter(
                    "serving_http_overload_total",
                    help="connections shed at the HTTP connection cap",
                ).inc()
                await self._respond(writer, *self._error(
                    "503 Service Unavailable", "overloaded",
                    f"connection cap ({self.limits.max_connections})"
                    " reached; retry later",
                ))
                return
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), self.limits.read_timeout
                )
            except asyncio.TimeoutError:
                self.engine.metrics.counter(
                    "serving_http_timeouts_total",
                    help="connections dropped at an HTTP deadline",
                    phase="read",
                ).inc()
                await self._respond(writer, *self._error(
                    "408 Request Timeout", "read_deadline",
                    "request not received within"
                    f" {self.limits.read_timeout}s",
                ))
                return
            except _RequestError as exc:
                await self._respond(
                    writer,
                    *self._error(exc.status, exc.reason, exc.detail),
                )
                return
            if request is None:
                return  # torn request: peer vanished mid-line
            method, path, body = request
            status, ctype, payload = self._route(method, path, body)
            await self._respond(writer, status, ctype, payload)
        except asyncio.CancelledError:
            # Server stopping while this request is in flight: abort the
            # transport quietly and keep the cancellation propagating —
            # no spurious tracebacks from half-written responses.
            writer.transport.abort()
            raise
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        """Read one bounded HTTP/1.1 request; ``None`` if the peer tore
        the connection before completing the request line or headers."""
        too_large = _RequestError(
            "431 Request Header Fields Too Large", "headers_too_large",
            f"request line/headers exceed {self.limits.max_header_bytes}"
            f" bytes or {MAX_HEADERS} fields",
        )
        try:
            request_line = await reader.readline()
        except ValueError:
            raise too_large from None
        if not request_line:
            return None
        if not request_line.endswith(b"\n"):
            return None  # EOF mid-request-line: nothing to answer
        parts = request_line.decode("ascii", "replace").split()
        if len(parts) < 2:
            raise _RequestError(
                "400 Bad Request", "malformed_request_line",
                "expected 'METHOD /path HTTP/1.1'",
            )
        method, path = parts[0], parts[1]
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise too_large from None
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                return None  # EOF mid-headers
            header_bytes += len(line)
            if (
                header_bytes > self.limits.max_header_bytes
                or len(headers) >= MAX_HEADERS
            ):
                raise too_large
            key, _, value = line.decode("ascii", "replace").partition(":")
            headers[key.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _RequestError(
                "400 Bad Request", "bad_content_length",
                f"Content-Length {raw_length!r} is not an integer",
            ) from None
        if length < 0:
            raise _RequestError(
                "400 Bad Request", "bad_content_length",
                "Content-Length must be non-negative",
            )
        if length > self.limits.max_body_bytes:
            raise _RequestError(
                "413 Content Too Large", "body_too_large",
                f"declared body of {length} bytes exceeds the"
                f" {self.limits.max_body_bytes} byte cap",
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: str,
        ctype: str,
        payload: bytes,
    ) -> None:
        self.engine.metrics.counter(
            "serving_http_requests_total",
            help="HTTP responses by status code",
            code=status.split()[0],
        ).inc()
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + payload)
        try:
            await asyncio.wait_for(
                writer.drain(), self.limits.write_timeout
            )
        except asyncio.TimeoutError:
            # The peer stopped reading mid-response: abort rather than
            # letting backpressure pin this handler.
            self.engine.metrics.counter(
                "serving_http_timeouts_total",
                help="connections dropped at an HTTP deadline",
                phase="write",
            ).inc()
            writer.transport.abort()
        except ConnectionError:
            pass

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[str, str, bytes]:
        path, _, query_string = path.partition("?")
        try:
            if method == "GET" and path == "/metrics":
                text = render_prometheus(self.engine.export_metrics())
                return (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    text.encode(),
                )
            if method == "GET" and path == "/healthz":
                return self._json("200 OK", {
                    "status": "ok",
                    "consumed": self.engine.consumed,
                    "closed": self.engine.closed,
                    "draining": self.engine.draining,
                })
            if method == "GET" and path == "/readyz":
                if self.ready:
                    return self._json("200 OK", {
                        "status": "ready",
                        "consumed": self.engine.consumed,
                    })
                return self._error(
                    "503 Service Unavailable", "draining",
                    "the server is draining or closed; not accepting work",
                )
            if method == "POST" and path == "/drain":
                self.request_drain("http")
                return self._json("202 Accepted", {
                    "status": "draining",
                    "consumed": self.engine.consumed,
                })
            if method == "GET" and path == "/queries":
                return self._json("200 OK", self.engine.report())
            if method == "POST" and path == "/queries":
                try:
                    request = json.loads(body.decode() or "{}")
                except json.JSONDecodeError as exc:
                    return self._error(
                        "400 Bad Request", "bad_json", str(exc)
                    )
                if "query" not in request:
                    return self._error(
                        "400 Bad Request", "missing_field",
                        "missing 'query'",
                    )
                fields = (request["query"], request.get("name", "q"), request.get("tenant", "default"))
                if not all(isinstance(value, str) for value in fields):
                    raise ValueError("'query', 'name' and 'tenant' must be strings")
                sq = self.engine.register(*fields)
                return self._json("201 Created", {
                    "id": sq.qid,
                    "offset": sq.registered_at,
                    "shared": sq.signature is not None,
                    "share_reason": sq.share_reason,
                })
            if path.startswith("/queries/"):
                rest = path[len("/queries/"):]
                if method == "DELETE" and "/" not in rest:
                    sq = self.engine.unregister(rest)
                    return self._json("200 OK", {
                        "id": sq.qid,
                        "rows": len(sq.results),
                        "unregistered_at": sq.unregistered_at,
                    })
                if method == "GET" and rest.endswith("/results"):
                    qid = rest[: -len("/results")].rstrip("/")
                    sq = self.engine.lookup(qid)
                    rows = [list(r.values) for r in sq.results]
                    for item in query_string.split("&"):
                        if item.startswith("limit="):
                            limit = int(item[len("limit="):])
                            if limit < 0:
                                raise ValueError(f"limit {limit} is negative")
                            rows = rows[:limit]
                    schema = sq.instance.query(sq.name).output_schema
                    return self._json("200 OK", {
                        "id": sq.qid,
                        "schema": list(schema.names),
                        "rows": rows,
                    })
            return self._error(
                "404 Not Found", "no_route", f"no route {path}"
            )
        except UnknownQueryError as exc:
            return self._error("404 Not Found", "unknown_query", str(exc))
        except ServingUnavailableError as exc:
            return self._error("503 Service Unavailable", "draining", str(exc))
        except (ExecutionError, QueryError, SchemaError, ValueError) as exc:
            # SchemaError: a query name no output schema can carry
            return self._error("400 Bad Request", "rejected", str(exc))
        except Exception as exc:  # never kill the connection handler
            return self._error(
                "500 Internal Server Error", type(exc).__name__, str(exc)
            )

    @staticmethod
    def _json(status: str, payload: Dict[str, Any]) -> Tuple[str, str, bytes]:
        return status, "application/json", json.dumps(payload).encode()

    @staticmethod
    def _error(status: str, reason: str, detail: str) -> Tuple[str, str, bytes]:
        """A structured error body: machine-readable status/reason/detail."""
        payload = {
            "error": {
                "status": int(status.split()[0]),
                "reason": reason,
                "detail": detail,
            }
        }
        return status, "application/json", json.dumps(payload).encode()
