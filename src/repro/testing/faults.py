"""Deterministic fault injection for the sharded runtime.

Crash-recovery code is only trustworthy if its failure paths are
*exercised*, and real worker crashes are timing-dependent.  This module
gives tests a way to make a specific shard worker fail at a specific,
repeatable point:

* ``kill`` — hard-exit the worker (``os._exit(1)``) just before it
  processes its Nth batch, simulating a segfaulting UDF or an OOM kill.
* ``delay`` — sleep inside the worker before batch N, simulating a stall
  (slow disk, GC pause); with a short supervisor heartbeat timeout this
  exercises the stalled-worker detection path.
* ``corrupt`` — emit a :class:`PoisonPill` on the result queue (its
  unpickling raises in the parent) and then hard-exit, simulating a
  truncated/garbled IPC message from a dying worker.
* ``drop_result`` — exit cleanly *instead of* sending the final result,
  simulating a worker that dies between finishing work and reporting it.

A :class:`Fault` fires once per matching batch position.  By default it
fires only in the worker's first incarnation (``every_epoch=False``), so
a supervised restart of the same shard succeeds — which is exactly the
recovery scenario the tests assert.  Set ``every_epoch=True`` to make
the failure permanent and exercise the restarts-exhausted path.

Faults are injected *inside the worker process*: the plan is captured by
``fork``, so no fault state needs to pickle.

The module also injects failures at the **ingest edge** (PR 5):

* :class:`SourceFault` / :class:`FaultySource` — deterministic stream
  damage for exercising :class:`repro.streams.sources.ResilientSource`
  and the dead-letter quarantine: ``drop``, ``duplicate``, ``reorder``
  and ``corrupt`` mutate the record sequence itself, ``fail`` raises a
  transient read error once (the reconnect path), ``stall`` sleeps once
  (the read-timeout watchdog path).
* :func:`exit_after_commits` — an ``on_commit`` hook for
  :class:`repro.dsms.durability.DurableRunner` that hard-exits the
  *whole process* after the Nth durable commit: the chaos tests'
  kill-parent-at-window-N switch.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence

_ACTIONS = ("kill", "delay", "corrupt", "drop_result")


def _raise_poison() -> None:
    raise RuntimeError("poisoned pickle from fault injection")


class PoisonPill:
    """An object whose *unpickling* raises, corrupting the result queue.

    ``__reduce__`` hands the unpickler a callable that raises, so the
    parent's ``Queue.get`` — not the worker's ``put`` — blows up, exactly
    like a garbled message from a crashing process.
    """

    def __reduce__(self):
        return (_raise_poison, ())


@dataclass(frozen=True)
class Fault:
    """One deterministic failure: *shard* misbehaves at batch *at_batch*.

    ``at_batch`` counts data batches the worker has accepted, starting at
    1; the fault fires just before the worker processes that batch (for
    ``drop_result``, at finish time and ``at_batch`` is ignored).
    ``seconds`` is the stall length for ``delay``.  ``every_epoch=False``
    restricts the fault to the worker's first incarnation (epoch 0) so a
    supervised restart runs clean.
    """

    shard: int
    action: str
    at_batch: int = 1
    seconds: float = 0.0
    every_epoch: bool = False

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {_ACTIONS}"
            )


class FaultPlan:
    """The full set of faults for one run, evaluated inside each worker."""

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self.faults: List[Fault] = list(faults)

    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    def _matches(self, shard: int, epoch: int, action: str) -> List[Fault]:
        return [
            f
            for f in self.faults
            if f.shard == shard and f.action == action and (f.every_epoch or epoch == 0)
        ]

    def fire_batch(self, shard: int, epoch: int, batch_no: int, out_queue=None) -> None:
        """Called by the worker before processing data batch ``batch_no``.

        May sleep, poison ``out_queue``, or never return (hard exit).
        """
        for fault in self._matches(shard, epoch, "delay"):
            if fault.at_batch == batch_no:
                time.sleep(fault.seconds)
        for fault in self._matches(shard, epoch, "corrupt"):
            if fault.at_batch == batch_no and out_queue is not None:
                out_queue.put(PoisonPill())
                # a corrupt message means a broken sender: exiting lets the
                # parent's liveness check attribute the poison to this shard
                self.die(out_queue, 1)
        for fault in self._matches(shard, epoch, "kill"):
            if fault.at_batch == batch_no:
                self.die(out_queue, 1)

    @staticmethod
    def die(out_queue: Any, code: int) -> None:
        """Hard-exit once what was put on ``out_queue`` reached the pipe:
        a worker killed inside a put would hold the queue's write lock,
        and every later writer — its restarted self included — would hang."""
        if out_queue is not None:
            out_queue.close()
            out_queue.join_thread()
        os._exit(code)

    def drops_result(self, shard: int, epoch: int) -> bool:
        """Called by the worker at finish: die silently instead of reporting?"""
        return bool(self._matches(shard, epoch, "drop_result"))


# --------------------------------------------------------------------------
# Ingest-edge faults
# --------------------------------------------------------------------------

_SOURCE_ACTIONS = ("drop", "duplicate", "reorder", "corrupt", "fail", "stall", "hot_key")


@dataclass(frozen=True)
class SourceFault:
    """One deterministic ingest failure at record position ``at_record``.

    ``at_record`` is the 1-based index of the record in the *undamaged*
    input stream.  Stream-damage actions rewrite the sequence itself:

    * ``drop`` — the record never arrives.
    * ``duplicate`` — the record arrives twice.
    * ``reorder`` — the record swaps places with its successor.
    * ``corrupt`` — the record's value at ``attribute`` (default: the
      schema's first ordered attribute) is replaced with ``value``
      (default NaN, which schema coercion rejects), so admission-time
      validation quarantines it.
    * ``hot_key`` — adversarial skew: starting at ``at_record``, rewrite
      ``fraction`` of the records so their ``attribute`` (the partition
      key) carries the single hot ``value``.  The selection is evenly
      spaced and purely count-driven (the same accumulator rule the
      hot-key curation uses), so the damaged stream is identical across
      reruns, resumes and shard counts — a reproducible DDoS victim key
      for rebalance and chaos tests.

    Read-failure actions fire while the damaged stream is being *read*,
    once per :class:`FaultySource` (so a reconnect sees a clean source):

    * ``fail`` — raise ``IOError`` just before yielding the record.
    * ``stall`` — sleep ``seconds`` just before yielding the record.
    """

    action: str
    at_record: int
    seconds: float = 0.0
    attribute: Optional[str] = None
    value: Any = float("nan")
    fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.action not in _SOURCE_ACTIONS:
            raise ValueError(
                f"unknown source fault action {self.action!r}; "
                f"expected one of {_SOURCE_ACTIONS}"
            )
        if self.at_record < 1:
            raise ValueError("at_record is 1-based and must be >= 1")
        if self.action == "hot_key":
            if self.attribute is None:
                raise ValueError("hot_key needs attribute= (the partition key)")
            if not (0.0 < self.fraction <= 1.0):
                raise ValueError("hot_key fraction must be in (0, 1]")


def _corrupt_record(record: Any, fault: SourceFault) -> Any:
    """Return a damaged copy of *record* that fails schema coercion."""
    schema = getattr(record, "schema", None)
    if schema is None:  # raw payload (dict/bytes): hand back junk instead
        return {"__corrupt__": fault.value}
    name = fault.attribute
    if name is None:
        from repro.streams.schema import Ordering

        ordered = [
            a.name for a in schema.attributes if a.ordering is not Ordering.NONE
        ]
        name = ordered[0] if ordered else schema.attributes[0].name
    values = dict(zip(schema.names, record.values))
    values[name] = fault.value
    return type(record)(schema, tuple(values[n] for n in schema.names))


def _rekey_record(record: Any, attribute: str, value: Any) -> Any:
    """Return a copy of *record* whose partition key is the hot *value*."""
    schema = getattr(record, "schema", None)
    if schema is None:  # raw payload: nothing to rekey
        return record
    values = dict(zip(schema.names, record.values))
    values[attribute] = value
    return type(record)(schema, tuple(values[n] for n in schema.names))


def hot_key_stream(
    records: Sequence[Any],
    attribute: str,
    value: Any,
    fraction: float = 0.8,
    start: int = 1,
) -> List[Any]:
    """Concentrate *fraction* of the traffic from position *start* on one key.

    Record ``k`` (1-based, counted from *start*) is rewritten exactly when
    ``int(k*fraction) > int((k-1)*fraction)`` — the same deterministic
    accumulator the rebalancer's curation uses — so the hot records are
    evenly interleaved with the cold tail and the damaged sequence is a
    pure function of the input, independent of timing or shard count.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    out: List[Any] = []
    for index, record in enumerate(records):
        position = index + 1
        if position < start:
            out.append(record)
            continue
        k = position - start + 1
        if int(k * fraction) > int((k - 1) * fraction):
            out.append(_rekey_record(record, attribute, value))
        else:
            out.append(record)
    return out


class FaultySource:
    """A replayable, damage-applying source factory for ResilientSource.

    Stream-damage faults (drop/duplicate/reorder/corrupt) are applied
    *once*, eagerly, producing a deterministic damaged sequence; calling
    the factory with ``skip=N`` then yields the damaged sequence from
    logical position N — exactly the contract
    :class:`repro.streams.sources.ResilientSource` expects after a
    reconnect.  Read faults (fail/stall) fire at their absolute logical
    position the *first* time it is read, then never again, so the
    post-reconnect pass over the same position succeeds.
    """

    def __init__(self, records: Sequence[Any], faults: Sequence[SourceFault] = ()):
        self.faults: List[SourceFault] = list(faults)
        self.damaged: List[Any] = self._apply_damage(list(records))
        self._fired: set = set()

    def _apply_damage(self, records: List[Any]) -> List[Any]:
        for fault in self.faults:
            if fault.action == "hot_key":
                records = hot_key_stream(
                    records,
                    fault.attribute,
                    fault.value,
                    fraction=fault.fraction,
                    start=fault.at_record,
                )
        out: List[Any] = []
        index = 0
        while index < len(records):
            position = index + 1  # 1-based
            matches = [
                f
                for f in self.faults
                if f.at_record == position and f.action in ("drop", "duplicate", "reorder", "corrupt")
            ]
            record = records[index]
            actions = {f.action: f for f in matches}
            if "corrupt" in actions:
                record = _corrupt_record(record, actions["corrupt"])
            if "drop" in actions:
                index += 1
                continue
            if "reorder" in actions and index + 1 < len(records):
                out.append(records[index + 1])
                out.append(record)
                index += 2
                continue
            out.append(record)
            if "duplicate" in actions:
                out.append(record)
            index += 1
        return out

    def __call__(self, skip: int = 0) -> Iterator[Any]:
        return self._iterate(skip)

    def _iterate(self, skip: int) -> Iterator[Any]:
        for index in range(skip, len(self.damaged)):
            position = index + 1  # 1-based logical position
            for n, fault in enumerate(self.faults):
                if fault.at_record != position or (n, position) in self._fired:
                    continue
                if fault.action == "stall":
                    self._fired.add((n, position))
                    time.sleep(fault.seconds)
                elif fault.action == "fail":
                    self._fired.add((n, position))
                    raise IOError(
                        f"injected transient read failure at record {position}"
                    )
            yield self.damaged[index]


def exit_after_commits(n: int, exit_code: int = 1):
    """An ``on_commit`` hook that hard-exits the process after commit N.

    Wire it into :class:`repro.dsms.durability.DurableRunner` to simulate
    killing the whole pipeline mid-run: the journal retains the first N
    commits, and a fresh process can ``resume()`` from them.  Uses
    ``os._exit`` so no cleanup (atexit, finally, multiprocessing
    shutdown) runs — as close to ``kill -9`` as a test can get while
    still choosing the crash point deterministically.
    """

    seen = {"commits": 0}

    def hook(consumed: int, kind: str) -> None:
        seen["commits"] += 1
        if seen["commits"] >= n:
            os._exit(exit_code)

    return hook
