"""Durable standing registrations: the serving journal (docs/SERVING.md).

Standing queries ride the same fsync'd, CRC-framed, torn-tail-tolerant
:class:`~repro.dsms.durability.ResultJournal` — and the same entry
envelope, under ``mode="serving"`` — as every durable run, with two
entry kinds of their own beside the commits:

* ``register`` / ``unregister`` — one entry per registry mutation, with
  the record ``offset`` (records consumed so far) at which it took
  effect; replaying the event log at the same offsets reproduces the
  exact standing-query set at every point of the stream;
* ``commit`` / ``final`` — periodic durable snapshots: ``consumed``
  plus every served query's instance checkpoint
  (:meth:`~repro.dsms.runtime.Gigascope.checkpoint` — operator state,
  metrics, cost balances, rows emitted since the previous commit), the
  per-tenant quota ledger and the engine's own registry and trace.

:func:`repro.serving.server.resume_serving` rebuilds the query set from
the event log, restores the last commit's checkpoints, skips the
committed input prefix, and replays the remainder (re-applying any
events the journal recorded *after* the last commit at their original
offsets) — byte-identical to an uninterrupted serve, by the same
batch-boundary-drain argument every durable run rests on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


def split_log(
    entries: List[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]], List[Dict[str, Any]]]:
    """Split a journal into ``(replayed events, last commit, pending events)``.

    ``replayed`` are register/unregister events already reflected in the
    last commit's checkpoints; ``pending`` are events appended after it,
    which a resume must re-apply at their recorded offsets.  A resume
    may append duplicates of pending events (they are re-journalled as
    the replay re-applies them), so events are deduplicated by
    ``(kind, qid)`` keeping the first occurrence.
    """
    last_commit: Optional[Dict[str, Any]] = None
    last_commit_index = -1
    for index, entry in enumerate(entries):
        if entry["kind"] in ("commit", "final"):
            last_commit = entry
            last_commit_index = index
    seen: set = set()
    replayed: List[Dict[str, Any]] = []
    pending: List[Dict[str, Any]] = []
    for index, entry in enumerate(entries):
        if entry["kind"] not in ("register", "unregister"):
            continue
        key = (entry["kind"], entry["qid"])
        if key in seen:
            continue
        seen.add(key)
        (replayed if index < last_commit_index else pending).append(entry)
    return replayed, last_commit, pending
