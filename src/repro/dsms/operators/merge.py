"""Order-preserving stream merge.

Gigascope composes query sets over multiple taps with a MERGE operator:
it combines streams with identical schemas into one, preserving the
ordering property of the ordered attribute (so downstream windowed
queries still see monotone time).

The implementation is watermark-based: records buffer per source; the
watermark is the minimum, across sources, of the last ordered-attribute
value seen; buffered records at or below the watermark are released in
sorted order, the buffer sorted and cut at the watermark (no record pays
a heap operation).  A source that ends (``end_source``) stops holding
the watermark back.  ``flush`` releases everything that remains.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter, itemgetter, lt
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ExecutionError, SchemaError
from repro.dsms.operators.base import Operator
from repro.streams.records import Record
from repro.streams.schema import StreamSchema

_VALUES, _KEY, _RECORD = attrgetter("values"), itemgetter(0), itemgetter(2)


class MergeOperator(Operator):
    """Merge N same-schema streams by their first ordered attribute."""

    kind_label = "merge"

    def __init__(self, schema: StreamSchema, sources: Sequence[str]) -> None:
        if len(sources) < 2:
            raise ExecutionError("a merge needs at least two sources")
        ordered = schema.ordered_attributes()
        if not ordered:
            raise SchemaError(
                f"schema {schema.name!r} has no ordered attribute to merge on"
            )
        self.output_schema = schema
        self.merge_attribute = ordered[0].name
        self._key_of = itemgetter(schema.index_of(self.merge_attribute))
        self._sources = list(sources)
        #: (key, seq, record), sorted whenever a call returns
        self._buffer: List[tuple] = []
        self._seq = 0
        #: last ordered value per live source (None until first record)
        self._frontier: Dict[str, Optional[Any]] = {s: None for s in sources}
        self._done: set = set()
        self._default_obs("merge")

    def _bind_series(self) -> None:
        super()._bind_series()
        self.g_buffered = self.obs_metrics.gauge(
            "merge_buffered",
            help="records held back by the merge watermark",
            query=self.obs_query,
            operator=self.kind_label,
        )

    # -- input -------------------------------------------------------------------

    def process_many_from(
        self,
        source: str,
        records: Iterable[Record],
        out: Optional[List[Record]] = None,
    ) -> List[Record]:
        """Accept a run of records from a named source; appends what the
        watermark releases to ``out``.  The run is buffered whole — up to
        the record that violates the source's ordering, which raises
        after the records before it are released — and released once:
        the watermark only rises, and every later record sorts at or
        above it, so that yields what a release per record would."""
        if out is None:
            out = []
        if source not in self._frontier:
            raise ExecutionError(f"unknown merge source {source!r}")
        if source in self._done:
            raise ExecutionError(f"merge source {source!r} already ended")
        run = records if isinstance(records, (list, tuple)) else list(records)
        keys = list(map(self._key_of, map(_VALUES, run)))
        last = self._frontier[source]
        previous = (keys[:1] if last is None else [last]) + keys
        error = None
        if any(map(lt, keys, previous)):
            cut = next(i for i, key in enumerate(keys) if key < previous[i])
            error = ExecutionError(
                f"merge source {source!r} violated ordering: {keys[cut]!r} after {previous[cut]!r}"
            )
            del keys[cut:]
            run = run[:cut]
        seq, self._seq = self._seq, self._seq + len(keys)
        self._buffer += zip(keys, range(seq, self._seq), run)
        self._frontier[source] = keys[-1] if keys else last
        self.m_in.inc(len(keys))
        out.extend(self._release())
        if error is not None:
            raise error
        return out

    def process_from(self, source: str, record: Record) -> List[Record]:
        """A run of one, from ``source``."""
        return self.process_many_from(source, (record,))

    def process(self, record: Record) -> List[Record]:
        raise ExecutionError(
            "MergeOperator is fed per source; use process_from(source, record)"
        )

    def end_source(self, source: str) -> List[Record]:
        """Mark one source exhausted; it no longer holds the watermark."""
        if source not in self._frontier:
            raise ExecutionError(f"unknown merge source {source!r}")
        self._done.add(source)
        return self._release()

    # -- output -------------------------------------------------------------------

    def _watermark(self) -> Optional[Any]:
        """Smallest frontier over live sources (None = a source is silent)."""
        live = [s for s in self._sources if s not in self._done]
        if not live:
            return None  # everything may flow
        frontiers = [self._frontier[s] for s in live]
        if any(f is None for f in frontiers):
            return _HOLD
        return min(frontiers)

    def _release(self) -> List[Record]:
        buffer = self._buffer
        buffer.sort()  # the seq breaks ties: a record is never compared
        watermark = self._watermark()
        if watermark is _HOLD:
            cut = 0
        else:
            cut = len(buffer) if watermark is None else bisect_right(buffer, watermark, key=_KEY)
        out = list(map(_RECORD, buffer[:cut]))
        del buffer[:cut]
        self.m_rows_out.inc(len(out))
        self.g_buffered.set(len(buffer))
        return out

    def flush(self) -> List[Record]:
        """End of all input: release every buffered record in order."""
        self._done.update(self._sources)
        return self._release()

    def checkpoint(self, since: Optional[Dict[str, int]] = None) -> Any:
        """Buffered records (sorted, so a heap, as older checkpoints hold
        under ``heap``), per-source frontiers, and ended sources; records
        are immutable once emitted."""
        return {
            "heap": list(self._buffer),
            "seq": self._seq,
            "frontier": dict(self._frontier),
            "done": set(self._done),
        }

    def restore(self, snapshot: Any) -> None:
        self._buffer = snapshot["heap"]
        self._seq = snapshot["seq"]
        self._frontier = snapshot["frontier"]
        self._done = snapshot["done"]

    @property
    def buffered(self) -> int:
        return len(self._buffer)


class _Hold:
    """Sentinel: a live source has produced nothing yet; hold everything."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<hold>"


_HOLD = _Hold()
