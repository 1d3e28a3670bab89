"""Labelled metrics: counters, gauges, histograms, timers.

Design constraints, in order of importance:

1. **Hot-path cheapness** — operators resolve their series *once* (at
   bind time) into plain objects whose ``inc``/``set``/``observe`` are a
   couple of attribute writes; the registry's label hashing happens only
   at registration.
2. **Exact recovery** — :meth:`MetricsRegistry.checkpoint` /
   :meth:`MetricsRegistry.restore` snapshot and reinstate every series
   *in place*, so live references held by operators stay valid and a
   supervised shard restart resumes counting from the checkpoint without
   drift (replayed batches re-increment deterministically).
3. **Shard folding** — :meth:`MetricsRegistry.absorb` merges another
   registry's snapshot, optionally stamping extra labels (``shard=...``)
   on every absorbed series; counters and histogram buckets add, gauges
   take the maximum (a folded gauge answers "worst across shards", which
   is what backlog/peak-group gauges mean).

Series identity is ``(name, sorted label items)``.  A metric *name* has
one type (counter, gauge or histogram) across all label sets; mixing
types under one name raises.

Timing metrics — any series whose name ends in ``_seconds`` — are
inherently nondeterministic, so comparison helpers
(:meth:`MetricsRegistry.comparable_items`) exclude them; everything else
is exactly reproducible run-to-run for a fixed input.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError

LabelItems = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): ~100 µs to 10 s, log-spaced.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default size buckets (bytes): 256 B to 16 MiB, powers of four.
BYTES_BUCKETS: Tuple[float, ...] = tuple(256 * 4**i for i in range(9))


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone counter.  ``inc`` only; negative increments raise."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, by: int = 1) -> None:
        if by < 0:
            raise ReproError(f"counter {self.name} cannot decrease (by={by})")
        self.value += by

    def _state(self) -> Any:
        return self.value

    def _load(self, state: Any) -> None:
        self.value = state

    def _merge(self, state: Any) -> None:
        self.value += state


class Gauge:
    """Point-in-time value.  Folding across shards keeps the maximum."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, by: float = 1) -> None:
        self.value += by

    def _state(self) -> Any:
        return self.value

    def _load(self, state: Any) -> None:
        self.value = state

    def _merge(self, state: Any) -> None:
        self.value = max(self.value, state)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    *non-cumulatively* here (the exporter cumulates); the overflow bucket
    is ``bucket_counts[-1]`` (``+Inf``).
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "total", "count")

    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelItems, bounds: Sequence[float]
    ) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(tuple(bounds)):
            raise ReproError(f"histogram {name}: bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def _state(self) -> Any:
        return (self.bounds, list(self.bucket_counts), self.total, self.count)

    def _load(self, state: Any) -> None:
        bounds, buckets, total, count = state
        self.bounds = tuple(bounds)
        self.bucket_counts = list(buckets)
        self.total = total
        self.count = count

    def _merge(self, state: Any) -> None:
        bounds, buckets, total, count = state
        if tuple(bounds) != self.bounds:
            raise ReproError(
                f"histogram {self.name}: cannot merge mismatched buckets"
            )
        for i, n in enumerate(buckets):
            self.bucket_counts[i] += n
        self.total += total
        self.count += count


class Timer:
    """Context manager observing wall time into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All metric series of one runtime instance.

    Thread-unaware by design: the runtime is synchronous and sharded
    workers each own a private registry that the parent folds afterwards.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, LabelItems], Any] = {}
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    # -- registration ------------------------------------------------------

    def _get(self, kind: str, name: str, labels: Dict[str, Any], help: Optional[str]):
        key = (name, _label_items(labels))
        series = self._series.get(key)
        if series is not None:
            if series.kind != kind:
                raise ReproError(
                    f"metric {name!r} is a {series.kind}, not a {kind}"
                )
            return series
        declared = self._types.setdefault(name, kind)
        if declared != kind:
            raise ReproError(f"metric {name!r} is a {declared}, not a {kind}")
        if help is not None:
            self._help.setdefault(name, help)
        return None

    def counter(self, name: str, help: Optional[str] = None, **labels: Any) -> Counter:
        series = self._get("counter", name, labels, help)
        if series is None:
            series = Counter(name, _label_items(labels))
            self._series[(name, series.labels)] = series
        return series

    def gauge(self, name: str, help: Optional[str] = None, **labels: Any) -> Gauge:
        series = self._get("gauge", name, labels, help)
        if series is None:
            series = Gauge(name, _label_items(labels))
            self._series[(name, series.labels)] = series
        return series

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: Optional[str] = None,
        **labels: Any,
    ) -> Histogram:
        series = self._get("histogram", name, labels, help)
        if series is None:
            if buckets is None:
                buckets = SECONDS_BUCKETS if name.endswith("_seconds") else BYTES_BUCKETS
            series = Histogram(name, _label_items(labels), buckets)
            self._series[(name, series.labels)] = series
        return series

    def timer(self, name: str, help: Optional[str] = None, **labels: Any) -> Timer:
        return Timer(self.histogram(name, help=help, **labels))

    def help_text(self, name: str) -> Optional[str]:
        return self._help.get(name)

    # -- reads -------------------------------------------------------------

    def value(self, name: str, default: Any = 0, **labels: Any) -> Any:
        """The value of one exact series (histograms: the count)."""
        series = self._series.get((name, _label_items(labels)))
        if series is None:
            return default
        if series.kind == "histogram":
            return series.count
        return series.value

    def total(self, name: str, **label_filter: Any) -> float:
        """Sum of a metric over every series matching the label filter.

        Filter labels must match exactly where given; unnamed labels are
        summed over — ``total("operator_tuples_in_total", query="q")``
        adds all shards of query ``q``.
        """
        want = {str(k): str(v) for k, v in label_filter.items()}
        out: float = 0
        for (series_name, labels), series in self._series.items():
            if series_name != name:
                continue
            have = dict(labels)
            if all(have.get(k) == v for k, v in want.items()):
                out += series.count if series.kind == "histogram" else series.value
        return out

    def series(self) -> Iterator[Any]:
        """All series, in deterministic (name, labels) order."""
        for key in sorted(self._series):
            yield self._series[key]

    def counter_values(self) -> Dict[Tuple[str, LabelItems], int]:
        """Every counter's value by ``(name, labels)``, in registration
        order: a snapshot to take differences of, without :meth:`series`'s
        sort."""
        return {key: series.value for key, series in self._series.items() if series.kind == "counter"}

    def names(self) -> List[str]:
        return sorted(self._types)

    # -- snapshot / restore / fold ----------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Picklable snapshot of every series."""
        return {
            "types": dict(self._types),
            "help": dict(self._help),
            "series": [
                (name, list(labels), series.kind, series._state())
                for (name, labels), series in sorted(self._series.items())
            ],
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reinstate a snapshot *in place*.

        Series objects already registered are mutated (never replaced),
        so references held by bound operators survive the restore; series
        present live but absent from the snapshot are zeroed.
        """
        self._types.update(snapshot["types"])
        self._help.update(snapshot["help"])
        seen = set()
        for name, labels, kind, state in snapshot["series"]:
            key = (name, tuple((k, v) for k, v in labels))
            seen.add(key)
            series = self._series.get(key)
            if series is None:
                series = _KINDS[kind](name, key[1]) if kind != "histogram" else (
                    Histogram(name, key[1], state[0])
                )
                self._series[key] = series
            series._load(state)
        for key, series in self._series.items():
            if key not in seen:
                _load_zero(series)

    def absorb(
        self,
        snapshot: Dict[str, Any],
        extra_labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Merge a snapshot from another registry (a shard's).

        ``extra_labels`` are stamped onto every absorbed series —
        ``absorb(worker_snap, extra_labels={"shard": 0})`` keeps shard
        series distinguishable while :meth:`total` still aggregates.
        """
        extra = _label_items(extra_labels or {})
        self._help.update(snapshot["help"])
        for name, labels, kind, state in snapshot["series"]:
            declared = self._types.setdefault(name, kind)
            if declared != kind:
                raise ReproError(f"metric {name!r} is a {declared}, not a {kind}")
            merged = tuple(sorted(dict(list(labels) + list(extra)).items()))
            key = (name, merged)
            series = self._series.get(key)
            if series is None:
                if kind == "histogram":
                    series = Histogram(name, merged, state[0])
                else:
                    series = _KINDS[kind](name, merged)
                self._series[key] = series
            series._merge(state)

    def reset(self) -> None:
        """Zero every series (shape is kept, references stay valid)."""
        for series in self._series.values():
            _load_zero(series)

    # -- comparison / export ----------------------------------------------

    def comparable_items(
        self, exclude_prefixes: Sequence[str] = ()
    ) -> List[Tuple[str, LabelItems, Any]]:
        """Deterministic (name, labels, value) triples for equality tests.

        Excludes timing series (``*_seconds``: wall time is never
        reproducible) and any name starting with one of
        ``exclude_prefixes``.
        """
        out = []
        for key in sorted(self._series):
            name, labels = key
            if name.endswith("_seconds"):
                continue
            if any(name.startswith(p) for p in exclude_prefixes):
                continue
            series = self._series[key]
            if series.kind == "histogram":
                out.append((name, labels, (series.count, series.total)))
            else:
                out.append((name, labels, series.value))
        return out

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable dump of every series (the --metrics-out shape)."""
        metrics: List[Dict[str, Any]] = []
        for series in self.series():
            entry: Dict[str, Any] = {
                "name": series.name,
                "type": series.kind,
                "labels": dict(series.labels),
            }
            if series.kind == "histogram":
                entry["buckets"] = [
                    {"le": bound, "count": count}
                    for bound, count in zip(series.bounds, series.bucket_counts)
                ]
                entry["buckets"].append(
                    {"le": "+Inf", "count": series.bucket_counts[-1]}
                )
                entry["sum"] = series.total
                entry["count"] = series.count
            else:
                entry["value"] = series.value
            metrics.append(entry)
        return {"metrics": metrics}


def _zero_state(series: Any) -> Any:
    if series.kind == "histogram":
        return (series.bounds, [0] * (len(series.bounds) + 1), 0.0, 0)
    return 0


def _load_zero(series: Any) -> None:
    series._load(_zero_state(series))
