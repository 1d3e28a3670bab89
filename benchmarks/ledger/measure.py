"""Timing, counting and span primitives shared by the ledger.

The host this was developed on flips between a fast state and one 1.5-1.7x
slower, for anything from 10 ms to minutes at a time (README.md, "Measured
noise"), and neither CPU time nor ``/proc/stat`` can tell the two apart.
So every duration here is *calibrated*: a fixed pure-Python kernel is run
every few milliseconds (:class:`Host`), each timed slice is divided by how
much slower than nominal the kernel ran around it, and a measurement is
the sum over 1024-record slices of the median of that slice's calibrated
repeats (:func:`steady_seconds`).  A calibrated second is a second of a
host on which the kernel takes :data:`NOMINAL_KERNEL_S`, which is what the
development host does in its fast state.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: every driver is fed 1024-record batches, and slices are cut at the same size
BATCH = 1024
#: seconds the calibration kernel takes on the nominal host
NOMINAL_KERNEL_S = 250e-6
#: the kernel runs again once the last sample is this old
SAMPLE_EVERY_S = 0.008


def chunked(records: Sequence[Any]) -> List[Sequence[Any]]:
    return [records[i : i + BATCH] for i in range(0, len(records), BATCH)]


class Host:
    """The host's speed over time, sampled with a fixed kernel.

    The kernel is interpreter-bound dictionary work and shares no code
    with the program under test.  Measured against the tuple engine, the
    batch engine and the sampling operator, it slows down with them to
    within about 5 % while all of them slow down by 70 %.
    """

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.costs: List[float] = []

    def sample(self) -> None:
        if self.ends and time.perf_counter() - self.ends[-1] < SAMPLE_EVERY_S:
            return
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(3000):
            table[i & 255] = table.get(i & 255, 0) + i
        end = time.perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than nominal the kernel ran over [start, end]:
        the samples inside the interval and the one on either side."""
        low = max(0, bisect_left(self.ends, start) - 1)
        high = bisect_right(self.ends, end) + 1
        return statistics.fmean(self.costs[low:high]) / NOMINAL_KERNEL_S

    def calibrated(self, start: float, end: float) -> float:
        """The interval's length in calibrated seconds."""
        return (end - start) / self.slowdown(start, end)

    def spread(self) -> float:
        """p90 / p10 of the kernel's cost: above 1.25 the host changed speed."""
        return percentile(self.costs, 0.9) / percentile(self.costs, 0.1)


class Timed:
    """One timed pass: its slices, CPU time and result.

    A slice is an (open, close) pair of ``perf_counter`` readings; the
    host is sampled between slices, never inside one.
    """

    def __init__(self, host: Host) -> None:
        self.host = host
        self.slices: List[Tuple[float, float]] = []
        self.cpu = 0.0
        self.result: Any = None
        self._open = 0.0
        self._calibrated: Optional[List[float]] = None

    def open(self) -> None:
        self.host.sample()
        self._open = time.perf_counter()

    def close(self) -> None:
        self.slices.append((self._open, time.perf_counter()))

    def end(self, result: Any) -> "Timed":
        """Close the last slice and sample the host once more, so that
        slice too has a sample on either side."""
        self.close()
        self.host.sample()
        self.result = result
        return self

    @property
    def wall(self) -> float:
        """Uncalibrated seconds from the first open to the last close."""
        return self.slices[-1][1] - self.slices[0][0]

    def calibrated(self) -> List[float]:
        """Each slice's length in calibrated seconds."""
        if self._calibrated is None:
            self._calibrated = [self.host.calibrated(*piece) for piece in self.slices]
        return self._calibrated


def _pulled(
    chunks: Iterable[Sequence[Any]], timed: Timed, hook: Optional[Callable[[], None]]
) -> Iterator[Sequence[Any]]:
    for chunk in chunks:
        timed.close()
        timed.open()
        if hook is not None:
            hook()
        yield chunk
    # Every driver pulls until the source is exhausted before it flushes,
    # so this last cut separates the final batch from the final flush.
    timed.close()
    timed.open()
    if hook is not None:
        hook()


def timed_pass(
    consume: Callable[[Iterator[Any]], Any],
    chunks: Sequence[Sequence[Any]],
    host: Host,
    hook: Optional[Callable[[], None]] = None,
) -> Timed:
    """Time ``consume(record_iterator)`` from its call to its return.

    The iterator cuts a slice (and then calls ``hook``) each time the
    consumer pulls the next 1024-record chunk, which works unchanged for
    every driver because all of them pull from the iterator they are
    given.  Records are handed over by C-level iteration; Python runs
    once per chunk.  Slices: the lead-in before the first pull, one per
    chunk, and the final flush.
    """
    timed = Timed(host)
    gc.collect()
    cpu = time.process_time()
    timed.open()
    timed.end(consume(chain.from_iterable(_pulled(chunks, timed, hook))))
    timed.cpu = time.process_time() - cpu
    return timed


def timed_call(fn: Callable[[], Any], host: Host) -> Timed:
    """``fn()`` as a single slice."""
    timed = Timed(host)
    timed.open()
    return timed.end(fn())


def steady_seconds(passes: Sequence[Timed]) -> float:
    """Calibrated seconds of one pass: the sum over slices of the median
    of that slice's calibrated repeats."""
    return sum(statistics.median(column) for column in zip(*(p.calibrated() for p in passes)))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """min, quartiles and sample count of a timing series."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one sample)."""
    found = summary(values)
    return abs(found["q3"] - found["q1"]) / abs(found["median"]) if found["median"] else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def count_calls(fn: Callable[[], Any]) -> "tuple[int, Any]":
    """Python ``call`` + ``c_call`` profile events while ``fn()`` runs."""
    calls = [0]

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call" or event == "c_call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls[0], result


def peak_alloc_mib(fn: Callable[[], Any]) -> "tuple[float, Any]":
    """``tracemalloc`` peak in MiB while ``fn()`` runs."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, result


class Spans:
    """In-memory span log; written once when the benchmark ends.

    Parents are passed explicitly because rounds of different workloads
    interleave, so there is no single call stack to infer them from.
    """

    def __init__(self) -> None:
        self.items: List[Dict[str, Any]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        workload: str,
        **counts: Any,
    ) -> int:
        self.items.append(
            {
                "id": len(self.items),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": workload,
                "counts": counts,
            }
        )
        return len(self.items) - 1

    @contextmanager
    def span(
        self, name: str, parent: Optional[int], workload: str, **counts: Any
    ) -> Iterator[int]:
        """Record a span around the ``with`` body; yields its id."""
        span = self.add(name, time.perf_counter(), 0.0, parent, workload, **counts)
        try:
            yield span
        finally:
            self.items[span]["end"] = time.perf_counter()

    def close_roots(self) -> None:
        """Stretch each root span over its descendants."""
        for item in self.items:
            if item["parent"] is not None:
                root = self.items[item["parent"]]
                while root["parent"] is not None:
                    root = self.items[root["parent"]]
                root["start"] = min(root["start"], item["start"])
                root["end"] = max(root["end"], item["end"])

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the time its direct children cover."""
        out = {item["id"]: item["end"] - item["start"] for item in self.items}
        for item in self.items:
            if item["parent"] is not None:
                out[item["parent"]] -= item["end"] - item["start"]
        return out
