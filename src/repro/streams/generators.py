"""Composable random processes for synthetic packet traces.

The paper evaluates on two live AT&T feeds we cannot access.  This module
provides the building blocks from which :mod:`repro.streams.traces`
assembles statistically similar synthetic feeds:

* rate processes — packets-per-second over time.  The research-center feed
  is "highly variable" (paper §7), which is exactly what stresses the
  dynamic subset-sum threshold carryover; we model it as a regime-switching
  process with multiplicative jumps.  The data-center feed is steady.
* a packet-length model — the empirical mix of small (ACK-sized), medium,
  and MTU-sized packets that makes subset-sum sampling interesting (sums
  are dominated by large packets).
* an address space and flow model — realistic srcIP/destIP structure with
  Zipf-distributed flow popularity, so heavy-hitter and min-hash queries
  have genuine skew to find.

All processes take an explicit :class:`random.Random` so traces are fully
reproducible from a seed.  The feeds draw through ``bind``, each bounded
integer from ``getrandbits`` as CPython's ``Random._randbelow`` draws it for
``randrange``, ``randint`` and ``choice``; ``tests/streams/test_traces.py``
pins the packets a seed yields.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

from repro.errors import StreamError


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random._randbelow(n)`` for ``n >= 1``, from the same draws."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class RateProcess:
    """Interface: packets-per-second as a function of the second index."""

    def rate_at(self, second: int, rng: random.Random) -> int:
        raise NotImplementedError


@dataclass
class SteadyRateProcess(RateProcess):
    """A nearly constant rate with small relative jitter.

    Models the data-center tap: "highly aggregated, and hence has a much
    lower variability in its data rate" (paper §7).
    """

    mean_rate: int
    jitter: float = 0.03

    def __post_init__(self) -> None:
        if self.mean_rate <= 0:
            raise StreamError("mean_rate must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise StreamError("jitter must be in [0, 1)")

    def rate_at(self, second: int, rng: random.Random) -> int:
        factor = 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(1, int(self.mean_rate * factor))


@dataclass
class BurstyRateProcess(RateProcess):
    """Regime-switching bursty rate.

    The process holds a base rate for a geometrically distributed number of
    seconds, then jumps to a new rate drawn log-uniformly between
    ``low_rate`` and ``high_rate``.  Within a regime there is moderate
    second-to-second noise.  Sharp downward regime changes are the events
    that make non-relaxed dynamic subset-sum under-sample (paper §7.1), so
    the generator guarantees a mix of both directions.
    """

    low_rate: int = 5_000
    high_rate: int = 15_000
    mean_regime_seconds: float = 25.0
    within_regime_noise: float = 0.15

    _current_rate: Optional[int] = field(default=None, repr=False)
    _seconds_left: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.low_rate <= 0 or self.high_rate < self.low_rate:
            raise StreamError("need 0 < low_rate <= high_rate")
        if self.mean_regime_seconds <= 0:
            raise StreamError("mean_regime_seconds must be positive")

    def _draw_regime(self, rng: random.Random) -> None:
        log_low, log_high = math.log(self.low_rate), math.log(self.high_rate)
        previous = self._current_rate
        rate = int(math.exp(rng.uniform(log_low, log_high)))
        if previous is not None:
            # Force genuine jumps: redraw until the new regime differs from
            # the old by at least 40% in one direction or the other.
            attempts = 0
            while 0.6 * previous < rate < 1.67 * previous and attempts < 20:
                rate = int(math.exp(rng.uniform(log_low, log_high)))
                attempts += 1
        self._current_rate = max(self.low_rate, min(self.high_rate, rate))
        # Geometric holding time with the configured mean, at least 1 s.
        self._seconds_left = max(1, int(rng.expovariate(1.0 / self.mean_regime_seconds)))

    def rate_at(self, second: int, rng: random.Random) -> int:
        if self._current_rate is None or self._seconds_left <= 0:
            self._draw_regime(rng)
        self._seconds_left -= 1
        noise = 1.0 + rng.uniform(-self.within_regime_noise, self.within_regime_noise)
        assert self._current_rate is not None
        return max(1, int(self._current_rate * noise))


@dataclass(frozen=True)
class PacketLengthModel:
    """Trimodal packet-length distribution.

    Internet packet lengths are famously trimodal: ~40-byte control
    packets, a mid-size mode, and MTU-sized data packets.  ``weights`` are
    the mixture probabilities for (small, medium, large); within a mode the
    length is uniform over a narrow band.
    """

    small: Tuple[int, int] = (40, 80)
    medium: Tuple[int, int] = (300, 700)
    large: Tuple[int, int] = (1300, 1500)
    weights: Tuple[float, float, float] = (0.5, 0.2, 0.3)

    def __post_init__(self) -> None:
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise StreamError("length-model weights must sum to 1")
        for lo, hi in (self.small, self.medium, self.large):
            if not 0 < lo <= hi:
                raise StreamError("length bands must satisfy 0 < lo <= hi")

    def draw(self, rng: random.Random) -> int:
        return self.bind(rng)()

    def bind(self, rng: random.Random) -> Callable[[], int]:
        """:meth:`draw` bound to ``rng``: ``random()`` picks a band, ``randint`` a length."""
        random_, getrandbits = rng.random, rng.getrandbits
        first, second = self.weights[0], self.weights[0] + self.weights[1]
        widths = [(lo, hi - lo + 1) for lo, hi in (self.small, self.medium, self.large)]
        bands = [(lo, n, n.bit_length()) for lo, n in widths]

        def draw() -> int:
            u = random_()
            lo, n, k = bands[0] if u < first else bands[1] if u < second else bands[2]
            r = getrandbits(k)  # randbelow(n), its bit length taken once: a draw per packet
            while r >= n:
                r = getrandbits(k)
            return lo + r

        return draw

    @property
    def mean_length(self) -> float:
        bands = (self.small, self.medium, self.large)
        return sum(w * (lo + hi) / 2.0 for w, (lo, hi) in zip(self.weights, bands))


@dataclass(frozen=True)
class AddressSpace:
    """A pool of synthetic IPv4 addresses with Zipf-like popularity.

    ``pick`` draws an index with probability proportional to
    ``1 / (rank + 1) ** alpha`` using the inverse-CDF of a precomputed
    table, then maps it to a 32-bit address inside ``base_prefix``.
    Skewed popularity is what makes heavy-hitters and per-source grouping
    realistic.
    """

    size: int = 5_000
    alpha: float = 1.1
    base_prefix: int = 0x0A000000  # 10.0.0.0/8

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise StreamError("address space size must be positive")
        if self.alpha < 0:
            raise StreamError("alpha must be non-negative")
        weights = [1.0 / (rank + 1) ** self.alpha for rank in range(self.size)]
        total = sum(weights)
        cumulative = list(accumulate(w / total for w in weights))
        cumulative[-1] = 1.0
        object.__setattr__(self, "_cumulative", cumulative)

    def pick(self, rng: random.Random) -> int:
        """Draw one address (32-bit int), heavier ranks more likely."""
        cumulative: List[float] = getattr(self, "_cumulative")
        return self.address_of(bisect_left(cumulative, rng.random()))

    def address_of(self, rank: int) -> int:
        """The address assigned to popularity rank ``rank``."""
        if not 0 <= rank < self.size:
            raise StreamError(f"rank {rank} outside address space of {self.size}")
        # Spread ranks through the prefix with a fixed odd multiplier so
        # adjacent ranks do not share a /24 (mimics real address scatter).
        scrambled = (rank * 2654435761) & 0x00FFFFFF
        return self.base_prefix | scrambled


@dataclass
class FlowModel:
    """Generates (srcIP, destIP, srcPort, destPort, protocol) flow keys.

    A configurable fraction of packets continue an existing active flow
    (drawn uniformly from a bounded table of live flows); the rest start a
    new flow with Zipf-popular endpoints.  This produces the mixture of a
    few elephant flows and many mice that subset-sum sampling targets.
    """

    sources: AddressSpace = field(default_factory=AddressSpace)
    destinations: AddressSpace = field(default_factory=lambda: AddressSpace(base_prefix=0xC0A80000))
    continue_probability: float = 0.8
    max_live_flows: int = 20_000

    _live: List[Tuple[int, int, int, int, int]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.continue_probability < 1.0:
            raise StreamError("continue_probability must be in [0, 1)")
        if self.max_live_flows <= 0:
            raise StreamError("max_live_flows must be positive")

    def next_flow_key(self, rng: random.Random) -> Tuple[int, int, int, int, int]:
        return self.bind(rng)()

    def bind(self, rng: random.Random) -> Callable[[], Tuple[int, int, int, int, int]]:
        """:meth:`next_flow_key` bound to ``rng``: mostly TCP flows, some UDP."""
        random_, below = rng.random, partial(randbelow, rng.getrandbits)
        source, destination = partial(self.sources.pick, rng), partial(self.destinations.pick, rng)
        live, p, capacity = self._live, self.continue_probability, self.max_live_flows

        def next_flow_key() -> Tuple[int, int, int, int, int]:
            if live and random_() < p:
                return live[below(len(live))]
            key = (source(), destination(), 1024 + below(64512),  # randint/choice's draw order
                   (80, 443, 53, 22, 25, 1024 + below(64512))[below(6)], (6, 6, 6, 17)[below(4)])
            if len(live) < capacity:
                live.append(key)
            else:
                live[below(len(live))] = key
            return key

        return next_flow_key

    def reset(self) -> None:
        """Forget all live flows (used when replaying a fresh trace)."""
        self._live.clear()
