"""Concrete synthetic feeds mirroring the paper's two network taps.

Paper §7: *"We had two network feeds available for experiments.  The first
is the network connection to our research center.  This data stream
produces a moderate 5,000 to 15,000 packets per second, with a rate that
is highly variable.  The second network feed is a data center tap,
producing moderately high speed 100,000 packets per second (about 400
Mbits/sec).  This data feed is highly aggregated, and hence has a much
lower variability."*

Both feeds are generators of :class:`~repro.streams.records.Record` over
``TCP_SCHEMA``.  Packets carry:

* ``time`` — integer seconds (the ordered attribute windows are cut on),
* ``uts`` — a unique per-packet nanosecond counter (paper §6.1 uses this to
  make each packet its own group in the subset-sum query),
* flow five-tuple fields and a trimodal ``len``.

For the paper's default experiment the trace rates are scaled down by
``rate_scale`` (default 1/100) so a full multi-window experiment runs in
seconds of Python time; the *shape* of every per-window series is
unaffected because all per-window quantities are relative (sums are
compared to estimated sums, sample counts to target counts).  Benchmarks
that need absolute throughput use ``rate_scale=1.0`` over short spans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import SchemaError, StreamError
from repro.streams.generators import (
    BurstyRateProcess,
    FlowModel,
    PacketLengthModel,
    RateProcess,
    SteadyRateProcess,
    randbelow,
)
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA, StreamSchema

_new = object.__new__


@dataclass(frozen=True)
class TraceConfig:
    """Parameters shared by all feed constructors.

    ``duration_seconds`` is trace length in stream time; ``rate_scale``
    multiplies the per-second packet rate (use < 1 to shrink experiments
    while preserving relative shapes); ``seed`` makes the trace
    reproducible.
    """

    duration_seconds: int = 300
    rate_scale: float = 0.01
    seed: int = 20050614  # SIGMOD 2005 opening day
    start_time: int = 0

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise StreamError("duration_seconds must be positive")
        if self.rate_scale <= 0:
            raise StreamError("rate_scale must be positive")


def _generate(
    config: TraceConfig,
    rate_process: RateProcess,
    lengths: PacketLengthModel,
    flows: FlowModel,
    schema: StreamSchema = TCP_SCHEMA,
) -> Iterator[Record]:
    """Yield records second by second according to the rate process."""
    if len(schema) != 8:  # each record is built through the slots: arity checked once
        raise SchemaError(f"a packet has 8 values; schema {schema.name!r} has {len(schema)}")
    rng = random.Random(config.seed)
    flow_key, length, getrandbits = flows.bind(rng), lengths.bind(rng), rng.getrandbits
    uts = 0
    for second in range(config.duration_seconds):
        now = config.start_time + second
        rate = rate_process.rate_at(second, rng)
        for _ in range(max(1, int(rate * config.rate_scale))):
            src, dst, sport, dport, proto = flow_key()
            gap = getrandbits(10)  # randbelow(1000), inline
            while gap >= 1000:
                gap = getrandbits(10)
            uts += 1 + gap  # strictly increasing, gappy
            record = _new(Record)
            record.schema, record.values = schema, (
                now, uts, src, dst, length(), sport, dport, proto
            )
            yield record


def research_center_feed(config: Optional[TraceConfig] = None) -> Iterator[Record]:
    """The highly variable research-center feed (5k–15 kpps before scaling).

    High variability is the point: the accuracy experiments (Figs 2–4) rely
    on sharp inter-window load changes to expose the non-relaxed dynamic
    subset-sum's under-sampling.
    """
    config = config or TraceConfig()
    rate = BurstyRateProcess(low_rate=5_000, high_rate=15_000, mean_regime_seconds=25.0)
    return _generate(config, rate, PacketLengthModel(), FlowModel())


def data_center_feed(config: Optional[TraceConfig] = None) -> Iterator[Record]:
    """The steady data-center feed (100 kpps before scaling).

    Low variability makes performance measurements consistent (paper §7),
    so this feed backs the CPU-usage figures (Figs 5–6).
    """
    config = config or TraceConfig(duration_seconds=120)
    rate = SteadyRateProcess(mean_rate=100_000, jitter=0.03)
    flows = FlowModel(continue_probability=0.9, max_live_flows=50_000)
    return _generate(config, rate, PacketLengthModel(), flows)


def ddos_feed(
    config: Optional[TraceConfig] = None,
    attack_start: int = 60,
    attack_duration: int = 60,
    attack_rate_multiplier: float = 8.0,
) -> Iterator[Record]:
    """A feed with a DDoS phase: a storm of tiny single-packet flows.

    Paper §8 motivates the integrated flow-aggregation + sampling query
    with exactly this scenario: "a large number of small flows consisting
    of only a few packets (e.g. during DDOS attacks)" exhausts the group
    table of a naive flow-aggregation query.
    """
    config = config or TraceConfig(duration_seconds=180)
    if attack_start < 0 or attack_duration <= 0:
        raise StreamError("attack window must be non-empty and non-negative")
    rng = random.Random(config.seed ^ 0xDD05)
    random_, getrandbits = rng.random, rng.getrandbits
    length = PacketLengthModel().bind(rng)
    attack_length = PacketLengthModel(weights=(0.95, 0.04, 0.01)).bind(rng)
    flows = FlowModel()
    flow_key, victim = flows.bind(rng), flows.destinations.address_of(0)
    base_rate = SteadyRateProcess(mean_rate=10_000, jitter=0.1)
    uts = 0
    for second in range(config.duration_seconds):
        now = config.start_time + second
        in_attack = attack_start <= second < attack_start + attack_duration
        rate = base_rate.rate_at(second, rng)
        if in_attack:
            rate = int(rate * attack_rate_multiplier)
        for _ in range(max(1, int(rate * config.rate_scale))):
            gap = getrandbits(10)  # randbelow(1000), inline
            while gap >= 1000:
                gap = getrandbits(10)
            uts += 1 + gap
            if in_attack and random_() < 0.8:
                # Spoofed sources: each attack packet is its own tiny flow.
                values = (now, uts, getrandbits(32), victim, attack_length(),
                          1024 + randbelow(getrandbits, 64512), 80, 6)
            else:
                src, dst, sport, dport, proto = flow_key()
                values = (now, uts, src, dst, length(), sport, dport, proto)
            record = _new(Record)
            record.schema, record.values = TCP_SCHEMA, values
            yield record


def replay(records: Iterable[Record]) -> Iterator[Record]:
    """Replay a materialised trace (list) as a fresh iterator.

    Experiments that compare several query configurations on *identical*
    input materialise a trace once and replay it per configuration.
    """
    return iter(list(records) if not isinstance(records, list) else records)
