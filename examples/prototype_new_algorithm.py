#!/usr/bin/env python
"""Prototype a *new* sampling algorithm inside the operator — the pitch.

The paper's central argument (§1): hard-coding each sampling algorithm
into the DSMS kernel "is cumbersome and does not promote
experimentation"; with the generic sampling operator, "the functions
which support the streaming algorithm ... can be written by the
algorithmic expert, following a simple API."

This example is that pitch, executed: *sticky sampling* (Manku–Motwani's
probabilistic frequency sketch — not one of the paper's four showcased
algorithms) is bound into the operator right here, in ~40 lines of SFUN
definitions, and checked against the exact per-source counts.

Run:  python examples/prototype_new_algorithm.py
"""

import random
from collections import Counter

from repro import Gigascope, TCP_SCHEMA, TraceConfig, research_center_feed
from repro.dsms.stateful import StatefulLibrary, StatefulState
from repro.dsms.functions import _ip_str as ip_str

SUPPORT = 0.03
EPSILON = 0.006
WINDOW = 60


def sticky_library() -> StatefulLibrary:
    """Sticky sampling as an SFUN pack: written like §6.2's API."""
    import math

    library = StatefulLibrary()
    t = int(math.ceil((1.0 / EPSILON) * math.log(1.0 / (SUPPORT * 0.01))))

    @library.state("sticky_state")
    class StickyState(StatefulState):
        def __init__(self):
            self.count = 0
            self.rate = 1
            self.members = set()  # elements currently held ("sticky")
            self.rng = random.Random(0x571C)

    @library.sfun("sticky_admit", state="sticky_state")
    def sticky_admit(state, element):
        # WHERE: held elements always update their counts (the "hold");
        # new elements enter with probability 1/rate (the "sample").
        state.count += 1
        if element in state.members:
            return True
        if state.rate == 1 or state.rng.random() < 1.0 / state.rate:
            state.members.add(element)
            return True
        return False

    @library.sfun("sticky_trigger", state="sticky_state")
    def sticky_trigger(state):
        # CLEANING WHEN: the epoch boundary (2*t*rate arrivals) passed.
        if state.count > 2 * t * state.rate:
            state.rate *= 2
            return True
        return False

    @library.sfun("sticky_reflip", state="sticky_state")
    def sticky_reflip(state, element, count):
        # CLEANING BY: Manku-Motwani re-flip — diminish the count by a
        # geometric number of failed tosses, evict at zero.  The group's
        # aggregate cannot be mutated from here, so eviction happens with
        # the geometric tail probability P(count tails) = 2^-count;
        # survivors keep full counts (a slight over-estimate that only
        # strengthens the no-false-negative guarantee).
        keep = state.rng.random() >= 0.5 ** count
        if not keep:
            state.members.discard(element)
        return keep

    return library


STICKY_QUERY = f"""
SELECT tb, srcIP, count(*)
FROM TCP
WHERE sticky_admit(srcIP) = TRUE
GROUP BY time/{WINDOW} as tb, srcIP
CLEANING WHEN sticky_trigger() = TRUE
CLEANING BY sticky_reflip(srcIP, count(*)) = TRUE
"""


def main() -> None:
    config = TraceConfig(duration_seconds=60, rate_scale=0.05, seed=41)
    trace = list(research_center_feed(config))
    truth = Counter(r["srcIP"] for r in trace)
    n = len(trace)

    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(sticky_library())
    print("Prototyped query:")
    print(STICKY_QUERY)
    handle = gs.add_query(STICKY_QUERY, name="sticky")
    gs.run(iter(trace))

    reported = {
        row["srcIP"]: row[2]
        for row in handle.results
        if row[2] >= (SUPPORT - EPSILON) * n
    }
    print(f"Operator-hosted sticky sampling: {len(reported)} heavy sources")
    for src, estimate in sorted(reported.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  {ip_str(src):>15}  est={estimate:<6} true={truth[src]}")

    missed = [
        src for src, count in truth.items()
        if count >= SUPPORT * n and src not in reported
    ]
    print(f"True heavy sources missed: {len(missed)} (guarantee: 0, whp)")
    # A group counts only the packets admitted to it: no reported count
    # exceeds the exact one.
    assert all(estimate <= truth[src] for src, estimate in reported.items())


if __name__ == "__main__":
    main()
