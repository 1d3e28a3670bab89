"""SFUN packs: the stateful-function families of the §6.6 example queries.

Each ``*_library`` factory returns a fresh
:class:`~repro.dsms.stateful.StatefulLibrary` whose state classes close
over the pack's configuration (γ, relaxation factor, tolerance, seeds...),
exactly as the paper's C implementations close over compiled-in constants.
Merge a pack into a :class:`~repro.dsms.runtime.Gigascope` with
``gs.use_stateful_library(...)`` and the corresponding query template
below runs unmodified.

Cleaning-pass protocol: the sampling operator calls ``*do_clean`` once
(the trigger), then ``*clean_with`` once per group of the supergroup.
The states exploit that contract: the trigger snapshots the live
population, and the per-group calls run a *sequential* subsampling walk
(credit-based for subset-sum, selection-sampling for reservoir) that
completes exactly when every group has been visited.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.dsms.stateful import StatefulLibrary, StatefulState
from repro.errors import ReproError
from repro.algorithms.subset_sum import adjust_threshold, solve_threshold


# ---------------------------------------------------------------------------
# Subset-sum sampling (paper §6.1, §6.5)
# ---------------------------------------------------------------------------


def subset_sum_library(
    z_init: float = 1.0,
    gamma: float = 2.0,
    relax_factor: float = 1.0,
    adjust_at_close: bool = True,
    adjustment: str = "solve",
) -> StatefulLibrary:
    """SFUNs ``ssample``/``ssdo_clean``/``ssclean_with``/``ssfinal_clean``/
    ``ssthreshold`` sharing ``subsetsum_sampling_state``.

    ``relax_factor=1`` is the non-relaxed dynamic algorithm; the paper's
    relaxed fix uses ``relax_factor=10`` (§7.1).  ``adjust_at_close``
    reproduces the end-of-window threshold re-estimation whose interaction
    with output-time ``ssthreshold()`` evaluation causes the non-relaxed
    under-estimation (see DESIGN.md §4); disable it to ablate.
    ``adjustment`` picks the cleaning-phase re-threshold rule: "solve"
    (exact, the paper's stated goal) or "aggressive" (the paper's
    closed-form rule, which can overshoot when B ≈ M — see
    :func:`repro.algorithms.subset_sum.solve_threshold`).
    """
    if z_init <= 0:
        raise ReproError("z_init must be positive")
    if gamma <= 1.0:
        raise ReproError("gamma must exceed 1 (cleaning needs headroom)")
    if relax_factor < 1.0:
        raise ReproError("relax_factor must be >= 1 (1 = non-relaxed)")
    if adjustment not in ("solve", "aggressive"):
        raise ReproError("adjustment must be 'solve' or 'aggressive'")
    library = StatefulLibrary()
    state_name = "subsetsum_sampling_state"

    @library.state(state_name)
    class SubsetSumState(StatefulState):
        """Threshold, credit counter, and live-sample bookkeeping."""

        __slots__ = (
            "z", "z_prev", "target", "credit", "admitted", "cleanings", "sizes",
            "_expected", "_visited", "_survivors", "_clean_credit", "_final_active",
        )

        def __init__(self, z: float = z_init) -> None:
            self.z = z
            self.z_prev = z
            self.target: Optional[int] = None
            self.credit = 0.0
            self.admitted = 0
            self.cleanings = 0
            #: Measures of currently live samples (one group per sample in
            #: the subset-sum query, thanks to the uts grouping).
            self.sizes: List[float] = []
            # cleaning-pass walk state
            self._expected = 0
            self._visited = 0
            self._survivors: Optional[List[float]] = None
            self._clean_credit = 0.0
            self._final_active = False

        @classmethod
        def initial(cls, old: Optional[StatefulState]) -> "SubsetSumState":
            if old is None:
                return cls()
            assert isinstance(old, SubsetSumState)
            # Window carryover: non-relaxed carries the adapted threshold;
            # relaxed assumes next-window load may be 1/f of the current.
            state = cls(max(old.z / relax_factor, 1e-9))
            state.target = old.target
            return state

        # -- helpers ---------------------------------------------------------

        def big_count(self) -> int:
            z = self.z
            return sum(1 for size in self.sizes if size > z)

        def rethreshold(self, live: int, goal: int) -> float:
            """New (never lower) threshold for a cleaning pass."""
            if adjustment == "solve":
                # max()'s rule, inline: the first of a tie stays
                z = self.z
                weights = [z if z > size else size for size in self.sizes]
                solved = solve_threshold(weights, goal)
                return z if z > solved else solved
            return adjust_threshold(self.z, live, goal, self.big_count())

        def start_pass(self) -> None:
            self._expected = len(self.sizes)
            self._visited = 0
            self._survivors = []
            self._clean_credit = 0.0

        def walk(self, measure: float) -> bool:
            """Per-group resample under the adjusted threshold (keep = TRUE)."""
            self._visited += 1
            z_prev = self.z_prev  # max(measure, z_prev), inline
            weight = z_prev if z_prev > measure else measure
            keep = False
            if weight > self.z:
                keep = True
            else:
                self._clean_credit += weight
                if self._clean_credit > self.z:
                    self._clean_credit -= self.z
                    keep = True
            if keep and self._survivors is not None:
                self._survivors.append(measure)
            if self._visited >= self._expected and self._survivors is not None:
                self.sizes = self._survivors
                self._survivors = None
            return keep

        def on_window_final(self) -> None:
            if self.target is None:
                return
            live = len(self.sizes)
            if live > self.target:
                # Final subsample: adjust z and resample via ssfinal_clean.
                self.z_prev = self.z
                self.z = self.rethreshold(live, self.target)
                self.start_pass()
                self._final_active = True
            else:
                self._final_active = False
                if adjust_at_close and live < self.target:
                    # Re-estimate z for the anticipated next window *before*
                    # output (ssthreshold() is evaluated last — paper §6.4).
                    self.z_prev = self.z
                    self.z = adjust_threshold(
                        self.z, live, self.target, self.big_count()
                    )

    @library.sfun("ssample", state=state_name)
    def ssample(state: SubsetSumState, measure: float, target: int) -> bool:
        """Basic subset-sum admission with the current threshold."""
        if state.target is None:
            state.target = int(target)
        admitted = False
        if measure > state.z:
            admitted = True
        else:
            state.credit += measure
            if state.credit > state.z:
                state.credit -= state.z
                admitted = True
        if admitted:
            state.sizes.append(measure)
            state.admitted += 1
        return admitted

    @library.sfun("ssdo_clean", state=state_name)
    def ssdo_clean(state: SubsetSumState, live_groups: int) -> bool:
        """Trigger a cleaning phase when the live sample exceeds γ·N."""
        if state.target is None or live_groups <= gamma * state.target:
            return False
        state.z_prev = state.z
        state.z = state.rethreshold(live_groups, state.target)
        state.cleanings += 1
        state.start_pass()
        return True

    library.add_sfun("ssclean_with", state_name, SubsetSumState.walk)

    @library.sfun("ssfinal_clean", state=state_name)
    def ssfinal_clean(state: SubsetSumState, measure: float, live_groups: int) -> bool:
        """HAVING-time final subsample down to the target size."""
        if not state._final_active:
            return True
        return state.walk(measure)

    @library.sfun("ssthreshold", state=state_name, reader=True)
    def ssthreshold(state: SubsetSumState) -> float:
        """The current threshold: each sample's adjusted weight floor."""
        return state.z

    return library


#: The paper's dynamic subset-sum query (§6.1), parameterised by window
#: length (seconds) and target sample count.
SUBSET_SUM_QUERY = """
SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
FROM TCP
WHERE ssample(len, {target}) = TRUE
GROUP BY time/{window} as tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE
"""


def subset_sum_query(window: int = 20, target: int = 1000, stream: str = "TCP") -> str:
    """The §6.1 dynamic subset-sum query against an arbitrary stream.

    ``stream`` may be a raw source or the name of a low-level prefilter
    query (the Fig 6 configuration).
    """
    return SUBSET_SUM_QUERY.format(window=window, target=target).replace(
        "FROM TCP", f"FROM {stream}"
    )


# ---------------------------------------------------------------------------
# Basic subset-sum sampling as a selection UDF (paper §7.2 baseline, Fig 6
# low-level prefilter)
# ---------------------------------------------------------------------------


def basic_subset_sum_library() -> StatefulLibrary:
    """A single SFUN ``ssbasic(x, z)`` running fixed-threshold subset-sum
    sampling inside a (stateful) selection operator.

    This is the paper's comparison point in Fig 5 ("basic subset-sum
    sampling using a user-defined function in a selection operator") and,
    with ``z`` set to a tenth of the dynamic query's threshold, the
    low-level prefilter of Fig 6.
    """
    library = StatefulLibrary()
    state_name = "basic_subsetsum_state"

    @library.state(state_name)
    class BasicState(StatefulState):
        __slots__ = ("credit", "sampled", "offered")

        def __init__(self) -> None:
            self.credit = 0.0
            self.sampled = 0
            self.offered = 0

    @library.sfun("ssbasic", state=state_name)
    def ssbasic(state: BasicState, measure: float, z: float) -> bool:
        state.offered += 1
        if measure > z:
            state.sampled += 1
            return True
        state.credit += measure
        if state.credit > z:
            state.credit -= z
            state.sampled += 1
            return True
        return False

    return library


#: Basic subset-sum sampling as a plain selection (paper §7.2 baseline).
BASIC_SUBSET_SUM_QUERY = """
SELECT time, uts, srcIP, destIP, len, srcPort, destPort, protocol
FROM TCP
WHERE ssbasic(len, {z}) = TRUE
"""


#: Low-level basic-subset-sum prefilter (Fig 6): forwards sampled packets
#: with their lengths floored to the prefilter threshold, so a dynamic
#: subset-sum query stacked on top keeps an unbiased estimator (the
#: composed inclusion probability is min(1, len/z_dynamic)).
PREFILTER_QUERY = """
SELECT time, uts, srcIP, destIP, UMAX(len, {z}) as len,
       srcPort, destPort, protocol
FROM TCP
WHERE ssbasic(len, {z}) = TRUE
"""


# ---------------------------------------------------------------------------
# Reservoir sampling (paper §4.1, §6.6)
# ---------------------------------------------------------------------------


def reservoir_library(
    tolerance: int = 20,
    seed: int = 0xA5A5,
) -> StatefulLibrary:
    """SFUNs ``rsample``/``rsdo_clean``/``rsclean_with``/``rsfinal_clean``.

    Admission uses Vitter's skip generation (each record admitted with
    marginal probability n/t).  A cleaning pass *replays* the buffered
    candidates as the deferred reservoir replacements Algorithm X would
    have performed eagerly — candidate i > n overwrites a uniformly
    random slot — so the surviving n groups are an exactly uniform
    reservoir sample.  The operator visits groups in insertion (arrival)
    order, which is what makes the replay valid.  ``tolerance`` is the
    paper's T (10 < T < 40): it trades buffer memory against cleaning
    frequency, and must exceed 1.
    """
    if tolerance <= 1:
        raise ReproError("tolerance T must exceed 1 (paper: 10 < T < 40)")
    library = StatefulLibrary()
    state_name = "reservoir_sampling_state"

    @library.state(state_name)
    class ReservoirState(StatefulState):
        __slots__ = (
            "n", "t", "skip", "candidates", "cleanings", "rng",
            "_keep_indices", "_visit", "_final_active",
        )

        def __init__(self) -> None:
            self.n: Optional[int] = None
            self.t = 0
            self.skip = 0
            self.candidates = 0
            self.cleanings = 0
            self.rng = random.Random(seed)
            # replay-walk state
            self._keep_indices: set = set()
            self._visit = 0
            self._final_active = False

        def draw_skip(self) -> int:
            """Sequential-search skip draw (Vitter's Algorithm X)."""
            assert self.n is not None
            t, n = self.t, self.n
            u = self.rng.random()
            s = 0
            quotient = 1.0
            numerator = t - n + 1
            denominator = t + 1
            while True:
                quotient *= numerator / denominator
                if quotient <= u:
                    return s
                s += 1
                numerator += 1
                denominator += 1

        def start_pass(self, keep: int) -> None:
            """Precompute which arrival indices survive the replay."""
            total = self.candidates
            keep = min(keep, total)
            slots = list(range(keep))
            for index in range(keep, total):
                slots[self.rng.randrange(keep)] = index
            self._keep_indices = set(slots)
            self._visit = 0

        def walk(self) -> bool:
            keep = self._visit in self._keep_indices
            self._visit += 1
            if not keep:
                self.candidates -= 1
            return keep

        def on_window_final(self) -> None:
            if self.n is not None and self.candidates > self.n:
                self.start_pass(self.n)
                self._final_active = True
            else:
                self._final_active = False
            # Windows are independent for reservoir sampling.
            self.t = 0
            self.skip = 0

    @library.sfun("rsample", state=state_name, least=(1,))
    def rsample(state: ReservoirState, n: int) -> bool:
        if state.n is None:
            # draw_skip never ends for n < 1: refuse once per state.
            if int(n) < 1:
                raise ReproError("reservoir size n must be positive")
            state.n = int(n)
        state.t += 1
        if state.t <= state.n:
            state.candidates += 1
            if state.t == state.n:
                state.skip = state.draw_skip()
            return True
        if state.skip > 0:
            state.skip -= 1
            return False
        state.candidates += 1
        state.skip = state.draw_skip()
        return True

    @library.sfun("rsdo_clean", state=state_name)
    def rsdo_clean(state: ReservoirState, live_groups: int) -> bool:
        if state.n is None or live_groups <= tolerance * state.n:
            return False
        state.cleanings += 1
        state.candidates = live_groups
        state.start_pass(state.n)
        return True

    @library.sfun("rsclean_with", state=state_name)
    def rsclean_with(state: ReservoirState) -> bool:
        return state.walk()

    @library.sfun("rsfinal_clean", state=state_name)
    def rsfinal_clean(state: ReservoirState) -> bool:
        if not state._final_active:
            return True
        return state.walk()

    return library


#: The paper's reservoir query (§6.6): {target} random samples per window.
RESERVOIR_QUERY = """
SELECT tb, srcIP, destIP
FROM TCP
WHERE rsample({target}) = TRUE
GROUP BY time/{window} as tb, srcIP, destIP, uts
HAVING rsfinal_clean() = TRUE
CLEANING WHEN rsdo_clean(count_distinct$()) = TRUE
CLEANING BY rsclean_with() = TRUE
"""


# ---------------------------------------------------------------------------
# Heavy hitters (paper §4.2, §6.6)
# ---------------------------------------------------------------------------


def heavy_hitters_library(
    bucket_width: int = 100,
) -> StatefulLibrary:
    """SFUNs ``local_count`` and ``current_bucket`` for the Manku–Motwani
    query.  ``local_count(N)`` counts tuples and fires every N-th call;
    ``current_bucket()`` reads the current bucket id without counting."""
    if bucket_width < 1:
        raise ReproError("bucket_width must be at least 1")
    library = StatefulLibrary()
    state_name = "heavy_hitters_state"

    @library.state(state_name)
    class HeavyHitterState(StatefulState):
        __slots__ = ("tuples", "width")

        def __init__(self) -> None:
            self.tuples = 0
            self.width = bucket_width

    @library.sfun("local_count", state=state_name, least=(1,))
    def local_count(state: HeavyHitterState, every: int) -> bool:
        state.tuples += 1
        try:
            return state.tuples % (every if type(every) is int else int(every)) == 0
        except ZeroDivisionError:
            raise ReproError(
                f"local_count({every!r}): the bucket width must be at least 1"
            ) from None

    @library.sfun("current_bucket", state=state_name, reader=True)
    def current_bucket(state: HeavyHitterState) -> int:
        return state.tuples // state.width + 1

    return library


#: The paper's heavy-hitters query (§6.6).  Deviation: the paper prints
#: the CLEANING BY comparison as ``<``, which under §5 semantics (FALSE =
#: evict) would evict every frequent group; we use ``>=`` so that frequent
#: groups are the ones kept.  See DESIGN.md §4.
HEAVY_HITTERS_QUERY = """
SELECT tb, srcIP, sum(len), count(*)
FROM TCP
GROUP BY time/{window} as tb, srcIP
CLEANING WHEN local_count({bucket}) = TRUE
CLEANING BY count(*) >= current_bucket() - first(current_bucket())
"""


# ---------------------------------------------------------------------------
# Distinct sampling (Gibbons; the paper's reference [19]) — an extension
# demonstrating the operator hosting one more published algorithm.
# ---------------------------------------------------------------------------


def distinct_sampling_library() -> StatefulLibrary:
    """SFUNs ``dsample``/``dsdo_clean``/``dsclean_with``/``dslevel``.

    Level-based distinct sampling: a value is admitted while its unit-
    interval hash is below ``2^-level``; the cleaning phase increments the
    level and re-applies the threshold to every group.  The group-by list
    must carry the hash as a variable (``HU(srcIP) as HXU``) so CLEANING BY
    can re-test it.
    """
    library = StatefulLibrary()
    state_name = "distinct_sampling_state"

    @library.state(state_name)
    class DistinctState(StatefulState):
        __slots__ = ("level", "cleanings")

        def __init__(self) -> None:
            self.level = 0
            self.cleanings = 0

        @property
        def threshold(self) -> float:
            return 2.0 ** (-self.level)

    @library.sfun("dsample", state=state_name)
    def dsample(state: DistinctState, unit_hash: float) -> bool:
        return unit_hash < state.threshold

    @library.sfun("dsdo_clean", state=state_name)
    def dsdo_clean(state: DistinctState, live_groups: int, capacity: int) -> bool:
        if live_groups <= capacity:
            return False
        state.level += 1
        state.cleanings += 1
        return True

    @library.sfun("dsclean_with", state=state_name)
    def dsclean_with(state: DistinctState, unit_hash: float) -> bool:
        return unit_hash < state.threshold

    @library.sfun("dslevel", state=state_name, reader=True)
    def dslevel(state: DistinctState) -> int:
        return state.level

    return library


def standard_libraries(relax_factor: float = 10.0) -> List[StatefulLibrary]:
    """Every pack above, fresh: what :func:`repro.deploy.deploy` loads
    unless told otherwise (``relax_factor``: the subset-sum pack's)."""
    return [
        subset_sum_library(relax_factor=relax_factor),
        basic_subset_sum_library(),
        reservoir_library(),
        heavy_hitters_library(),
        distinct_sampling_library(),
    ]


#: Distinct sampling as an operator query: a uniform sample of the
#: distinct source addresses per window, with per-value multiplicities
#: (count(*)) and the final level for the 2^level scale-up.
DISTINCT_SAMPLING_QUERY = """
SELECT tb, srcIP, count(*), dslevel()
FROM TCP
WHERE dsample(HXU) = TRUE
GROUP BY time/{window} as tb, srcIP, HU(srcIP) as HXU
CLEANING WHEN dsdo_clean(count_distinct$(*), {capacity}) = TRUE
CLEANING BY dsclean_with(HXU) = TRUE
"""


#: The paper's min-hash query (§6.6): {k} min-hash values of destIP per
#: srcIP per window.  Uses no stateful functions — only the
#: ``Kth_smallest_value$`` and ``count_distinct$`` superaggregates.
MIN_HASH_QUERY = """
SELECT tb, srcIP, HX
FROM TCP
WHERE HX <= Kth_smallest_value$(HX, {k})
GROUP BY time/{window} as tb, srcIP, H(destIP) as HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, {k})
CLEANING WHEN count_distinct$(*) >= {k}
CLEANING BY HX <= Kth_smallest_value$(HX, {k})
"""
