"""Stream sampling algorithms (paper §4) and their operator bindings.

Each sampler the operator hosts has one implementation: its **SFUN pack**
in :mod:`repro.algorithms.bindings` — a
:class:`~repro.dsms.stateful.StatefulLibrary` exposing the stateful
functions (``ssample``, ``rsample``, ``local_count``...) that the §6.6
example queries call, so the algorithm runs inside the generic sampling
operator.  The min-hash query needs no pack: it is superaggregates only.

The rest are the baselines and tools the evaluation compares against:
uniform (:mod:`~repro.algorithms.uniform`) and priority
(:mod:`~repro.algorithms.priority`) sampling, the §8 flow-sampling
contrast (:mod:`~repro.algorithms.flow_sampling`), the estimator kit
(:mod:`~repro.algorithms.estimators`) and the subset-sum re-threshold
rules (:mod:`~repro.algorithms.subset_sum`).
"""

from repro.algorithms.uniform import BernoulliSampler, DropSampler
from repro.algorithms.priority import PrioritySample, PrioritySampler
from repro.algorithms.estimators import (
    EstimatorReport,
    replicate,
    threshold_variance_bound,
    bernoulli_variance,
    subset_sum_variance_gap,
)
from repro.algorithms.subset_sum import adjust_threshold, solve_threshold
from repro.algorithms.flow_sampling import (
    FlowEntry,
    NaiveFlowAggregator,
    SampledFlowAggregator,
    flow_key,
)
from repro.algorithms.bindings import (
    subset_sum_library,
    basic_subset_sum_library,
    reservoir_library,
    heavy_hitters_library,
    distinct_sampling_library,
    subset_sum_query,
    SUBSET_SUM_QUERY,
    BASIC_SUBSET_SUM_QUERY,
    PREFILTER_QUERY,
    RESERVOIR_QUERY,
    HEAVY_HITTERS_QUERY,
    MIN_HASH_QUERY,
    DISTINCT_SAMPLING_QUERY,
)

__all__ = [
    "BernoulliSampler",
    "DropSampler",
    "PrioritySample",
    "PrioritySampler",
    "EstimatorReport",
    "replicate",
    "threshold_variance_bound",
    "bernoulli_variance",
    "subset_sum_variance_gap",
    "adjust_threshold",
    "solve_threshold",
    "FlowEntry",
    "NaiveFlowAggregator",
    "SampledFlowAggregator",
    "flow_key",
    "distinct_sampling_library",
    "DISTINCT_SAMPLING_QUERY",
    "subset_sum_library",
    "basic_subset_sum_library",
    "reservoir_library",
    "heavy_hitters_library",
    "subset_sum_query",
    "SUBSET_SUM_QUERY",
    "BASIC_SUBSET_SUM_QUERY",
    "PREFILTER_QUERY",
    "RESERVOIR_QUERY",
    "HEAVY_HITTERS_QUERY",
    "MIN_HASH_QUERY",
]
