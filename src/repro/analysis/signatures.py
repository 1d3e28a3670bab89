"""Type and arity metadata for the functions a query can call.

The runtime registries (:mod:`repro.dsms.functions`,
:mod:`repro.dsms.aggregates`, :mod:`repro.dsms.stateful`,
:mod:`repro.core.superaggregates`) map names to Python callables and give
the analyzer nothing to reason with statically.  This module recovers
signatures two ways:

* a hand-written table for the built-ins (exact types the paper's queries
  depend on — ``H`` is a 32-bit hash, ``HU`` lands in the unit interval);
* :mod:`inspect` introspection for user-registered callables: positional
  parameter counts become arity bounds, and ``bool``/``int``/``float``/
  ``str`` return annotations become return types (SFUN packs annotate
  their returns, so ``ssample``'s ``-> bool`` is visible to type
  inference without any registration changes).

Anything unrecoverable degrades to :attr:`GType.UNKNOWN` / unchecked
arity rather than a false positive.
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from repro.dsms.functions import FunctionRegistry
from repro.dsms.stateful import StatefulLibrary


class GType(enum.Enum):
    """The GSQL value types (mirrors ``schema.VALID_TYPES`` plus UNKNOWN)."""

    INT = "int"
    UINT = "uint"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value

    @property
    def is_numeric(self) -> bool:
        return self in (GType.INT, GType.UINT, GType.FLOAT)

    @property
    def is_known(self) -> bool:
        return self is not GType.UNKNOWN


def from_type_tag(tag: str) -> GType:
    """Map a schema ``type_tag`` to a :class:`GType`."""
    try:
        return GType(tag)
    except ValueError:
        return GType.UNKNOWN


_ANNOTATION_TYPES: Dict[Any, GType] = {
    bool: GType.BOOL, "bool": GType.BOOL,
    int: GType.INT, "int": GType.INT,
    float: GType.FLOAT, "float": GType.FLOAT,
    str: GType.STR, "str": GType.STR,
}


def numeric_join(a: GType, b: GType) -> GType:
    """Result type of arithmetic between two numeric operands.

    FLOAT absorbs everything, INT absorbs UINT (subtraction can go
    negative), UNKNOWN is contagious.
    """
    if not (a.is_known and b.is_known):
        return GType.UNKNOWN
    if GType.FLOAT in (a, b):
        return GType.FLOAT
    if GType.INT in (a, b):
        return GType.INT
    return GType.UINT


@dataclass(frozen=True)
class Arity:
    """Allowed positional argument counts; ``max_args=None`` = unbounded."""

    min_args: int
    max_args: Optional[int]

    def accepts(self, count: int) -> bool:
        if count < self.min_args:
            return False
        return self.max_args is None or count <= self.max_args

    def __str__(self) -> str:
        if self.max_args is None:
            return f"{self.min_args}+"
        if self.min_args == self.max_args:
            return str(self.min_args)
        return f"{self.min_args}..{self.max_args}"


#: Return-type rule: receives the inferred argument types.
ReturnRule = Callable[[Sequence[GType]], GType]


def _const(gtype: GType) -> ReturnRule:
    return lambda args: gtype


def _arg0_or(default: GType) -> ReturnRule:
    return lambda args: args[0] if args and args[0].is_known else default


def _join_args(args: Sequence[GType]) -> GType:
    if not args:
        return GType.UNKNOWN
    result = args[0]
    for arg in args[1:]:
        result = numeric_join(result, arg)
    return result


@dataclass(frozen=True)
class Signature:
    """Arity bounds plus a return-type rule for one callable."""

    arity: Optional[Arity]  # None = unchecked
    returns: ReturnRule


#: Built-in scalar functions (see ``default_function_registry``).
_BUILTIN_SCALARS: Dict[str, Signature] = {
    "UMAX": Signature(Arity(2, 2), _join_args),
    "UMIN": Signature(Arity(2, 2), _join_args),
    "H": Signature(Arity(1, 2), _const(GType.UINT)),
    "HU": Signature(Arity(1, 2), _const(GType.FLOAT)),
    "abs": Signature(Arity(1, 1), _arg0_or(GType.UNKNOWN)),
    "sqrt": Signature(Arity(1, 1), _const(GType.FLOAT)),
    "floor": Signature(Arity(1, 1), _const(GType.INT)),
    "ceil": Signature(Arity(1, 1), _const(GType.INT)),
    "ip_str": Signature(Arity(1, 1), _const(GType.STR)),
}

#: Built-in group aggregates (see ``default_aggregate_registry``).
_BUILTIN_AGGREGATES: Dict[str, Signature] = {
    "sum": Signature(Arity(1, 1), _arg0_or(GType.UNKNOWN)),
    "count": Signature(Arity(1, 1), _const(GType.INT)),
    "min": Signature(Arity(1, 1), _arg0_or(GType.UNKNOWN)),
    "max": Signature(Arity(1, 1), _arg0_or(GType.UNKNOWN)),
    "avg": Signature(Arity(1, 1), _const(GType.FLOAT)),
    "count_distinct": Signature(Arity(1, 1), _const(GType.INT)),
    "first": Signature(Arity(1, 1), _arg0_or(GType.UNKNOWN)),
    "last": Signature(Arity(1, 1), _arg0_or(GType.UNKNOWN)),
}

#: Built-in superaggregates (see ``default_superaggregate_registry``).
#: Kth_smallest_value$ reports +inf while under-populated, hence FLOAT.
_BUILTIN_SUPERAGGREGATES: Dict[str, Signature] = {
    "count_distinct": Signature(Arity(0, 1), _const(GType.INT)),
    "Kth_smallest_value": Signature(Arity(2, 2), _const(GType.FLOAT)),
    "sum": Signature(Arity(1, 1), lambda args: numeric_join(
        args[0] if args else GType.UNKNOWN, GType.UINT)),
    "count": Signature(Arity(0, 1), _const(GType.INT)),
}

_UNCHECKED = Signature(None, _const(GType.UNKNOWN))


def _callable_arity(fn: Callable[..., Any], skip_first: bool = False) -> Optional[Arity]:
    """Positional arity bounds of ``fn``, or None when uninspectable."""
    try:
        parameters = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    if skip_first:
        if not parameters:
            return None
        parameters = parameters[1:]
    min_args = 0
    max_args: Optional[int] = 0
    for param in parameters:
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            if max_args is not None:
                max_args += 1
            if param.default is inspect.Parameter.empty:
                min_args += 1
        elif param.kind is inspect.Parameter.VAR_POSITIONAL:
            max_args = None
        elif (
            param.kind is inspect.Parameter.KEYWORD_ONLY
            and param.default is inspect.Parameter.empty
        ):
            # Not callable with positional query arguments; don't guess.
            return None
    return Arity(min_args, max_args)


def _callable_return(fn: Callable[..., Any]) -> ReturnRule:
    try:
        annotation = inspect.signature(fn).return_annotation
    except (TypeError, ValueError):
        return _const(GType.UNKNOWN)
    return _const(_ANNOTATION_TYPES.get(annotation, GType.UNKNOWN))


def scalar_signature(registry: FunctionRegistry, name: str) -> Signature:
    """Signature of a registered scalar function."""
    if name in _BUILTIN_SCALARS:
        return _BUILTIN_SCALARS[name]
    if name not in registry:
        return _UNCHECKED
    fn = registry.get(name)
    return Signature(_callable_arity(fn), _callable_return(fn))


def aggregate_signature(name: str) -> Signature:
    """Signature of a group aggregate (unknown UDAFs are unchecked)."""
    return _BUILTIN_AGGREGATES.get(name, Signature(Arity(1, 1), _const(GType.UNKNOWN)))


def superaggregate_signature(name: str) -> Signature:
    """Signature of a superaggregate (called as ``name$``)."""
    return _BUILTIN_SUPERAGGREGATES.get(name, _UNCHECKED)


def stateful_signature(library: StatefulLibrary, name: str) -> Signature:
    """Signature of an SFUN; the implicit state parameter is skipped."""
    if name not in library:
        return _UNCHECKED
    fn = library.callable_of(name)
    return Signature(_callable_arity(fn, skip_first=True), _callable_return(fn))


# ---------------------------------------------------------------------------
# Sampling profiles (used by repro.analysis.sampling_algebra, rules SA2xx)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerProfile:
    """Statistical profile of one sampling SFUN family.

    The sampling-algebra pass (GUS formalism of Nirkhiwale–Dobra–Jermaine)
    propagates these through the plan:

    ``family``
        The sampler family; chaining two *different* families in one
        admission predicate breaks exchangeability (rule SA203).
    ``scheme``
        How inclusion probabilities behave:

        * ``"uniform"`` — every tuple has the same inclusion probability
          (reservoir); linear estimators scale by a single known factor.
        * ``"weighted"`` — inclusion probability depends on a tuple
          *measure* (subset-sum priority sampling); unbiased linear
          estimates need the Horvitz–Thompson correction the pack
          exports (``corrections``).
        * ``"keyed"`` — inclusion is a function of a (hashed) key column
          (distinct sampling, min-hash); per-key membership is
          all-or-nothing, so keyed grouping stays sound while
          cross-key totals need the exported level/threshold.
    ``admits``
        True when calling the SFUN *is* the admission decision (WHERE
        samplers); False for read-only companions (``ssthreshold``,
        ``dslevel``) that report state without sampling.
    ``condition_args``
        Indices of call arguments whose value the inclusion decision
        conditions on (``ssample(len, n)`` conditions on arg 0).  Rule
        SA204 flags grouping on a conditioned column under a non-keyed
        scheme.
    ``corrections``
        Names of companion functions that export the estimator
        correction (threshold / sampling level); a SELECT list carrying
        one of these is considered Horvitz–Thompson-corrected (SA202).
    """

    family: str
    scheme: str  # "uniform" | "weighted" | "keyed"
    admits: bool = True
    condition_args: Tuple[int, ...] = ()
    corrections: FrozenSet[str] = frozenset()


#: Profiles for the SFUN packs this repository ships (paper §6.6).  An
#: SFUN missing from this table is treated as non-sampling: user packs
#: opt in by registering a profile with :func:`register_sampler_profile`.
SAMPLER_PROFILES: Dict[str, SamplerProfile] = {
    # Dynamic subset-sum sampling (paper §6.1): P[admit] ∝ measure/z.
    "ssample": SamplerProfile(
        "subset_sum", "weighted", True, (0,), frozenset({"ssthreshold"})
    ),
    "ssthreshold": SamplerProfile(
        "subset_sum", "weighted", False, (), frozenset({"ssthreshold"})
    ),
    # Fixed-threshold subset-sum (basic): same weighting, no exported
    # threshold reader — estimates cannot be corrected downstream.
    "ssbasic": SamplerProfile("subset_sum_basic", "weighted", True, (0,)),
    # Reservoir sampling: uniform over the window's tuples.
    "rsample": SamplerProfile("reservoir", "uniform", True, ()),
    # Distinct sampling (Gibbons): inclusion keyed on the unit hash of
    # the group key; ``dslevel`` exports the scaling level.
    "dsample": SamplerProfile(
        "distinct", "keyed", True, (0,), frozenset({"dslevel"})
    ),
    "dslevel": SamplerProfile(
        "distinct", "keyed", False, (), frozenset({"dslevel"})
    ),
}


def register_sampler_profile(name: str, profile: SamplerProfile) -> None:
    """Register the sampling profile of a user SFUN (idempotent update)."""
    SAMPLER_PROFILES[name] = profile


def sampler_profile(name: str) -> Optional[SamplerProfile]:
    """The sampling profile of an SFUN, or None when it is not a sampler."""
    return SAMPLER_PROFILES.get(name)
