"""Scalar function registry and the built-in Gigascope-style functions.

Queries reference scalar functions by name (``UMAX(sum(len), ssthreshold())``,
``H(destIP)``).  A :class:`FunctionRegistry` maps names to Python callables;
the analyzer classifies a parsed call as scalar when the name is registered
here (and not as an aggregate or stateful function).

The built-ins include the hash family used by min-hash queries.  ``H`` is a
deterministic 32-bit mixer (a Fibonacci/murmur-style finalizer), *not*
Python's randomised ``hash``, so signatures are stable across runs and
processes — a property the min-hash resemblance tests rely on.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Mapping, Sequence

from repro.errors import RegistryError

ScalarFn = Callable[..., Any]


def unknown_function(name: str) -> RegistryError:
    """A scalar function name nothing registered."""
    return RegistryError(f"unknown scalar function {name!r}")


class FunctionRegistry:
    """Name -> callable registry for scalar functions."""

    def __init__(self) -> None:
        self._functions: Dict[str, ScalarFn] = {}
        self._deterministic: Dict[str, bool] = {}

    def register(
        self,
        name: str,
        fn: ScalarFn,
        replace: bool = False,
        deterministic: bool = True,
    ) -> None:
        """Register ``fn`` under ``name``.

        ``deterministic=False`` marks functions whose result can differ
        between calls on equal arguments (clocks, RNGs).  The static
        analyzer uses the flag: such functions are unsafe in GROUP BY
        (rule SA006) and disqualify a WHERE conjunct from prefilter
        pushdown (rule SA102).
        """
        if not replace and name in self._functions:
            raise RegistryError(f"scalar function {name!r} already registered")
        self._functions[name] = fn
        self._deterministic[name] = deterministic

    def is_deterministic(self, name: str) -> bool:
        """Whether ``name`` was registered as deterministic (default True)."""
        return self._deterministic.get(name, True)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def get(self, name: str) -> ScalarFn:
        try:
            return self._functions[name]
        except KeyError:
            raise unknown_function(name) from None

    @property
    def functions(self) -> Mapping[str, ScalarFn]:
        """The name -> callable mapping itself, not a copy: compiled
        clauses look names up here, so a later ``register`` still binds."""
        return self._functions

    def names(self) -> Sequence[str]:
        return sorted(self._functions)

    def copy(self) -> "FunctionRegistry":
        clone = FunctionRegistry()
        clone._functions = dict(self._functions)
        clone._deterministic = dict(self._deterministic)
        return clone


# ---------------------------------------------------------------------------
# Built-in functions
# ---------------------------------------------------------------------------

_HASH_MULTIPLIER = 0x9E3779B1  # 2^32 / golden ratio, odd
_MASK32 = 0xFFFFFFFF


def hash32(value: int, seed: int = 0) -> int:
    """Deterministic 32-bit hash of an integer (murmur-style finalizer).

    Distinct seeds give (approximately) independent hash functions, which
    is how min-hash signatures get their n hash functions.
    """
    h = (int(value) ^ (seed * 0x85EBCA6B)) & _MASK32
    h = (h * _HASH_MULTIPLIER) & _MASK32
    h ^= h >> 15
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def hash_to_unit(value: int, seed: int = 0) -> float:
    """Hash an integer to the unit interval [0, 1)."""
    return hash32(value, seed) / 4294967296.0


def _umax(a: Any, b: Any) -> Any:
    """Paper §6.1: returns the maximum of the two values."""
    return a if a >= b else b


def _umin(a: Any, b: Any) -> Any:
    return a if a <= b else b


def _ip_str(addr: int) -> str:
    """Render a 32-bit address in dotted-quad form (debug/report output)."""
    addr = int(addr) & _MASK32
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def default_function_registry() -> FunctionRegistry:
    """Registry with the built-ins every query can use."""
    registry = FunctionRegistry()
    registry.register("UMAX", _umax)
    registry.register("UMIN", _umin)
    registry.register("H", hash32)
    registry.register("HU", hash_to_unit)
    registry.register("abs", abs)
    registry.register("sqrt", math.sqrt)
    registry.register("floor", lambda x: math.floor(x))
    registry.register("ceil", lambda x: math.ceil(x))
    registry.register("ip_str", _ip_str)
    return registry
