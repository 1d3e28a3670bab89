"""Scalar function registry and built-ins."""

import pytest

from repro.errors import RegistryError
from repro.dsms.functions import (
    FunctionRegistry,
    default_function_registry,
    hash32,
    hash_to_unit,
)


class TestRegistry:
    def test_register_and_call(self):
        registry = FunctionRegistry()
        registry.register("inc", lambda x: x + 1)
        assert registry.functions["inc"](41) == 42
        assert "inc" in registry

    def test_duplicate_rejected(self):
        registry = FunctionRegistry()
        registry.register("f", len)
        with pytest.raises(RegistryError):
            registry.register("f", len)

    def test_replace_allows_override(self):
        registry = FunctionRegistry()
        registry.register("f", lambda: 1)
        registry.register("f", lambda: 2, replace=True)
        assert registry.functions["f"]() == 2

    def test_unknown_raises(self):
        with pytest.raises(RegistryError):
            FunctionRegistry().get("missing")

    def test_copy_is_independent(self):
        registry = FunctionRegistry()
        registry.register("f", len)
        clone = registry.copy()
        clone.register("g", len)
        assert "g" not in registry


class TestHash32:
    def test_deterministic(self):
        assert hash32(12345) == hash32(12345)
        assert hash32(12345, seed=7) == hash32(12345, seed=7)

    def test_seeds_decorrelate(self):
        values = list(range(1000))
        a = [hash32(v, 1) for v in values]
        b = [hash32(v, 2) for v in values]
        matches = sum(1 for x, y in zip(a, b) if x == y)
        assert matches <= 1

    def test_range(self):
        for v in (0, 1, 2**31, 2**32 - 1, 123456789):
            assert 0 <= hash32(v) < 2**32

    def test_spreads_uniformly(self):
        # Bucket 10k consecutive integers into 16 bins; each bin should be
        # within 30% of the expected count.
        bins = [0] * 16
        for v in range(10_000):
            bins[hash32(v) >> 28] += 1
        expected = 10_000 / 16
        assert all(0.7 * expected < b < 1.3 * expected for b in bins)

    def test_hash_to_unit_interval(self):
        values = [hash_to_unit(v) for v in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert abs(sum(values) / len(values) - 0.5) < 0.03


class TestBuiltins:
    def test_default_registry_contents(self):
        registry = default_function_registry()
        for name in ("UMAX", "UMIN", "H", "HU", "abs", "sqrt", "ip_str"):
            assert name in registry

    def test_umax_umin(self):
        registry = default_function_registry()
        assert registry.functions["UMAX"](3, 7) == 7
        assert registry.functions["UMAX"](7.5, 3) == 7.5
        assert registry.functions["UMIN"](3, 7) == 3

    def test_ip_str(self):
        registry = default_function_registry()
        assert registry.functions["ip_str"](0x0A000001) == "10.0.0.1"
        assert registry.functions["ip_str"](0xFFFFFFFF) == "255.255.255.255"

    def test_h_matches_hash32(self):
        registry = default_function_registry()
        assert registry.functions["H"](42) == hash32(42)
