"""Tests for the cache hierarchy model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hardware.cache import CacheHierarchy, CacheLevel
from repro.hardware.memory import MemorySubsystem
from repro.units import KIB, MIB, ns


class TestCacheLevel:
    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheLevel("L1", 32 * KIB, -1.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheLevel("L1", 0, ns(1.0))


class TestCacheHierarchy:
    def test_levels_must_grow(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(
                levels=[
                    CacheLevel("L1", 64 * KIB, ns(1.0)),
                    CacheLevel("L2", 32 * KIB, ns(4.0)),
                ]
            )

    def test_dram_must_be_slowest(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(dram_latency_s=ns(5.0))

    def test_small_buffer_is_l1_latency(self):
        caches = CacheHierarchy()
        assert caches.random_access_latency(16 * KIB) == pytest.approx(
            caches.l1_latency_s
        )

    def test_extra_over_l1_zero_for_l1_resident(self):
        # Figure 6's y-axis comes from the memory model over this hierarchy.
        memory = MemorySubsystem(caches=CacheHierarchy())
        assert memory.extra_latency_over_l1(16 * KIB) == 0.0

    def test_hit_fractions_sum_to_one(self):
        caches = CacheHierarchy()
        for size in (16 * KIB, 256 * KIB, 4 * MIB, 64 * MIB):
            rows = caches.hit_fractions(size)
            assert sum(fraction for _, fraction, _ in rows) == pytest.approx(1.0)

    def test_dram_appears_for_large_buffers(self):
        caches = CacheHierarchy()
        rows = caches.hit_fractions(64 * MIB)
        assert rows[-1][0] == "DRAM"
        assert rows[-1][1] > 0.7

    def test_latency_approaches_dram_for_huge_buffers(self):
        caches = CacheHierarchy()
        latency = caches.random_access_latency(8 * 1024 * MIB)
        assert latency > 0.95 * caches.dram_latency_s

    def test_invalid_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy().random_access_latency(0)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40)
def test_latency_monotonically_nondecreasing_in_buffer_size(exponent):
    """Bigger working sets can never be faster to access randomly."""
    caches = CacheHierarchy()
    smaller = caches.random_access_latency(1 << exponent)
    larger = caches.random_access_latency(1 << (exponent + 1))
    assert larger >= smaller - 1e-15
