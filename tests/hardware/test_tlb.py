"""Tests for the TLB model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hardware.tlb import TlbModel
from repro.units import GIB, MIB


class TestTlbModel:
    def test_l2_must_exceed_l1(self):
        with pytest.raises(ConfigurationError):
            TlbModel(l1_entries=64, l2_entries=64)

    def test_no_overhead_inside_l1_reach(self):
        tlb = TlbModel()
        reach = tlb.reach_bytes(tlb.l1_entries, huge_pages=False)
        assert tlb.expected_overhead(reach) == 0.0

    def test_overhead_grows_with_buffer(self):
        tlb = TlbModel()
        assert tlb.expected_overhead(64 * MIB) > tlb.expected_overhead(8 * MIB)

    def test_nested_paging_costs_more(self):
        tlb = TlbModel()
        size = 64 * MIB
        assert tlb.expected_overhead(size, nested=True) > tlb.expected_overhead(size)

    def test_hugepages_extend_reach(self):
        tlb = TlbModel()
        huge_reach = tlb.reach_bytes(tlb.l1_entries, huge_pages=True)
        small_reach = tlb.reach_bytes(tlb.l1_entries, huge_pages=False)
        assert huge_reach == 512 * small_reach  # 2 MiB vs 4 KiB pages

    def test_hugepages_reduce_overhead_on_large_buffers(self):
        tlb = TlbModel()
        size = 64 * MIB
        assert tlb.expected_overhead(size, huge_pages=True) < tlb.expected_overhead(size)

    def test_hugepage_speedup_significant_on_large_buffers(self):
        """Section 3.2 reports ~30% latency reduction with hugepages."""
        tlb = TlbModel()
        base = tlb.expected_overhead(64 * MIB, huge_pages=False)
        huge = tlb.expected_overhead(64 * MIB, huge_pages=True)
        assert 1.0 - huge / base > 0.5  # TLB-portion reduction is large

    def test_miss_fraction_bounds(self):
        tlb = TlbModel()
        assert tlb.miss_fraction(1 * GIB, 6 * MIB) == pytest.approx(1.0 - 6 / 1024, abs=1e-3)
        assert tlb.miss_fraction(1 * MIB, 6 * MIB) == 0.0

    def test_invalid_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            TlbModel().miss_fraction(0, 100)


@given(st.integers(min_value=12, max_value=36))
@settings(max_examples=40)
def test_overhead_monotone_in_buffer_size(exponent):
    tlb = TlbModel()
    assert (
        tlb.expected_overhead(1 << (exponent + 1))
        >= tlb.expected_overhead(1 << exponent) - 1e-15
    )


@given(st.integers(min_value=12, max_value=36), st.booleans())
@settings(max_examples=40)
def test_nested_never_cheaper(exponent, huge):
    tlb = TlbModel()
    size = 1 << exponent
    assert tlb.expected_overhead(size, huge_pages=huge, nested=True) >= tlb.expected_overhead(
        size, huge_pages=huge, nested=False
    )
