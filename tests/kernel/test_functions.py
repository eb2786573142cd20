"""Tests for the host-kernel function catalog."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernel.functions import KernelFunctionCatalog, Subsystem


@pytest.fixture(scope="module")
def catalog() -> KernelFunctionCatalog:
    return KernelFunctionCatalog()


def every_function(catalog):
    """The whole catalog, one full-breadth subsystem after another."""
    return [fn for subsystem in Subsystem for fn in catalog.select_breadth(subsystem, 1.0)]


class TestCatalog:
    def test_population_is_realistic(self, catalog):
        # A 5.4-era kernel traces thousands of functions.
        assert 5_000 < len(catalog) < 10_000

    def test_all_subsystems_populated(self, catalog):
        for subsystem in Subsystem:
            assert catalog.select_breadth(subsystem, 1.0)

    def test_names_are_unique(self, catalog):
        names = [fn.name for fn in every_function(catalog)]
        assert len(names) == len(set(names))

    def test_deterministic_across_instances(self):
        first = KernelFunctionCatalog()
        second = KernelFunctionCatalog()
        assert [f.name for f in every_function(first)] == [
            f.name for f in every_function(second)
        ]

    def test_curated_stems_present(self, catalog):
        for name in ("schedule", "tcp_sendmsg", "kvm_mmu_page_fault", "ext4_map_blocks"):
            function = catalog.get(name)
            assert function.rank < 20  # stems come first

    def test_unknown_function_rejected(self, catalog):
        with pytest.raises(ConfigurationError):
            catalog.get("definitely_not_a_kernel_function")

    def test_contains(self, catalog):
        assert "schedule" in catalog
        assert "nope" not in catalog

    def test_ranks_are_sequential(self, catalog):
        functions = catalog.select_breadth(Subsystem.SCHED, 1.0)
        assert [fn.rank for fn in functions] == list(range(len(functions)))

    def test_scale_parameter(self):
        small = KernelFunctionCatalog(scale=0.3)
        assert len(small) < len(KernelFunctionCatalog())

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelFunctionCatalog(scale=0.0)


class TestBreadthSelection:
    def test_zero_breadth_selects_nothing(self, catalog):
        assert catalog.select_breadth(Subsystem.MM, 0.0) == []

    def test_full_breadth_selects_all(self, catalog):
        assert len(every_function(catalog)) == len(catalog)

    def test_breadth_clamped_above_one(self, catalog):
        assert catalog.select_breadth(Subsystem.MM, 2.0) == catalog.select_breadth(
            Subsystem.MM, 1.0
        )

    def test_tiny_breadth_selects_at_least_one(self, catalog):
        assert len(catalog.select_breadth(Subsystem.MM, 1e-9)) == 1

    @given(
        st.sampled_from(list(Subsystem)),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_breadth_is_monotone_prefix(self, subsystem, a, b):
        """More breadth always selects a superset (prefix property)."""
        catalog = KernelFunctionCatalog(scale=0.2)
        low, high = sorted((a, b))
        smaller = catalog.select_breadth(subsystem, low)
        larger = catalog.select_breadth(subsystem, high)
        assert len(smaller) <= len(larger)
        assert smaller == larger[: len(smaller)]
