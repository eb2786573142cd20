"""Tests for the top-level public API surface."""

import pytest

import repro
from repro.platforms import get_platform


class TestTopLevelPackage:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_lazy_suite_import(self):
        suite_class = repro.BenchmarkSuite
        from repro.core.suite import BenchmarkSuite

        assert suite_class is BenchmarkSuite

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            _ = repro.NotAThing

    def test_errors_reexported(self):
        assert issubclass(repro.UnsupportedOperationError, repro.ReproError)

    def test_rng_reexported(self):
        assert repro.RngStream(1).uniform() == repro.RngStream(1).uniform()


class TestLabelsMatchPaper:
    """Figure labels must use the paper's platform names."""

    @pytest.mark.parametrize(
        ("name", "label"),
        [
            ("native", "Native"),
            ("docker", "Docker"),
            ("lxc", "LXC"),
            ("qemu", "QEMU"),
            ("firecracker", "Firecracker"),
            ("cloud-hypervisor", "Cloud Hypervisor"),
            ("kata", "Kata"),
            ("gvisor", "gVisor"),
            ("osv", "OSv"),
            ("osv-fc", "OSv-FC"),
        ],
    )
    def test_label(self, name, label):
        assert get_platform(name).label == label
