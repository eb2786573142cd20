"""Tests for the gVisor syscall-interception pipelines."""

import pytest

from repro.errors import ConfigurationError
from repro.platforms import get_platform
from repro.platforms.interception import InterceptionPlatform, KvmPlatform, PtracePlatform


class TestPipelines:
    def test_ptrace_costs_more_than_kvm(self):
        """Section 2.3.2: 'KVM mode ought to be faster because ptrace has
        a relatively high context-switch penalty'."""
        assert PtracePlatform().interception_cost() > 1.5 * KvmPlatform().interception_cost()

    def test_ptrace_pays_four_switches(self):
        assert PtracePlatform().switch_count == 4
        assert KvmPlatform().switch_count == 2

    def test_negative_switch_count_rejected(self):
        with pytest.raises(ConfigurationError):
            InterceptionPlatform("bad", 1e-6, -1, 1e-6, 1e-6)


class TestPlatformWiring:
    def test_derived_factor_matches_pipeline_ratio(self):
        ptrace = get_platform("gvisor-ptrace")
        expected = (
            PtracePlatform().interception_cost() / KvmPlatform().interception_cost()
        )
        assert ptrace._interception_factor() == pytest.approx(expected)
        assert get_platform("gvisor")._interception_factor() == 1.0
