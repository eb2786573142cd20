"""Tests for the platform registry and common Platform behaviour."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.hardware.topology import paper_testbed
from repro.platforms import PLATFORM_SETS, PlatformFamily, get_platform, platform_names
from repro.platforms.base import BootPhase
from repro.workloads.startup import StartupWorkload


class TestRegistry:
    def test_all_paper_platforms_registered(self):
        names = platform_names()
        for expected in (
            "native", "docker", "lxc", "qemu", "qemu-qboot", "qemu-microvm",
            "firecracker", "cloud-hypervisor", "kata", "kata-virtiofs",
            "gvisor", "gvisor-ptrace", "osv", "osv-fc",
        ):
            assert expected in names

    def test_unknown_platform_rejected(self):
        with pytest.raises(ConfigurationError):
            get_platform("vmware")

    def test_custom_machine_is_used(self):
        machine = paper_testbed()
        platform = get_platform("docker", machine)
        assert platform.machine is machine

    def test_families_assigned(self):
        assert get_platform("native").family is PlatformFamily.NATIVE
        assert get_platform("docker").family is PlatformFamily.CONTAINER
        assert get_platform("lxc").family is PlatformFamily.CONTAINER
        assert get_platform("qemu").family is PlatformFamily.HYPERVISOR
        assert get_platform("firecracker").family is PlatformFamily.HYPERVISOR
        assert get_platform("cloud-hypervisor").family is PlatformFamily.HYPERVISOR
        assert get_platform("kata").family is PlatformFamily.SECURE_CONTAINER
        assert get_platform("gvisor").family is PlatformFamily.SECURE_CONTAINER
        assert get_platform("osv").family is PlatformFamily.UNIKERNEL

    def test_registry_names_match_platform_names(self, any_platform):
        # Variants may adjust their name, but every construction succeeds
        # and reports a non-empty label.
        assert any_platform.name
        assert any_platform.label

    def test_platform_sets_reference_known_platforms(self):
        names = set(platform_names())
        for set_name, members in PLATFORM_SETS.items():
            for member in members:
                assert member in names, f"{set_name}: {member}"

    def test_figure_exclusions_encoded(self):
        assert "firecracker" not in PLATFORM_SETS["io_throughput"]
        assert "osv" not in PLATFORM_SETS["io_throughput"]
        assert "gvisor" not in PLATFORM_SETS["io_latency"]
        assert "osv-fc" in PLATFORM_SETS["network"]


class TestCommonBehaviour:
    def test_every_platform_has_boot_phases(self, any_platform):
        phases = any_platform.boot_phases()
        assert phases
        assert all(phase.mean_s >= 0 for phase in phases)

    def test_sample_boot_positive_and_near_mean(self, any_platform, rng):
        (sample,) = StartupWorkload(startups=1).run(any_platform, rng).samples_s
        mean = sum(phase.mean_s for phase in any_platform.boot_phases())
        assert 0.5 * mean < sample < 2.0 * mean

    def test_cpu_profile_well_formed(self, any_platform):
        profile = any_platform.cpu_profile()
        assert profile.vcpus >= 1
        assert profile.simd_overhead_factor >= 1.0

    def test_memory_profile_well_formed(self, any_platform):
        profile = any_platform.memory_profile()
        assert profile.dram_latency_factor >= 1.0
        assert 0.0 < profile.bandwidth_factor <= 1.0

    def test_net_profile_well_formed(self, any_platform):
        profile = any_platform.net_profile()
        assert profile.per_packet_cost() >= 0.0
        assert profile.added_latency() >= 0.0

    def test_isolation_mechanisms_nonempty(self, any_platform):
        assert any_platform.isolation_mechanisms()

    def test_syscall_factor_positive(self, any_platform):
        assert any_platform.syscall_overhead_factor() > 0.0


@pytest.mark.parametrize("mean_s", [-1e-3, math.nan], ids=["negative", "nan"])
def test_boot_phase_rejects_bad_mean(mean_s):
    """A negative or NaN mean fails at construction, naming the phase,
    instead of inside the engine."""
    with pytest.raises(ConfigurationError, match="guest-kernel"):
        BootPhase("guest-kernel", mean_s)
