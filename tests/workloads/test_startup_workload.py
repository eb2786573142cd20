"""Tests for the startup-time workload (Figures 13-15, Finding 16)."""

import statistics

import pytest

from repro.core.stats import percentile
from repro.errors import ConfigurationError
from repro.platforms import get_platform
from repro.workloads.startup import MeasurementMethod, StartupWorkload


def _mean_ms(name, rng, startups=40, method=MeasurementMethod.END_TO_END):
    workload = StartupWorkload(startups=startups, method=method)
    result = workload.run(get_platform(name), rng.child(name + method.value))
    return 1e3 * statistics.fmean(result.samples_s)


class TestStartupMechanics:
    def test_invalid_startups_rejected(self):
        with pytest.raises(ConfigurationError):
            StartupWorkload(startups=0)

    def test_sample_count_matches_startups(self, rng):
        result = StartupWorkload(startups=25).run(get_platform("docker-oci"), rng)
        assert len(result.samples_s) == 25

    def test_cdf_is_monotone_and_complete(self, rng):
        result = StartupWorkload(startups=30).run(get_platform("docker-oci"), rng)
        xs, ys = result.cdf()
        assert xs == sorted(xs)
        assert ys[-1] == pytest.approx(1.0)
        assert all(0 < y <= 1 for y in ys)

    def test_percentiles_ordered(self, rng):
        samples = StartupWorkload(startups=50).run(get_platform("kata"), rng).samples_s
        assert percentile(samples, 50) <= percentile(samples, 99)

    def test_stdout_method_skips_termination(self, rng):
        e2e = _mean_ms("osv", rng, method=MeasurementMethod.END_TO_END)
        grep = _mean_ms("osv", rng, method=MeasurementMethod.STDOUT_GREP)
        gap = (e2e - grep) / e2e
        assert 0.0 < gap < 0.12  # Finding 16: small termination share

    def test_deterministic_given_seed(self, rng):
        workload = StartupWorkload(startups=10)
        first = workload.run(get_platform("docker"), rng.child("same"))
        second = workload.run(get_platform("docker"), rng.child("same"))
        assert first.samples_s == second.samples_s


class TestContainerBootShape:
    def test_figure13_ordering(self, rng):
        """docker-oci < gvisor < kata < lxc; daemon adds ~250 ms."""
        oci = _mean_ms("docker-oci", rng)
        daemon = _mean_ms("docker", rng)
        gvisor = _mean_ms("gvisor", rng)
        kata = _mean_ms("kata", rng)
        lxc = _mean_ms("lxc", rng)
        assert oci < gvisor < kata < lxc
        assert 180 < daemon - oci < 330

    def test_paper_magnitudes(self, rng):
        assert 70 < _mean_ms("docker-oci", rng) < 160
        assert 140 < _mean_ms("gvisor", rng) < 260
        assert 450 < _mean_ms("kata", rng) < 750
        assert 650 < _mean_ms("lxc", rng) < 1000


class TestHypervisorBootShape:
    def test_figure14_ordering(self, rng):
        """CLH < qboot < QEMU < Firecracker < microvm."""
        clh = _mean_ms("cloud-hypervisor", rng)
        qboot = _mean_ms("qemu-qboot", rng)
        qemu = _mean_ms("qemu", rng)
        firecracker = _mean_ms("firecracker", rng)
        microvm = _mean_ms("qemu-microvm", rng)
        assert clh < qboot < qemu < firecracker < microvm

    def test_firecracker_around_350ms(self, rng):
        assert 280 < _mean_ms("firecracker", rng) < 420


class TestOsvBootShape:
    def test_figure15_ordering_reverses(self, rng):
        """FC fastest, microvm second, plain QEMU last — for OSv guests."""
        fc = _mean_ms("osv-fc", rng)
        microvm = _mean_ms("osv-qemu-microvm", rng)
        qemu = _mean_ms("osv", rng)
        assert fc < microvm < qemu

    def test_osv_boots_faster_than_linux_guest_same_hypervisor(self, rng):
        assert _mean_ms("osv", rng) < _mean_ms("qemu", rng)
        assert _mean_ms("osv-fc", rng) < _mean_ms("firecracker", rng)
