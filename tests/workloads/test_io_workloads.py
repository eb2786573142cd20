"""Tests for the fio workloads (Figures 9-10 and the caching pitfall)."""

import pytest

from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.platforms import get_platform
from repro.rng import RngStream
from repro.workloads.fio import FioLatencyWorkload, FioThroughputWorkload


def _per_completion_mean_latency(workload, platform, rng):
    """Figure 10's kernel as one draw and one addition per completion: the
    oracle the block kernel must equal exactly."""
    profile = platform.io_profile()
    device = platform.machine.nvme
    device_rng = rng.child("device")
    base = device.rand_read_latency_s + workload.block_bytes / device.seq_read_bw
    total = 0.0
    for _ in range(workload.samples):
        noise = device_rng.gaussian_factor(device.rand_read_latency_std)
        total += base * noise + device.per_request_overhead_s
    mean = total / workload.samples + profile.per_request_latency_s
    return mean * rng.child("path").gaussian_factor(profile.latency_std)


class TestFioThroughput:
    def test_invalid_block_rejected(self):
        with pytest.raises(ConfigurationError):
            FioThroughputWorkload(block_bytes=0)

    def test_firecracker_excluded(self):
        with pytest.raises(UnsupportedOperationError):
            FioThroughputWorkload().check_supported(get_platform("firecracker"))

    def test_osv_excluded(self):
        with pytest.raises(UnsupportedOperationError):
            FioThroughputWorkload().check_supported(get_platform("osv"))

    def test_native_hits_device_limits(self, rng):
        result = FioThroughputWorkload().run(get_platform("native"), rng)
        device = get_platform("native").machine.nvme
        assert result.read_bytes_per_s < device.seq_read_bw
        assert result.read_bytes_per_s > 0.85 * device.seq_read_bw
        assert result.read_bytes_per_s > result.write_bytes_per_s

    def test_docker_lxc_qemu_near_native(self, rng):
        """Figure 9: read performance of Docker, LXC, QEMU equals native."""
        workload = FioThroughputWorkload()
        native = workload.run(get_platform("native"), rng.child("n"))
        for name in ("docker", "lxc", "qemu"):
            result = workload.run(get_platform(name), rng.child(name))
            assert result.read_bytes_per_s > 0.9 * native.read_bytes_per_s, name

    def test_secure_containers_at_half_native(self, rng):
        """Figure 9: gVisor and Kata reach at best half native speed."""
        workload = FioThroughputWorkload()
        native = workload.run(get_platform("native"), rng.child("n"))
        for name in ("gvisor", "kata"):
            result = workload.run(get_platform(name), rng.child(name))
            assert result.read_bytes_per_s < 0.62 * native.read_bytes_per_s, name

    def test_cloud_hypervisor_significantly_worse(self, rng):
        workload = FioThroughputWorkload()
        qemu = workload.run(get_platform("qemu"), rng.child("q"))
        clh = workload.run(get_platform("cloud-hypervisor"), rng.child("c"))
        assert clh.read_bytes_per_s < 0.7 * qemu.read_bytes_per_s
        assert clh.write_bytes_per_s < 0.7 * qemu.write_bytes_per_s

    def test_caching_pitfall_inflates_hypervisor_reads(self, rng):
        """Section 3.3: without dropping the host cache, hypervisors appear
        to beat bare metal by a large margin."""
        dropped = FioThroughputWorkload(drop_host_cache=True).run(
            get_platform("qemu"), rng.child("d")
        )
        cached = FioThroughputWorkload(drop_host_cache=False).run(
            get_platform("qemu"), rng.child("c")
        )
        native = FioThroughputWorkload(drop_host_cache=False).run(
            get_platform("native"), rng.child("n")
        )
        assert cached.read_bytes_per_s > 2.0 * dropped.read_bytes_per_s
        assert cached.read_bytes_per_s > native.read_bytes_per_s  # the anomaly

    def test_pitfall_does_not_affect_single_kernel_platforms(self, rng):
        """Containers have one kernel: direct=1 works as intended."""
        dropped = FioThroughputWorkload(drop_host_cache=True).run(
            get_platform("docker"), rng.child("d")
        )
        cached = FioThroughputWorkload(drop_host_cache=False).run(
            get_platform("docker"), rng.child("d")
        )
        assert cached.read_bytes_per_s == pytest.approx(dropped.read_bytes_per_s)


class TestFioLatency:
    def test_invalid_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            FioLatencyWorkload(samples=0)

    def test_gvisor_excluded_from_latency(self):
        """Section 3.3: gVisor's reads stay cached."""
        with pytest.raises(UnsupportedOperationError):
            FioLatencyWorkload().check_supported(get_platform("gvisor"))

    def test_native_latency_near_device(self, rng):
        result = FioLatencyWorkload().run(get_platform("native"), rng)
        assert 70 < result.mean_latency_us < 130

    def test_kata_exceptionally_poor(self, rng):
        """Figure 10: Kata's randread latency is the outlier."""
        workload = FioLatencyWorkload(samples=100)
        values = {
            name: workload.run(get_platform(name), rng.child(name)).mean_latency_us
            for name in ("native", "docker", "lxc", "qemu", "cloud-hypervisor", "kata")
        }
        assert values["kata"] == max(values.values())
        assert values["kata"] > 2.0 * values["native"]

    def test_cloud_hypervisor_remarkably_good(self, rng):
        """Figure 10: CLH does well on latency despite poor throughput."""
        workload = FioLatencyWorkload(samples=100)
        clh = workload.run(get_platform("cloud-hypervisor"), rng.child("c"))
        qemu = workload.run(get_platform("qemu"), rng.child("q"))
        assert clh.mean_latency_us < qemu.mean_latency_us

    @pytest.mark.parametrize("name", ["native", "qemu", "kata"])
    def test_block_kernel_equals_per_completion_oracle(self, name):
        workload = FioLatencyWorkload()
        platform = get_platform(name)
        for seed in (7, 1001, 2**63):
            result = workload.run(platform, RngStream(seed, f"fig10/{name}"))
            expected = _per_completion_mean_latency(
                workload, platform, RngStream(seed, f"fig10/{name}")
            )
            assert result.mean_latency_s == expected, seed

    def test_virtiofs_restores_kata_latency(self, rng):
        workload = FioLatencyWorkload(samples=100)
        ninep = workload.run(get_platform("kata"), rng.child("9p"))
        virtiofs = workload.run(get_platform("kata-virtiofs"), rng.child("vf"))
        assert virtiofs.mean_latency_us < 0.6 * ninep.mean_latency_us
