"""Tests for iperf3 and netperf (Figures 11-12)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.platforms import get_platform
from repro.rng import RngStream
from repro.workloads.iperf import IperfWorkload
from repro.workloads.netperf import NetperfWorkload


def _throughput(name, rng, runs=3):
    """Mean throughput over a few runs (single runs can flip 2% gaps)."""
    stream = rng.child(name)
    workload = IperfWorkload()
    platform = get_platform(name)
    values = [
        workload.run(platform, stream.child(f"run-{i}")).throughput_gbit_per_s
        for i in range(runs)
    ]
    return sum(values) / len(values)


class TestIperf:
    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            IperfWorkload(duration_s=0)

    def test_native_near_37_gbit(self, rng):
        """Section 3.4: host mean throughput 37.28 Gbit/s."""
        assert 35.5 < _throughput("native", rng) < 39.0

    def test_virtualization_always_costs_something(self, rng):
        """Section 3.4: 'there is always a price to be paid'."""
        native = _throughput("native", rng)
        for name in ("docker", "lxc", "qemu", "firecracker", "cloud-hypervisor",
                     "kata", "gvisor", "osv"):
            assert _throughput(name, rng) < native, name

    def test_bridge_penalty_about_ten_percent(self, rng):
        native = _throughput("native", rng)
        docker = _throughput("docker", rng)
        lxc = _throughput("lxc", rng)
        assert 0.86 < docker / native < 0.95
        assert 0.86 < lxc / native < 0.96
        assert lxc > docker  # LXC's penalty (9.19%) < Docker's (9.84%)

    def test_tap_virtio_penalty_about_25_percent(self, rng):
        native = _throughput("native", rng)
        qemu = _throughput("qemu", rng)
        assert 0.68 < qemu / native < 0.82

    def test_osv_gain_over_qemu_large_over_fc_small(self, rng):
        """Section 3.4: +25.7% (QEMU) vs +6.53% (Firecracker)."""
        qemu_gain = _throughput("osv", rng) / _throughput("qemu", rng)
        fc_gain = _throughput("osv-fc", rng) / _throughput("firecracker", rng)
        assert qemu_gain > 1.18
        assert 1.0 < fc_gain < 1.12
        assert qemu_gain > fc_gain

    def test_kata_equals_weakest_link(self, rng):
        """Kata's throughput should be close to QEMU's (its weakest link)."""
        kata = _throughput("kata", rng)
        qemu = _throughput("qemu", rng)
        assert 0.8 * qemu < kata < 1.05 * qemu

    def test_gvisor_extreme_outlier(self, rng):
        assert _throughput("gvisor", rng) < 0.15 * _throughput("native", rng)

    def test_cloud_hypervisor_worst_hypervisor(self, rng):
        clh = _throughput("cloud-hypervisor", rng)
        assert clh < _throughput("qemu", rng)
        assert clh < _throughput("firecracker", rng)


def _p90(name, rng):
    return NetperfWorkload(transactions=2_000).run(
        get_platform(name), rng.child(name)
    ).p90_latency_us


class TestNetperf:
    def test_invalid_transactions_rejected(self):
        with pytest.raises(ConfigurationError):
            NetperfWorkload(transactions=5)

    def test_percentiles_ordered(self, rng):
        result = NetperfWorkload(transactions=2_000).run(get_platform("native"), rng)
        assert result.p50_latency_s <= result.p90_latency_s <= result.p99_latency_s
        assert result.mean_latency_s > 0

    @pytest.mark.parametrize("name", ["native", "qemu", "kata"])
    def test_one_percentile_call_equals_three(self, name):
        """The oracle draws the same samples and takes each percentile
        with its own ``np.percentile`` call."""
        platform = get_platform(name)
        profile = platform.net_profile()
        base = platform.machine.nic.base_rtt_s + 2.0 * profile.added_latency()
        sigma = max(1e-6, profile.latency_std * 2.2)
        for seed in (7, 1001, 2**63):
            result = NetperfWorkload().run(platform, RngStream(seed, f"fig12/{name}"))
            samples = base * RngStream(seed, f"fig12/{name}").generator.lognormal(
                -0.5 * sigma * sigma, sigma, size=5_000
            )
            assert result.mean_latency_s == float(np.mean(samples)), seed
            assert (result.p50_latency_s, result.p90_latency_s, result.p99_latency_s) == tuple(
                float(np.percentile(samples, q)) for q in (50, 90, 99)
            ), seed

    def test_bridges_beat_hypervisors(self, rng):
        """Finding 10."""
        bridges = max(_p90(n, rng) for n in ("docker", "lxc", "kata"))
        hypervisors = min(
            _p90(n, rng) for n in ("qemu", "firecracker", "cloud-hypervisor")
        )
        assert bridges < hypervisors

    def test_osv_slightly_better_than_hypervisors(self, rng):
        """Finding 11."""
        osv = _p90("osv", rng)
        assert osv < min(_p90(n, rng) for n in ("qemu", "firecracker"))
        assert osv > _p90("native", rng)

    def test_gvisor_three_to_four_times_competitors(self, rng):
        """Finding 12."""
        gvisor = _p90("gvisor", rng)
        others = [_p90(n, rng) for n in ("native", "docker", "lxc", "qemu",
                                          "firecracker", "kata", "osv")]
        ratio = gvisor / (sum(others) / len(others))
        assert 2.5 < ratio < 6.0


class TestIperfDesCrossValidation:
    """The packet-level simulation must agree with the analytic model."""

    @pytest.mark.parametrize("name", ["native", "docker", "qemu", "gvisor", "osv"])
    def test_des_matches_analytic_within_tolerance(self, rng, name):
        platform = get_platform(name)
        workload = IperfWorkload()
        analytic = workload.run(platform, rng.child("a")).throughput_bytes_per_s
        simulated = workload.run_simulated(platform, rng.child("d")).throughput_bytes_per_s
        assert simulated == pytest.approx(analytic, rel=0.15)

    def test_invalid_simulation_parameters_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            IperfWorkload().run_simulated(get_platform("native"), rng, sim_duration_s=0)
