"""Property-based tests over the platform and workload models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.nic import NicModel
from repro.platforms import get_platform, platform_names
from repro.rng import RngStream
from repro.workloads.ffmpeg import FfmpegEncodeWorkload
from repro.workloads.mysql import MysqlOltpWorkload
from repro.workloads.netperf import NetperfWorkload
from repro.workloads.startup import StartupWorkload

MAIN = ["native", "docker", "lxc", "qemu", "firecracker", "cloud-hypervisor",
        "kata", "gvisor", "osv"]


@given(st.sampled_from(platform_names()), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_boot_samples_always_positive_and_bounded(name, seed):
    platform = get_platform(name)
    (sample,) = StartupWorkload(startups=1).run(platform, RngStream(seed)).samples_s
    mean = sum(phase.mean_s for phase in platform.boot_phases())
    assert 0.0 < sample < 4.0 * mean


@given(st.sampled_from(MAIN), st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_ffmpeg_time_never_increases_with_threads(name, threads):
    """Adding threads can only help (or saturate) — never hurt, because
    the scheduler model's aggregate throughput is monotone."""
    platform = get_platform(name)
    rng = RngStream(1)
    one = FfmpegEncodeWorkload(threads=threads)
    two = FfmpegEncodeWorkload(threads=threads + 8)
    time_fewer = one.run(platform, rng.child("a")).encode_time_s
    time_more = two.run(platform, rng.child("a")).encode_time_s
    assert time_more < time_fewer * 1.35  # never catastrophically worse


@given(st.floats(min_value=0.0, max_value=1e-5), st.floats(min_value=0.0, max_value=1e-5))
@settings(max_examples=60)
def test_nic_throughput_antitone_in_per_packet_cost(cost_a, cost_b):
    nic = NicModel()
    low, high = sorted((cost_a, cost_b))
    assert nic.achievable_throughput(high) <= nic.achievable_throughput(low) + 1e-6


@given(st.sampled_from(MAIN))
@settings(max_examples=20, deadline=None)
def test_netperf_percentiles_ordered_for_all_platforms(name):
    result = NetperfWorkload(transactions=500).run(get_platform(name), RngStream(7))
    assert result.p50_latency_s <= result.p90_latency_s <= result.p99_latency_s


@given(st.sampled_from(MAIN), st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_mysql_tps_positive_and_finite(name, threads):
    workload = MysqlOltpWorkload(thread_counts=(threads,))
    value = workload.tps_at(get_platform(name), threads)
    assert 0.0 < value < 50_000.0


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=30, deadline=None)
def test_figure11_ordering_stable_across_seeds(seed):
    """The headline ordering (native > osv > qemu > gvisor) must hold for
    any seed — noise may move numbers, not conclusions."""
    from repro.workloads.iperf import IperfWorkload

    rng = RngStream(seed)
    workload = IperfWorkload()

    def mean3(name):
        platform = get_platform(name)
        stream = rng.child(name)
        return sum(
            workload.run(platform, stream.child(str(i))).throughput_bytes_per_s
            for i in range(3)
        )

    native, osv, qemu, gvisor = (mean3(n) for n in ("native", "osv", "qemu", "gvisor"))
    assert native > qemu > gvisor
    assert osv > qemu


@pytest.mark.parametrize("name", MAIN)
def test_profiles_are_reconstructible(name):
    """Profiles must be pure: two constructions agree exactly."""
    first = get_platform(name)
    second = get_platform(name)
    assert first.memory_profile() == second.memory_profile()
    assert first.boot_phases() == second.boot_phases()
    assert first.net_profile().per_packet_cost() == second.net_profile().per_packet_cost()
