"""Tests for the memory subsystem, NVMe device, NIC, and machine topology."""

import statistics

import pytest

from repro.errors import ConfigurationError
from repro.hardware.memory import MemorySubsystem
from repro.hardware.nic import NicModel
from repro.hardware.storage import NvmeDevice
from repro.hardware.topology import Machine, paper_testbed
from repro.rng import RngStream
from repro.units import GIB, KIB, MIB, gbit_per_s, us


class TestMemorySubsystem:
    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            MemorySubsystem(total_bytes=0)

    def test_latency_includes_tlb_and_cache(self):
        memory = MemorySubsystem()
        size = 64 * MIB
        cache_only = memory.caches.random_access_latency(size)
        assert memory.random_access_latency(size) > cache_only

    def test_nested_paging_increases_latency(self):
        memory = MemorySubsystem()
        size = 64 * MIB
        assert memory.random_access_latency(size, nested_paging=True) > (
            memory.random_access_latency(size)
        )

    def test_hugepages_reduce_total_latency_about_30_percent(self):
        """The Section 3.2 hugepage observation on large buffers."""
        memory = MemorySubsystem()
        size = 64 * MIB
        regular = memory.random_access_latency(size)
        huge = memory.random_access_latency(size, huge_pages=True)
        reduction = 1.0 - huge / regular
        assert 0.15 < reduction < 0.45

    def test_sse2_copy_slightly_faster(self):
        memory = MemorySubsystem()
        assert memory.copy_bandwidth(sse2=True) > memory.copy_bandwidth()

    def test_stream_faster_than_tinymembench_copy(self):
        memory = MemorySubsystem()
        assert memory.stream_bandwidth() > memory.copy_bandwidth()


class TestNvmeDevice:
    def test_read_faster_than_write(self):
        device = NvmeDevice()
        assert device.seq_read_bw > device.seq_write_bw

    def test_queue_depth_scaling_saturates(self):
        device = NvmeDevice()
        assert device.queue_depth_scaling(1) < device.queue_depth_scaling(32)
        assert device.queue_depth_scaling(32) < 1.0
        assert device.queue_depth_scaling(1024) == device.queue_depth_scaling(4096)

    def test_invalid_queue_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            NvmeDevice().queue_depth_scaling(0)

    def test_random_read_latency_near_nominal(self):
        # Without dispersion every completion is the nominal latency; with
        # it, a block's mean stays close to that.
        nominal = NvmeDevice(rand_read_latency_std=0.0).random_read_latencies(RngStream(1), 3)
        assert nominal == [nominal[0]] * 3
        assert us(70) < nominal[0] < us(120)
        latencies = NvmeDevice().random_read_latencies(RngStream(1), 400)
        assert statistics.fmean(latencies) == pytest.approx(nominal[0], rel=0.02)

    def test_random_read_latency_with_rng_disperses(self):
        values = set(NvmeDevice().random_read_latencies(RngStream(1), 20))
        assert len(values) > 1

    def test_larger_blocks_take_longer(self):
        # Twin streams give both block sizes the same noise factors.
        device = NvmeDevice()
        large = device.random_read_latencies(RngStream(1), 20, 64 * KIB)
        small = device.random_read_latencies(RngStream(1), 20, 4 * KIB)
        assert all(big > little for big, little in zip(large, small))

    def test_invalid_block_rejected(self):
        with pytest.raises(ConfigurationError):
            NvmeDevice().random_read_latencies(RngStream(1), 1, 0)


class TestNicModel:
    def test_zero_cost_hits_line_rate(self):
        nic = NicModel()
        assert nic.achievable_throughput(0.0) == pytest.approx(nic.line_rate, rel=0.15)

    def test_more_per_packet_cost_less_throughput(self):
        nic = NicModel()
        assert nic.achievable_throughput(1e-6) < nic.achievable_throughput(1e-7)

    def test_huge_cost_is_cpu_limited(self):
        nic = NicModel()
        cost = 10e-6
        expected = nic.mtu_bytes / (nic.base_packet_cost_s + cost)
        assert nic.achievable_throughput(cost) == pytest.approx(expected)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            NicModel().achievable_throughput(-1.0)

    def test_line_rate_matches_paper_native(self):
        """Native iperf3 measured 37.28 Gbit/s (Section 3.4)."""
        nic = NicModel()
        assert nic.line_rate == pytest.approx(gbit_per_s(37.4))


class TestMachine:
    def test_paper_testbed_shape(self):
        machine = paper_testbed()
        assert machine.sockets == 2
        assert machine.total_cores == 64
        assert machine.total_threads == 128
        assert machine.total_memory_bytes == 256 * GIB

    def test_describe_mentions_cpu_and_os(self):
        text = paper_testbed().describe()
        assert "EPYC" in text
        assert "Ubuntu" in text

    def test_invalid_socket_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Machine(sockets=0)
