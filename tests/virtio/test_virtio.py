"""Tests for the virtio transports and sharing protocols."""

import pytest

from repro.errors import ConfigurationError
from repro.units import KIB, MIB
from repro.virtio.blk import VirtioBlk
from repro.virtio.fs import VirtioFs
from repro.virtio.ninep import NinePChannel
from repro.virtio.queue import Virtqueue


class TestVirtqueue:
    def test_ring_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            Virtqueue("vq", size=300)

    def test_ioeventfd_cheaper_than_userspace_bounce(self):
        in_kernel = Virtqueue("vq", ioeventfd=True)
        bounced = Virtqueue("vq", ioeventfd=False)
        assert in_kernel.kick_cost() < bounced.kick_cost()

    def test_round_trip_includes_kick_and_interrupt(self):
        queue = Virtqueue("vq")
        assert queue.round_trip_latency() > queue.kick_cost()


class TestVirtioBlk:
    def test_latency_overhead_exceeds_loaded_overhead(self):
        # A lone request pays a kick and an interrupt on top of the
        # ring's descriptor processing and the VMM's request handling.
        device = VirtioBlk()
        loaded_floor = device.queue.descriptor_processing_s + device.vmm_request_handling_s
        assert device.request_latency_overhead() > loaded_floor + device.queue.kick_cost()

    def test_immature_backend_costs_more(self):
        mature = VirtioBlk(vmm_request_handling_s=3e-6)
        immature = VirtioBlk(vmm_request_handling_s=20e-6)
        assert immature.request_latency_overhead() > mature.request_latency_overhead()

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtioBlk(bandwidth_efficiency=0.0)


class TestNinePChannel:
    def test_every_operation_pays_round_trips(self):
        channel = NinePChannel()
        assert channel.operation_latency(0) >= channel.rpc_amplification * (
            channel.rpc_round_trip()
        ) - 1e-12

    def test_large_payloads_chunked_by_msize(self):
        channel = NinePChannel()
        small = channel.operation_latency(4 * KIB)
        large = channel.operation_latency(4 * MIB)
        assert large > small
        # 4 MiB at msize 512 KiB = 8 chunks = 7 extra round trips.
        extra_chunks = 4 * MIB // channel.msize_bytes - 1
        assert large - small > extra_chunks * channel.rpc_round_trip() * 0.9

    def test_streaming_bandwidth_well_below_nvme(self):
        """The root cause of Figure 9's gVisor/Kata results."""
        channel = NinePChannel()
        assert channel.streaming_bandwidth() < 2.0e9  # < 2 GB/s vs 3.2 GB/s NVMe

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            NinePChannel().operation_latency(-1)

    def test_tiny_msize_rejected(self):
        with pytest.raises(ConfigurationError):
            NinePChannel(msize_bytes=1024)

    def test_invalid_amplification_rejected(self):
        with pytest.raises(ConfigurationError):
            NinePChannel(rpc_amplification=0.5)


class TestVirtioFs:
    def test_cheaper_per_op_than_ninep(self):
        """Finding 7: virtio-fs significantly outperforms 9p."""
        assert VirtioFs().operation_latency(4 * KIB) < NinePChannel().operation_latency(4 * KIB)

    def test_streams_faster_than_ninep(self):
        # A 4 MiB transfer: 9P splits it into msize chunks, each a round trip.
        assert 2.0 * VirtioFs().operation_latency(4 * MIB) < NinePChannel().operation_latency(
            4 * MIB
        )

    def test_dax_reduces_copy_cost(self):
        with_dax = VirtioFs(dax_enabled=True)
        without = VirtioFs(dax_enabled=False)
        assert with_dax.operation_latency(1 * MIB) < without.operation_latency(1 * MIB)

    def test_invalid_dax_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtioFs(dax_hit_ratio=1.5)
