"""Cloud Hypervisor — between Firecracker's minimalism and QEMU's
completeness (Section 2.1.3).

16 devices (vs. Firecracker's 7 and QEMU's 40+), vhost-user support, and
memory/vCPU hotplug through its API. In the paper's measurements it is a
study in immaturity trade-offs:

* fastest hypervisor to boot (Figure 14) — no firmware, lean device model;
* *remarkably good* fio random-read latency but the worst sequential
  throughput of the hypervisors (Figures 9/10, Finding 9): a simple
  synchronous block backend is cheap per request and slow in aggregate;
* elevated memory latency (shares the vm-memory crate with Firecracker,
  Finding 4) but near-full copy throughput;
* "severe inefficiencies" in the network datapath (Section 3.4) despite a
  QEMU-equal architecture — modelled as a high maturity overhead;
* surprisingly few host-kernel functions invoked (Finding 25), attributed
  to its work-in-progress feature coverage.
"""

from __future__ import annotations

from repro.guests.linux import standard_linux_guest
from repro.kernel.netdev import TapVirtioPath
from repro.kernel.netstack import GuestLinuxStack
from repro.kernel.sched import CfsScheduler
from repro.platforms.base import (
    BootPhase,
    CpuProfile,
    IoProfile,
    MemoryProfile,
    NetProfile,
    Platform,
    PlatformFamily,
)
from repro.platforms.docker import GUEST_VCPUS
from repro.platforms.qemu import KERNEL_LOAD_BANDWIDTH
from repro.units import ms, us
from repro.virtio.blk import VirtioBlk

__all__ = ["CloudHypervisorPlatform"]

DEVICE_COUNT = 16


class CloudHypervisorPlatform(Platform):
    """Cloud Hypervisor (Rust-VMM based)."""

    name = "cloud-hypervisor"
    label = "Cloud Hypervisor"
    family = PlatformFamily.HYPERVISOR

    def __init__(self, machine=None) -> None:
        super().__init__(machine)
        # PVH direct boot of the compressed kernel: no firmware stage.
        self.guest_kernel = standard_linux_guest()
        self.virtio_blk = VirtioBlk(vmm_request_handling_s=us(2.2))

    def cpu_profile(self) -> CpuProfile:
        return CpuProfile(scheduler=CfsScheduler(), vcpus=GUEST_VCPUS)

    def memory_profile(self) -> MemoryProfile:
        # Finding 4: latency elevated (vm-memory crate) but, unlike QEMU,
        # throughput is nearly intact — the other side of the trade-off.
        return MemoryProfile(
            nested_paging=True,
            dram_latency_factor=1.15,
            bandwidth_factor=0.96,
            stream_bandwidth_factor=0.97,
            latency_std=0.06,
        )

    def io_profile(self) -> IoProfile:
        # Synchronous block backend: minimal per-request work (good QD1
        # latency, Figure 10) but no deep-queue parallelism (poor 128 KiB
        # throughput, Figure 9).
        guest_block_layer = us(10.0)
        return IoProfile(
            per_request_latency_s=self.virtio_blk.request_latency_overhead()
            + guest_block_layer,
            read_efficiency=0.58,
            write_efficiency=0.52,
            write_std=0.09,
            read_std=0.07,
            latency_std=0.04,
            guest_page_cache=True,
        )

    def net_profile(self) -> NetProfile:
        return NetProfile(
            path=TapVirtioPath(maturity_overhead=2.1), stack=GuestLinuxStack()
        )

    def boot_phases(self) -> list[BootPhase]:
        return [
            BootPhase("clh-process-start", ms(21.0), rel_std=0.08),
            BootPhase("kvm-vm-setup", ms(3.2), rel_std=0.10),
            BootPhase(
                "kernel-load-pvh",
                self.guest_kernel.load_time_s(KERNEL_LOAD_BANDWIDTH),
                rel_std=0.08,
            ),
            BootPhase(
                "kernel-init",
                self.guest_kernel.kernel_init_time_s(DEVICE_COUNT),
                rel_std=0.06,
            ),
            BootPhase("patched-init-exit", ms(1.2), rel_std=0.2),
            BootPhase("teardown", ms(8.0), rel_std=0.12),
        ]

    def isolation_mechanisms(self) -> list[str]:
        return [
            "hardware-virtualization",
            "separate-guest-kernel",
            "seccomp-vmm-filter",
        ]

    def hap_profile_name(self) -> str:
        return "cloud-hypervisor"
