"""Firecracker — AWS's minimalist Rust microVM (Section 2.1.2).

Seven emulated devices, direct 64-bit boot of an *uncompressed* vmlinux,
REST API configuration before ``InstanceStart``. The paper's measurements
puncture two pieces of its reputation:

* **memory** — Firecracker is the outlier in latency *and* throughput
  (Finding 4); the paper attributes this to the ``vm-memory`` crate that
  mediates all guest memory operations;
* **boot time** — end-to-end (process creation to termination) it boots
  *slowest* of the three hypervisors (Finding 14, Conclusion 5): the
  published sub-125 ms figure timed only a kernel-internal interval. The
  end-to-end path pays API configuration round trips and the byte-wise
  copy of a ~45 MiB vmlinux through vm-memory;
* **storage** — extra drives cannot be attached at runtime, so Firecracker
  is excluded from the fio experiments (Section 3.3).
"""

from __future__ import annotations

from repro.errors import UnsupportedOperationError
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
from repro.units import MB, ms, us
from repro.virtio.blk import VirtioBlk
from repro.virtio.queue import Virtqueue

__all__ = ["FirecrackerPlatform"]

#: vm-memory crate copy bandwidth for placing the kernel image: the
#: byte-wise, bounds-checked GuestMemory path, far below a raw memcpy.
VM_MEMORY_LOAD_BANDWIDTH = 200 * MB

#: Device-model size (virtio-net, virtio-blk, serial, i8042, clock...).
DEVICE_COUNT = 7


class FirecrackerPlatform(Platform):
    """Firecracker microVM."""

    name = "firecracker"
    label = "Firecracker"
    family = PlatformFamily.HYPERVISOR

    def __init__(self, machine=None) -> None:
        super().__init__(machine)
        self.guest_kernel = standard_linux_guest(uncompressed=True)
        # Firecracker handles virtqueue kicks in its own epoll loop, not
        # via in-kernel ioeventfd handling: every kick bounces to userspace.
        self.virtio_blk = VirtioBlk(
            queue=Virtqueue("fc-blk-vq", ioeventfd=False),
            vmm_request_handling_s=us(5.0),
        )

    def cpu_profile(self) -> CpuProfile:
        return CpuProfile(scheduler=CfsScheduler(), vcpus=GUEST_VCPUS)

    def memory_profile(self) -> MemoryProfile:
        # Finding 4: the outlier — higher average latency AND higher
        # standard deviation, plus reduced copy throughput (vm-memory).
        return MemoryProfile(
            nested_paging=True,
            dram_latency_factor=1.42,
            bandwidth_factor=0.80,
            stream_bandwidth_factor=0.82,
            latency_std=0.11,
            bandwidth_std=0.03,
        )

    def io_profile(self) -> IoProfile:
        raise UnsupportedOperationError(
            "Firecracker does not support attaching extra storage devices; "
            "excluded from the fio experiments (Section 3.3)"
        )

    def net_profile(self) -> NetProfile:
        return NetProfile(
            path=TapVirtioPath(maturity_overhead=1.18), stack=GuestLinuxStack()
        )

    def boot_phases(self) -> list[BootPhase]:
        return [
            BootPhase("firecracker-process-start", ms(14.0), rel_std=0.08),
            # PUT /machine-config, /boot-source, /drives, /network-interfaces,
            # /actions(InstanceStart): serialized unix-socket REST calls.
            BootPhase("api-configuration", ms(30.0), rel_std=0.10),
            BootPhase("kvm-vm-setup", ms(3.0), rel_std=0.10),
            BootPhase(
                "vmlinux-load-vm-memory",
                self.guest_kernel.load_time_s(VM_MEMORY_LOAD_BANDWIDTH),
                rel_std=0.07,
            ),
            BootPhase(
                "kernel-init",
                self.guest_kernel.kernel_init_time_s(DEVICE_COUNT),
                rel_std=0.06,
            ),
            BootPhase("patched-init-exit", ms(1.2), rel_std=0.2),
            BootPhase("teardown", ms(6.0), rel_std=0.12),
        ]

    def isolation_mechanisms(self) -> list[str]:
        return [
            "hardware-virtualization",
            "separate-guest-kernel",
            "jailer-chroot",
            "seccomp-vmm-filter",
        ]
