"""Kata Containers — a container interface wrapped around a hypervisor
(Section 2.3.1).

``kata-runtime`` boots a stripped QEMU VM with an optimized kernel and a
Clear Linux mini-OS whose systemd immediately starts the ``kata-agent``;
the host runtime drives the agent over ttRPC-on-vsock, and the container's
rootfs is shared from the host through 9p (default) or virtio-fs.

Measured personality:

* memory performance is *not* impaired despite QEMU underneath —
  NVDIMM-style direct mapping bypasses the usual virtualization layer
  (Finding 3) at the price of a weaker isolation boundary;
* hugepages are unsupported (Section 3.2);
* block I/O through 9p is the worst in the study; virtio-fs brings it to
  QEMU level (Findings 6/7);
* network latency stays bridge-class thanks to vhost-net (Finding 10)
  while throughput is bounded by its weakest link, the QEMU datapath;
* startup pays for namespaces *plus* a hypervisor boot plus the agent
  handshake: ~600 ms (Finding 13);
* HAP is high: hypervisor + agent + shared filesystem all touch the host
  kernel (Finding 26), yet defense-in-depth is real (Finding 28).
"""

from __future__ import annotations

from repro.guests.clearlinux import ClearLinuxRootfs
from repro.guests.linux import kata_optimized_kernel
from repro.kernel.cgroups import CgroupSetup, CgroupVersion
from repro.kernel.namespaces import NamespaceSet
from repro.kernel.netdev import KataVhostPath
from repro.kernel.netstack import GuestLinuxStack
from repro.kernel.sched import CfsScheduler
from repro.platforms.base import (
    BootPhase,
    Capabilities,
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
from repro.virtio.fs import VirtioFs
from repro.virtio.ninep import NinePChannel

__all__ = ["KataPlatform"]

#: The stripped "qemu-lite" device model Kata configures.
DEVICE_COUNT = 9


class KataPlatform(Platform):
    """Kata containers (QEMU + kata-agent), 9p or virtio-fs rootfs."""

    name = "kata"
    label = "Kata"
    family = PlatformFamily.SECURE_CONTAINER

    def __init__(self, machine=None, *, rootfs_transport: str = "9p") -> None:
        super().__init__(machine)
        if rootfs_transport not in ("9p", "virtiofs"):
            raise ValueError(f"unknown rootfs transport: {rootfs_transport!r}")
        self.rootfs_transport = rootfs_transport
        if rootfs_transport == "virtiofs":
            self.name = "kata-virtiofs"
            self.label = "Kata (virtio-fs)"
        self.guest_kernel = kata_optimized_kernel()
        self.rootfs = ClearLinuxRootfs()
        self.namespaces = NamespaceSet.standard_container()
        self.cgroups = CgroupSetup(version=CgroupVersion.V1)
        self.ninep = NinePChannel(name="kata-9p")
        self.virtiofs = VirtioFs(name="kata-virtiofs")

    def cpu_profile(self) -> CpuProfile:
        return CpuProfile(scheduler=CfsScheduler(), vcpus=GUEST_VCPUS)

    def memory_profile(self) -> MemoryProfile:
        # Finding 3: QEMU's NVDIMM direct mapping + KSM avoid the usual
        # hypervisor memory penalty — at an isolation cost (Section 3.2).
        return MemoryProfile(
            nested_paging=True,
            direct_mapped=True,
            dram_latency_factor=1.0,
            bandwidth_factor=0.99,
            supports_hugepages=False,  # Section 3.2: no hugepage support
        )

    def io_profile(self) -> IoProfile:
        guest_block_layer = us(12.0)
        if self.rootfs_transport == "9p":
            # Every request is a 9p RPC chain across the VM boundary.
            nvme_read = self.machine.nvme.seq_read_bw
            return IoProfile(
                per_request_latency_s=self.ninep.operation_latency(4096)
                + guest_block_layer,
                read_efficiency=min(1.0, self.ninep.streaming_bandwidth() / nvme_read),
                write_efficiency=min(1.0, 0.9 * self.ninep.streaming_bandwidth() / nvme_read),
                latency_std=0.09,
                read_std=0.06,
                write_std=0.08,
                guest_page_cache=True,
                honors_o_direct_end_to_end=True,
            )
        # virtio-fs: FUSE-over-virtio with DAX — on par with QEMU (Finding 7).
        return IoProfile(
            per_request_latency_s=self.virtiofs.operation_latency(4096) + guest_block_layer,
            read_efficiency=0.95,
            write_efficiency=0.89,
            write_std=0.06,
            guest_page_cache=True,
        )

    def net_profile(self) -> NetProfile:
        return NetProfile(path=KataVhostPath(), stack=GuestLinuxStack())

    def boot_phases(self) -> list[BootPhase]:
        return [
            BootPhase("kata-runtime-init", ms(34.0), rel_std=0.10),
            BootPhase("namespaces", self.namespaces.creation_cost(), rel_std=0.15),
            BootPhase("cgroups", self.cgroups.setup_cost(), rel_std=0.15),
            # Host-side network plumbing: netns, tc-mirroring between the
            # veth and the VM's TAP device.
            BootPhase("netns-tc-plumbing", ms(160.0), rel_std=0.12),
            BootPhase("qemu-lite-start", ms(82.0), rel_std=0.08),
            BootPhase("kvm-vm-setup", ms(4.0), rel_std=0.10),
            BootPhase(
                "kernel-load",
                self.guest_kernel.load_time_s(KERNEL_LOAD_BANDWIDTH),
                rel_std=0.08,
            ),
            BootPhase(
                "kernel-init",
                self.guest_kernel.kernel_init_time_s(DEVICE_COUNT),
                rel_std=0.06,
            ),
            BootPhase("clearlinux-systemd", self.rootfs.systemd_bringup_s, rel_std=0.08),
            BootPhase("kata-agent-ready", self.rootfs.agent_ready_s, rel_std=0.10),
            BootPhase("vsock-ttrpc-handshake", ms(9.0), rel_std=0.15),
            BootPhase(f"rootfs-share-{self.rootfs_transport}", ms(24.0), rel_std=0.12),
            BootPhase("container-ctx-in-vm", ms(21.0), rel_std=0.12),
            BootPhase("payload-exit", ms(1.2), rel_std=0.2),
            BootPhase("vm-teardown", ms(78.0), rel_std=0.12),
        ]

    def packet_rate_capacity(self) -> float:
        # The veth -> bridge -> tc-mirror -> vhost chain saturates at a
        # modest small-packet rate: Kata's memcached surprise (Finding 18).
        return 450_000.0

    def oltp_capacity_factor(self) -> float:
        # Finding 22 attributes Kata's halved MySQL throughput to its
        # high I/O latency on the redo-log path (9p rootfs).
        return 0.55

    def capabilities(self) -> Capabilities:
        return Capabilities(hugepages=False)

    def isolation_mechanisms(self) -> list[str]:
        mechanisms = [f"namespace:{kind.value}" for kind in sorted(
            self.namespaces.kinds, key=lambda k: k.value)]
        mechanisms.extend(
            [
                "cgroups-v1",
                "hardware-virtualization",
                "separate-guest-kernel",
            ]
        )
        return mechanisms

    def hap_profile_name(self) -> str:
        return "kata"
