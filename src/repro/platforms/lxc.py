"""LXC — system containers aiming for "as close as possible to a standard
Linux installation".

Section 2.2.2: same namespace/cgroup machinery as runc, but a full systemd
init inside (the cause of its ~800 ms startup, Finding 13), a ZFS-backed
rootfs instead of overlay layers, and support for unprivileged containers
on cgroups v2.
"""

from __future__ import annotations

from repro.kernel.cgroups import CgroupSetup, CgroupVersion
from repro.kernel.filesystems import FILESYSTEMS
from repro.kernel.namespaces import NamespaceSet
from repro.kernel.netdev import BridgePath
from repro.kernel.netstack import HostLinuxStack
from repro.kernel.sched import CfsScheduler
from repro.guests.init import INIT_SYSTEMS
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
from repro.units import ms

__all__ = ["LxcPlatform"]


class LxcPlatform(Platform):
    """LXC system containers on a ZFS storage pool."""

    name = "lxc"
    label = "LXC"
    family = PlatformFamily.CONTAINER

    def __init__(self, machine=None, *, unprivileged: bool = False) -> None:
        super().__init__(machine)
        self.unprivileged = unprivileged
        if unprivileged:
            self.namespaces = NamespaceSet.unprivileged_container()
            self.cgroups = CgroupSetup(version=CgroupVersion.V2, unprivileged=True)
        else:
            self.namespaces = NamespaceSet.standard_container()
            self.cgroups = CgroupSetup(version=CgroupVersion.V1)
        self.init_system = INIT_SYSTEMS["systemd"]

    def cpu_profile(self) -> CpuProfile:
        return CpuProfile(scheduler=CfsScheduler(), vcpus=GUEST_VCPUS)

    def memory_profile(self) -> MemoryProfile:
        return MemoryProfile()

    def io_profile(self) -> IoProfile:
        # The benchmark disk is a fresh ZFS pool on the extra NVMe device.
        zfs = FILESYSTEMS["zfs"]
        return IoProfile(
            per_request_latency_s=zfs.per_op_overhead_s,
            read_efficiency=zfs.bandwidth_efficiency,
            write_efficiency=0.93,
            write_std=0.05,
        )

    def net_profile(self) -> NetProfile:
        # veth into lxcbr0; no NAT in the benchmark configuration.
        return NetProfile(path=BridgePath(nat=False), stack=HostLinuxStack())

    def boot_phases(self) -> list[BootPhase]:
        return [
            BootPhase("lxc-start-init", ms(42.0), rel_std=0.10),
            BootPhase("namespaces", self.namespaces.creation_cost(), rel_std=0.15),
            BootPhase("cgroups", self.cgroups.setup_cost(), rel_std=0.15),
            BootPhase("zfs-clone-rootfs", ms(65.0), rel_std=0.14),
            BootPhase("veth-bridge-attach", ms(24.0), rel_std=0.15),
            BootPhase(
                "systemd-boot",
                self.init_system.startup_time_s,
                rel_std=self.init_system.startup_std,
            ),
            BootPhase("payload-exit", ms(1.2), rel_std=0.2),
            BootPhase("systemd-shutdown", self.init_system.shutdown_time_s, rel_std=0.12),
        ]

    def isolation_mechanisms(self) -> list[str]:
        mechanisms = [f"namespace:{kind.value}" for kind in sorted(
            self.namespaces.kinds, key=lambda k: k.value)]
        mechanisms.append(f"cgroups-{self.cgroups.version.value}")
        mechanisms.append("apparmor-profile")
        if self.unprivileged:
            mechanisms.append("uid-mapping")
        return mechanisms
