"""Docker (runc) — namespaces + cgroups behind the Docker daemon.

Section 2.2.1: the CLI talks to ``dockerd``, which delegates container
creation to ``runc``; isolation comes entirely from host-kernel
namespaces and cgroups, the rootfs is a layered overlayfs, and the
benchmark volume is a bind mount. Figure 13 measures both the full
daemon path and direct OCI (``runc``) invocation — the daemon adds
~250 ms.
"""

from __future__ import annotations

from repro.kernel.cgroups import CgroupSetup, CgroupVersion
from repro.kernel.filesystems import FILESYSTEMS
from repro.kernel.namespaces import NamespaceSet
from repro.kernel.netdev import BridgePath
from repro.kernel.netstack import HostLinuxStack
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
from repro.units import ms

__all__ = ["DockerPlatform"]

#: ffmpeg guests get 16 CPUs across all platforms (Section 3.1).
GUEST_VCPUS = 16


class DockerPlatform(Platform):
    """Docker with the default runc runtime."""

    name = "docker"
    label = "Docker"
    family = PlatformFamily.CONTAINER

    def __init__(self, machine=None, *, via_daemon: bool = True) -> None:
        super().__init__(machine)
        self.via_daemon = via_daemon
        if not via_daemon:
            self.label = "Docker (OCI)"
        self.namespaces = NamespaceSet.standard_container()
        self.cgroups = CgroupSetup(version=CgroupVersion.V1)

    def cpu_profile(self) -> CpuProfile:
        # Containers share the host CFS scheduler: no compute overhead.
        return CpuProfile(scheduler=CfsScheduler(), vcpus=GUEST_VCPUS)

    def memory_profile(self) -> MemoryProfile:
        # Same page tables as native; no nested paging.
        return MemoryProfile()

    def io_profile(self) -> IoProfile:
        # Benchmark volume is a bind mount: one extra VFS/overlay hop.
        overlay = FILESYSTEMS["overlayfs"]
        return IoProfile(
            per_request_latency_s=overlay.per_op_overhead_s,
            read_efficiency=overlay.bandwidth_efficiency,
            write_efficiency=0.975,
        )

    def net_profile(self) -> NetProfile:
        # veth pair into docker0 plus the iptables NAT rules.
        return NetProfile(path=BridgePath(nat=True), stack=HostLinuxStack())

    def boot_phases(self) -> list[BootPhase]:
        phases: list[BootPhase] = []
        if self.via_daemon:
            # CLI -> REST API -> containerd -> shim round trips, plus
            # snapshot preparation in the graph driver.
            phases.append(BootPhase("dockerd-api", ms(130.0), rel_std=0.10))
            phases.append(BootPhase("graphdriver-prepare", ms(85.0), rel_std=0.12))
            phases.append(BootPhase("dockerd-network-setup", ms(38.0), rel_std=0.12))
        phases.extend(
            [
                BootPhase("runc-init", ms(16.0), rel_std=0.10),
                BootPhase("namespaces", self.namespaces.creation_cost(), rel_std=0.15),
                BootPhase("cgroups", self.cgroups.setup_cost(), rel_std=0.15),
                BootPhase("rootfs-mount", ms(30.0), rel_std=0.12),
                BootPhase("veth-bridge-attach", ms(26.0), rel_std=0.15),
                BootPhase("tini-exec", ms(5.0), rel_std=0.15),
                BootPhase("payload-exit", ms(1.2), rel_std=0.2),
                BootPhase("teardown", ms(18.0), rel_std=0.15),
            ]
        )
        return phases

    def isolation_mechanisms(self) -> list[str]:
        mechanisms = [f"namespace:{kind.value}" for kind in sorted(
            self.namespaces.kinds, key=lambda k: k.value)]
        mechanisms.append("cgroups-v1")
        mechanisms.append("seccomp-default-profile")
        mechanisms.append("capabilities-drop")
        return mechanisms

    def hap_profile_name(self) -> str:
        return "docker"
