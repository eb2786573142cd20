"""Isolation platform models and registry.

``get_platform(name)`` constructs any of the studied configurations;
``PLATFORM_SETS`` groups them the way the paper's figures do (each figure
excludes the platforms that cannot run its workload).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.hardware.topology import Machine
from repro.platforms.base import (
    BootPhase,
    CpuProfile,
    IoProfile,
    MemoryProfile,
    NetProfile,
    Platform,
    PlatformFamily,
)
from repro.platforms.cloud_hypervisor import CloudHypervisorPlatform
from repro.platforms.docker import DockerPlatform
from repro.platforms.firecracker import FirecrackerPlatform
from repro.platforms.gvisor import GvisorPlatform
from repro.platforms.kata import KataPlatform
from repro.platforms.lxc import LxcPlatform
from repro.platforms.native import NativePlatform
from repro.platforms.osv import OsvPlatform
from repro.platforms.qemu import QemuMachineModel, QemuPlatform

__all__ = [
    "Platform",
    "PlatformFamily",
    "CpuProfile",
    "MemoryProfile",
    "IoProfile",
    "NetProfile",
    "BootPhase",
    "NativePlatform",
    "DockerPlatform",
    "LxcPlatform",
    "QemuPlatform",
    "QemuMachineModel",
    "FirecrackerPlatform",
    "CloudHypervisorPlatform",
    "KataPlatform",
    "GvisorPlatform",
    "OsvPlatform",
    "get_platform",
    "platform_names",
    "PLATFORM_SETS",
]

_FACTORIES: dict[str, Callable[..., Platform]] = {
    "native": NativePlatform,
    "docker": DockerPlatform,
    "docker-oci": lambda machine=None: DockerPlatform(machine, via_daemon=False),
    "lxc": LxcPlatform,
    "lxc-unprivileged": lambda machine=None: LxcPlatform(machine, unprivileged=True),
    "qemu": QemuPlatform,
    "qemu-qboot": lambda machine=None: QemuPlatform(
        machine, machine_model=QemuMachineModel.QBOOT
    ),
    "qemu-microvm": lambda machine=None: QemuPlatform(
        machine, machine_model=QemuMachineModel.MICROVM
    ),
    "firecracker": FirecrackerPlatform,
    "cloud-hypervisor": CloudHypervisorPlatform,
    "kata": KataPlatform,
    "kata-virtiofs": lambda machine=None: KataPlatform(machine, rootfs_transport="virtiofs"),
    "gvisor": GvisorPlatform,
    "gvisor-ptrace": lambda machine=None: GvisorPlatform(machine, kvm_platform=False),
    "osv": OsvPlatform,
    "osv-fc": lambda machine=None: OsvPlatform(machine, hypervisor="firecracker"),
    "osv-qemu-microvm": lambda machine=None: OsvPlatform(
        machine, qemu_machine_model=QemuMachineModel.MICROVM
    ),
}


def platform_names() -> list[str]:
    """All registered platform configuration names."""
    return sorted(_FACTORIES)


def get_platform(name: str, machine: Machine | None = None) -> Platform:
    """Construct a platform by registry name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(platform_names())
        raise ConfigurationError(f"unknown platform {name!r}; known: {known}") from None
    return factory(machine) if machine is not None else factory()


#: Figure-by-figure platform rosters (the paper's exclusions, Section 3).
PLATFORM_SETS: dict[str, list[str]] = {
    # Figure 5 / CPU: everything.
    "cpu": [
        "native", "docker", "lxc", "qemu", "firecracker", "cloud-hypervisor",
        "kata", "gvisor", "osv",
    ],
    # Figures 6-8 / memory: everything incl. the OSv-FC contrast.
    "memory": [
        "native", "docker", "lxc", "qemu", "firecracker", "cloud-hypervisor",
        "kata", "gvisor", "osv", "osv-fc",
    ],
    # Figure 9 / fio throughput: no Firecracker (extra drives), no OSv (libaio).
    "io_throughput": [
        "native", "docker", "lxc", "qemu", "cloud-hypervisor", "kata", "gvisor",
    ],
    # Figure 10 / fio latency: additionally no gVisor (uncircumventable cache).
    "io_latency": [
        "native", "docker", "lxc", "qemu", "cloud-hypervisor", "kata",
    ],
    # Figures 11-12 / network: everything incl. OSv-FC.
    "network": [
        "native", "docker", "lxc", "qemu", "firecracker", "cloud-hypervisor",
        "kata", "gvisor", "osv", "osv-fc",
    ],
    # Figure 13 / container startup: OCI and daemon variants.
    "container_boot": [
        "docker", "docker-oci", "gvisor", "kata", "lxc",
    ],
    # Figure 14 / hypervisor startup: same Linux kernel + rootfs everywhere.
    "hypervisor_boot": [
        "qemu", "qemu-qboot", "qemu-microvm", "firecracker", "cloud-hypervisor",
    ],
    # Figure 15 / OSv startup under its supported hypervisors.
    "osv_boot": [
        "osv", "osv-fc", "osv-qemu-microvm",
    ],
    # Figures 16-17 / applications.
    "applications": [
        "native", "docker", "lxc", "qemu", "firecracker", "cloud-hypervisor",
        "kata", "gvisor", "osv",
    ],
    # Figure 18 / HAP.
    "security": [
        "native", "docker", "lxc", "qemu", "firecracker", "cloud-hypervisor",
        "kata", "gvisor", "osv",
    ],
}
