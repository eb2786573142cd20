"""Host Linux kernel model.

Everything an isolation platform touches on the host side lives here:

* :mod:`repro.kernel.functions`   — the host-kernel *function catalog* that the
  HAP (horizontal attack profile) measurement traces against
* :mod:`repro.kernel.ftrace`      — the function tracer (trace-cmd equivalent)
* :mod:`repro.kernel.filesystems` — ext4 / ZFS / overlayfs / tmpfs models
* :mod:`repro.kernel.netstack`    — TCP/IP stack per-packet costs
* :mod:`repro.kernel.netdev`      — bridge / veth / TAP virtual devices
* :mod:`repro.kernel.namespaces`  — namespace kinds and creation costs
* :mod:`repro.kernel.cgroups`     — cgroup v1/v2 controllers
* :mod:`repro.kernel.sched`       — CFS scheduling-efficiency model
* :mod:`repro.kernel.kvm`         — VM exit costs
"""

from repro.kernel.functions import KernelFunction, KernelFunctionCatalog, Subsystem
from repro.kernel.ftrace import Ftrace
from repro.kernel.filesystems import Filesystem, FILESYSTEMS
from repro.kernel.netstack import NetStack, HostLinuxStack, GvisorNetstack, GuestLinuxStack, OsvStack
from repro.kernel.netdev import (
    NetDevice,
    NetPath,
    BridgePath,
    TapVirtioPath,
    KataVhostPath,
    NetstackPath,
    NativePath,
)
from repro.kernel.namespaces import NamespaceKind, NamespaceSet
from repro.kernel.cgroups import CgroupVersion, CgroupSetup
from repro.kernel.sched import CfsScheduler, ThreadScheduler
from repro.kernel.kvm import ExitReason, exit_cost

__all__ = [
    "KernelFunction",
    "KernelFunctionCatalog",
    "Subsystem",
    "Ftrace",
    "Filesystem",
    "FILESYSTEMS",
    "NetStack",
    "HostLinuxStack",
    "GvisorNetstack",
    "GuestLinuxStack",
    "OsvStack",
    "NetDevice",
    "NetPath",
    "KataVhostPath",
    "BridgePath",
    "TapVirtioPath",
    "NetstackPath",
    "NativePath",
    "NamespaceKind",
    "NamespaceSet",
    "CgroupVersion",
    "CgroupSetup",
    "CfsScheduler",
    "ThreadScheduler",
    "ExitReason",
    "exit_cost",
]
