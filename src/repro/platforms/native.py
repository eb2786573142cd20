"""Bare-metal execution — the baseline every figure normalizes against."""

from __future__ import annotations

from repro.kernel.netdev import NativePath
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

__all__ = ["NativePlatform"]


class NativePlatform(Platform):
    """Processes running directly on the host, no isolation."""

    name = "native"
    label = "Native"
    family = PlatformFamily.NATIVE

    def cpu_profile(self) -> CpuProfile:
        return CpuProfile(
            scheduler=CfsScheduler(),
            vcpus=self.machine.total_threads,
        )

    def memory_profile(self) -> MemoryProfile:
        return MemoryProfile()

    def io_profile(self) -> IoProfile:
        # fio against the raw block device: the measurement floor.
        return IoProfile(
            per_request_latency_s=0.0,
            read_efficiency=1.0,
            write_efficiency=1.0,
        )

    def net_profile(self) -> NetProfile:
        return NetProfile(path=NativePath(), stack=HostLinuxStack())

    def boot_phases(self) -> list[BootPhase]:
        # fork + execve of a plain process; the floor of Figure 13.
        return [
            BootPhase("fork-exec", ms(2.0), rel_std=0.18),
            BootPhase("process-exit", ms(0.8), rel_std=0.2),
        ]

    def isolation_mechanisms(self) -> list[str]:
        return ["process-boundary"]
