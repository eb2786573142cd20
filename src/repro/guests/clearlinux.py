"""The Clear Linux 'mini OS' root filesystem used by Kata containers.

kata-runtime passes this image as the VM's rootfs; it uses systemd purely
to start the kata-agent immediately (Section 2.3.1). Its contribution to
startup time is the trimmed systemd bring-up plus the agent becoming ready
on the vsock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import MIB, ms

__all__ = ["ClearLinuxRootfs"]


@dataclass(frozen=True)
class ClearLinuxRootfs:
    """The Kata guest rootfs."""

    name: str = "clearlinux-mini"
    size_bytes: int = 120 * MIB
    #: Trimmed systemd: a handful of units, ending at kata-agent.service.
    systemd_bringup_s: float = ms(95.0)
    agent_ready_s: float = ms(35.0)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError("rootfs size must be positive")
