"""The virtqueue: shared-memory descriptor ring between guest and VMM.

A request crosses the ring in four steps: the guest posts descriptors,
*kicks* the device (an MMIO/PIO write → VM exit, or an ioeventfd the host
kernel absorbs), the device-model thread processes the descriptors, and
completion raises an interrupt back into the guest (another world switch).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.kernel import kvm
from repro.units import us

__all__ = ["Virtqueue"]


@dataclass(frozen=True)
class Virtqueue:
    """Cost model of one virtqueue.

    * ``size`` — ring entries (QEMU default 256, Firecracker 256);
    * ``ioeventfd`` — whether kicks are absorbed in the kernel (QEMU/CLH)
      or bounced to the VMM process (Firecracker polls its own epoll loop).
    """

    name: str
    size: int = 256
    ioeventfd: bool = True
    descriptor_processing_s: float = us(0.35)
    interrupt_injection_s: float = us(1.1)

    def __post_init__(self) -> None:
        if self.size < 2 or self.size & (self.size - 1):
            raise ConfigurationError(f"{self.name}: ring size must be a power of two >= 2")

    def kick_cost(self) -> float:
        """Cost of one guest->host notification (a VM exit)."""
        return kvm.exit_cost(kvm.ExitReason.VIRTQUEUE_KICK, to_userspace=not self.ioeventfd)

    def round_trip_latency(self) -> float:
        """Latency of a single un-batched request/response crossing."""
        return self.kick_cost() + self.descriptor_processing_s + self.interrupt_injection_s
