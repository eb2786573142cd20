"""The KVM kernel module's VM exits and what each one costs.

Every hypervisor in the study (QEMU, Firecracker, Cloud Hypervisor, the VM
inside Kata, and gVisor's KVM platform) drives KVM through the same ioctl
sequence the paper describes in Section 2.1.1: create a VM, create vCPUs,
map guest memory, then loop on ``ioctl(KVM_RUN)``; the guest runs natively
until it traps out with a :class:`ExitReason` that the VMM must handle.

Exit costs show in I/O-heavy workloads.
"""

from __future__ import annotations

import enum

from repro.units import us

__all__ = ["ExitReason", "exit_cost"]


class ExitReason(enum.Enum):
    """KVM_EXIT reasons the device models produce."""

    IO = "io"                      # port I/O (legacy devices)
    MMIO = "mmio"                  # memory-mapped device access
    VIRTQUEUE_KICK = "virtqueue"   # guest notified a virtqueue (ioeventfd)
    HLT = "hlt"                    # guest idled
    EPT_VIOLATION = "ept"          # nested page fault
    INTERRUPT_WINDOW = "intr"


#: World-switch cost (VMEXIT + VMENTRY microcode + state save/restore).
EXIT_BASE_COST_S = us(1.3)

#: Extra cost when the exit must be bounced to the user-space VMM instead
#: of being handled inside the kernel (ioeventfd spares this).
USERSPACE_BOUNCE_COST_S = us(2.8)

_EXIT_HANDLER_COST_S: dict[ExitReason, float] = {
    ExitReason.IO: us(1.8),
    ExitReason.MMIO: us(2.3),
    ExitReason.VIRTQUEUE_KICK: us(0.9),
    ExitReason.HLT: us(0.6),
    ExitReason.EPT_VIOLATION: us(2.0),
    ExitReason.INTERRUPT_WINDOW: us(0.5),
}


def exit_cost(reason: ExitReason, *, to_userspace: bool) -> float:
    """Cost of one VM exit of the given kind.

    ``to_userspace`` distinguishes the in-kernel fast path (ioeventfd,
    APIC emulation) from the full bounce into the VMM process that the
    paper's Figure 1 depicts (KVM_EXIT -> main loop -> handler).
    """
    cost = EXIT_BASE_COST_S + _EXIT_HANDLER_COST_S[reason]
    if to_userspace:
        cost += USERSPACE_BOUNCE_COST_S
    return cost
