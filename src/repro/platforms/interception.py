"""gVisor's syscall-interception platforms (Section 2.3.2).

gVisor stops guest syscalls from reaching the host through a *platform*:

* **ptrace** — the Sentry attaches with ``PTRACE_SYSEMU``: every guest
  syscall raises a trap that the host kernel converts into a signal
  delivery to the Sentry's tracer thread, which emulates the call and
  resumes the tracee. Two full context switches per syscall make this
  "relatively high context-switch penalty" path expensive.
* **KVM** — the guest runs as a KVM VM; a syscall traps to the Sentry
  via a lightweight VM exit, and address-space switches use hardware
  support instead of ``mmap`` tricks.

The model prices both pipelines from their primitive steps so the
platform factor gVisor applies to syscall-heavy workloads is *derived*,
not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.kernel import kvm
from repro.units import ns, us

__all__ = ["InterceptionPlatform", "PtracePlatform", "KvmPlatform"]

#: Cost of one user->kernel->user mode switch on the testbed (syscall +
#: sysret + pipeline effects), without the work of the call itself.
MODE_SWITCH_COST = ns(60.0)


@dataclass(frozen=True)
class InterceptionPlatform:
    """One gVisor platform: the per-syscall interception pipeline."""

    name: str
    #: Host-kernel work to stop the guest and notify the Sentry.
    trap_cost_s: float
    #: Context/world switches per intercepted syscall (round trip).
    switch_count: int
    #: Cost of one switch on this pipeline.
    switch_cost_s: float
    #: Sentry-side emulation bookkeeping (task state, rseq, etc.).
    sentry_dispatch_s: float

    def __post_init__(self) -> None:
        if self.switch_count < 0:
            raise ConfigurationError("switch count must be non-negative")

    def interception_cost(self) -> float:
        """Added cost per guest syscall versus a native syscall."""
        return (
            self.trap_cost_s
            + self.switch_count * self.switch_cost_s
            + self.sentry_dispatch_s
        )


def PtracePlatform() -> InterceptionPlatform:
    """PTRACE_SYSEMU interception: signal delivery + scheduler round trips."""
    return InterceptionPlatform(
        name="ptrace",
        trap_cost_s=us(1.6),       # SIGTRAP generation + tracer wakeup
        switch_count=4,            # tracee->kernel->tracer and back again
        switch_cost_s=us(1.2),     # full context switch via the scheduler
        sentry_dispatch_s=us(0.7),
    )


def KvmPlatform() -> InterceptionPlatform:
    """KVM interception: a lightweight VM exit into the Sentry."""
    return InterceptionPlatform(
        name="kvm",
        trap_cost_s=kvm.exit_cost(kvm.ExitReason.IO, to_userspace=False),
        switch_count=2,            # world switch out and back
        switch_cost_s=MODE_SWITCH_COST,
        sentry_dispatch_s=us(0.7),
    )
