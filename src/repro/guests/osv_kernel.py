"""The OSv unikernel (Section 2.4.1).

OSv fuses the application with a library OS into a single image. The
properties that matter for the reproduction:

* **tiny image, trivial boot** — the flip in boot-time ordering between
  Figures 14 and 15 comes from here;
* **syscalls are function calls** — the dynamic ELF linker resolves glibc
  wrappers to OSv kernel functions, so there is no user/kernel mode switch
  (both run in ring 0): OSv's network fast path beats a Linux guest's;
* **custom thread scheduler** — immature compared to CFS; the source of
  the severe ffmpeg (Figure 5) and MySQL (Figure 17) penalties;
* **no multi-process support** — ``fork()``/``exec()`` unavailable, which
  keeps OSv out of several benchmarks' platform sets;
* **no libaio** — fio is excluded on OSv (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.kernel.sched import CustomScheduler, ThreadScheduler
from repro.units import MIB, ms

__all__ = ["OsvImage", "osv_image"]


@dataclass(frozen=True)
class OsvImage:
    """One fused OSv application image."""

    name: str
    size_bytes: int
    #: OSv kernel init: paging, ZFS mount, ELF link of the application.
    boot_time_s: float
    scheduler: ThreadScheduler = field(
        default_factory=lambda: CustomScheduler(
            "osv-scheduler",
            work_conserving_efficiency=0.80,
            oversubscription_penalty=0.9,
            contention_exponent=1.5,
        )
    )
    #: Multiplier on SIMD-heavy code: lazy FPU/SIMD state handling and
    #: missing scheduler affinity cost wide-vector workloads extra.
    simd_overhead_factor: float = 1.32

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError("image size must be positive")
        if self.simd_overhead_factor < 1.0:
            raise ConfigurationError("SIMD overhead factor must be >= 1")

    def load_time_s(self, load_bandwidth: float) -> float:
        """Seconds for the VMM to read and place the image."""
        if load_bandwidth <= 0:
            raise ConfigurationError("load bandwidth must be positive")
        return self.size_bytes / load_bandwidth


def osv_image(application: str = "noop") -> OsvImage:
    """Build the default OSv image used in the boot experiments.

    The boot-time experiment invokes OSv "without a program to run,
    resulting in an immediate shutdown after it completes its boot
    sequence" (Section 3.5).
    """
    return OsvImage(
        name=f"osv-{application}",
        size_bytes=7 * MIB,
        boot_time_s=ms(11.0),
    )
