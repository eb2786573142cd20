"""CPU execution model.

Models the compute-side quantities the paper's CPU benchmarks depend on:

* scalar integer throughput (sysbench prime verification), which is
  identical across all platforms because guest code executes natively under
  hardware-assisted virtualization (Finding 1, first half);
* multi-threaded SIMD-heavy throughput (ffmpeg H.264→H.265 re-encode),
  where platform differences come from *thread-scheduling efficiency* and
  SIMD state-handling overhead, not raw instruction speed (Finding 1,
  second half).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GHZ

__all__ = ["CpuModel"]


@dataclass(frozen=True)
class CpuModel:
    """A socketed x86-64 CPU.

    Parameters mirror the AMD EPYC2 7542: 32 physical cores with SMT-2,
    2.9 GHz base clock, 256-bit SIMD datapath.
    """

    name: str = "AMD EPYC 7542"
    physical_cores: int = 32
    threads_per_core: int = 2
    base_frequency_hz: float = 2.9 * GHZ
    scalar_ipc: float = 3.0
    simd_lanes_64bit: int = 4  # 256-bit AVX2 datapath
    smt_throughput_factor: float = 1.25  # 2 SMT threads ~ 1.25x one core

    def __post_init__(self) -> None:
        if self.physical_cores < 1:
            raise ConfigurationError("CPU needs at least one core")
        if self.base_frequency_hz <= 0:
            raise ConfigurationError("CPU frequency must be positive")

    @property
    def hardware_threads(self) -> int:
        """Logical CPUs exposed to the OS."""
        return self.physical_cores * self.threads_per_core

    # --- throughput ---------------------------------------------------------

    def scalar_ops_per_second(self, threads: int = 1) -> float:
        """Aggregate scalar ops/s for ``threads`` runnable threads."""
        return self.base_frequency_hz * self.scalar_ipc * self.effective_cores(threads)

    def simd_ops_per_second(self, threads: int = 1) -> float:
        """Aggregate 64-bit-lane SIMD ops/s for ``threads`` threads."""
        return (
            self.base_frequency_hz
            * self.simd_lanes_64bit
            * self.effective_cores(threads)
        )

    def effective_cores(self, threads: int) -> float:
        """Translate a thread count into effective full-core equivalents.

        Up to the physical core count each thread is one core; beyond that,
        SMT siblings add only the SMT throughput bonus.
        """
        if threads < 1:
            raise ConfigurationError(f"thread count must be >= 1, got {threads}")
        threads = min(threads, self.hardware_threads)
        if threads <= self.physical_cores:
            return float(threads)
        smt_pairs = threads - self.physical_cores
        singles = self.physical_cores - smt_pairs
        return singles + smt_pairs * self.smt_throughput_factor
