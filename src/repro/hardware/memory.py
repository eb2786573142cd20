"""DRAM subsystem: sustained bandwidth and loaded latency.

Combines the cache hierarchy and TLB models into the two observable
quantities the paper's memory benchmarks report:

* **random-access latency vs. buffer size** (tinymembench, Figure 6) —
  cache-level blend + TLB overhead;
* **sequential copy bandwidth** (tinymembench copy / SSE2 copy, Figure 7,
  and STREAM COPY, Figure 8) — prefetch-friendly streaming limited by
  sustained DRAM bandwidth, with an optional instruction-mix factor for
  SSE2 non-temporal stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hardware.cache import CacheHierarchy
from repro.hardware.tlb import TlbModel
from repro.units import GIB

__all__ = ["MemorySubsystem"]


@dataclass
class MemorySubsystem:
    """Memory performance model for one NUMA node of the testbed.

    ``single_thread_copy_bw`` is the sustained single-threaded copy rate a
    benchmark like tinymembench observes (~11 GiB/s on Zen2); STREAM with
    its larger 2.2 GiB working set and non-temporal stores sustains a bit
    more (``stream_copy_bw``).
    """

    total_bytes: int = 256 * GIB
    caches: CacheHierarchy = field(default_factory=CacheHierarchy)
    tlb: TlbModel = field(default_factory=TlbModel)
    single_thread_copy_bw: float = 11.2 * GIB
    sse2_copy_bw: float = 11.8 * GIB
    stream_copy_bw: float = 18.6 * GIB

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ConfigurationError("memory size must be positive")
        if min(self.single_thread_copy_bw, self.sse2_copy_bw, self.stream_copy_bw) <= 0:
            raise ConfigurationError("bandwidths must be positive")

    # --- latency --------------------------------------------------------------

    def random_access_latency(
        self,
        buffer_bytes: int,
        *,
        huge_pages: bool = False,
        nested_paging: bool = False,
    ) -> float:
        """Expected latency of one dependent random access in the buffer."""
        cache_part = self.caches.random_access_latency(buffer_bytes)
        tlb_part = self.tlb.expected_overhead(
            buffer_bytes, huge_pages=huge_pages, nested=nested_paging
        )
        return cache_part + tlb_part

    def extra_latency_over_l1(
        self,
        buffer_bytes: int,
        *,
        huge_pages: bool = False,
        nested_paging: bool = False,
    ) -> float:
        """The Figure 6 y-axis: latency above the L1 floor."""
        return max(
            0.0,
            self.random_access_latency(
                buffer_bytes, huge_pages=huge_pages, nested_paging=nested_paging
            )
            - self.caches.l1_latency_s,
        )

    # --- bandwidth --------------------------------------------------------------

    def copy_bandwidth(self, *, sse2: bool = False) -> float:
        """Single-thread sequential copy bandwidth (tinymembench)."""
        return self.sse2_copy_bw if sse2 else self.single_thread_copy_bw

    def stream_bandwidth(self) -> float:
        """STREAM COPY sustained bandwidth."""
        return self.stream_copy_bw
