"""TLB model with 4 KiB and 2 MiB (hugepage) support.

Figure 6 of the paper attributes the latency growth with buffer size to
"an increasing proportion of TLB cache misses", and Section 3.2 reports a
~30 % access-latency reduction with hugepages on large buffers. Those are
the two behaviours this model produces.

Virtualized guests additionally pay *nested* page walks: with two-
dimensional paging (AMD NPT / Intel EPT) a TLB miss walks both the guest
and the host page tables, up to quadratically many memory references. The
``nested`` flag scales the walk cost accordingly; the per-platform memory
models in :mod:`repro.platforms` decide whether and how strongly it
applies (e.g. Kata's NVDIMM direct mapping avoids most of it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE, ns

__all__ = ["TlbModel"]


@dataclass(frozen=True)
class TlbModel:
    """Two-level TLB as found on EPYC2: L1 64 entries, L2 1536 entries.

    The model treats TLB reach as a coverage problem: a uniformly random
    access in a buffer larger than the TLB's reach misses with probability
    ``1 - reach/buffer``; L2 TLB hits cost a small refill penalty while full
    misses cost a page walk.
    """

    l1_entries: int = 64
    l2_entries: int = 1536
    l2_hit_penalty_s: float = ns(7.0)
    page_walk_s: float = ns(38.0)
    nested_walk_multiplier: float = 1.9  # 2D walk, partially hidden by walk caches

    def __post_init__(self) -> None:
        if self.l1_entries <= 0 or self.l2_entries <= self.l1_entries:
            raise ConfigurationError("need 0 < l1_entries < l2_entries")

    def reach_bytes(self, level_entries: int, huge_pages: bool) -> int:
        """Address range covered by ``level_entries`` TLB entries."""
        page = HUGE_PAGE_SIZE if huge_pages else PAGE_SIZE
        return level_entries * page

    def miss_fraction(self, buffer_bytes: int, reach: int) -> float:
        """Probability a random access falls outside ``reach`` coverage."""
        if buffer_bytes <= 0:
            raise ConfigurationError("buffer size must be positive")
        if buffer_bytes <= reach:
            return 0.0
        return 1.0 - reach / buffer_bytes

    def expected_overhead(
        self,
        buffer_bytes: int,
        *,
        huge_pages: bool = False,
        nested: bool = False,
    ) -> float:
        """Expected per-access TLB cost for a random access in the buffer.

        Composed of the L1-miss/L2-hit refill penalty plus the full-walk
        cost for accesses beyond L2 reach, optionally scaled for nested
        (two-dimensional) paging.
        """
        l1_reach = self.reach_bytes(self.l1_entries, huge_pages)
        l2_reach = self.reach_bytes(self.l2_entries, huge_pages)
        l1_miss = self.miss_fraction(buffer_bytes, l1_reach)
        l2_miss = self.miss_fraction(buffer_bytes, l2_reach)
        walk = self.page_walk_s * (self.nested_walk_multiplier if nested else 1.0)
        l2_hit_only = max(0.0, l1_miss - l2_miss)
        return l2_hit_only * self.l2_hit_penalty_s + l2_miss * walk
