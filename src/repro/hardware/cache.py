"""Cache hierarchy model.

Produces the *extra access latency on top of L1* for a random access inside
a working set of a given size — exactly the quantity Figure 6 of the paper
plots (tinymembench "dual random read" style). The model blends per-level
latencies by the probability that a uniformly random access inside the
buffer hits each level, assuming LRU-like inclusion (a buffer larger than a
level spills the excess to the next level).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import KIB, MIB, left_sum, ns

__all__ = ["CacheLevel", "CacheHierarchy"]


@dataclass(frozen=True)
class CacheLevel:
    """One cache level: capacity and load-to-use latency."""

    name: str
    capacity_bytes: int
    latency_s: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError(f"{self.name}: capacity must be positive")
        if self.latency_s < 0:
            raise ConfigurationError(f"{self.name}: latency must be non-negative")


class CacheHierarchy:
    """An inclusive multi-level cache in front of DRAM.

    Default parameters approximate one EPYC2 7542 CCX view:
    32 KiB L1D @ ~1.4 ns, 512 KiB L2 @ ~4.3 ns, 16 MiB L3 slice @ ~13.4 ns,
    DRAM @ ~ 105 ns loaded latency.
    """

    def __init__(
        self,
        levels: list[CacheLevel] | None = None,
        dram_latency_s: float = ns(105.0),
    ) -> None:
        if levels is None:
            levels = [
                CacheLevel("L1d", 32 * KIB, ns(1.4)),
                CacheLevel("L2", 512 * KIB, ns(4.3)),
                CacheLevel("L3", 16 * MIB, ns(13.4)),
            ]
        if not levels:
            raise ConfigurationError("cache hierarchy needs at least one level")
        for smaller, larger in zip(levels, levels[1:]):
            if smaller.capacity_bytes >= larger.capacity_bytes:
                raise ConfigurationError(
                    f"cache levels must grow: {smaller.name} >= {larger.name}"
                )
        if dram_latency_s <= levels[-1].latency_s:
            raise ConfigurationError("DRAM must be slower than the last cache level")
        self.levels = list(levels)
        self.dram_latency_s = dram_latency_s

    @property
    def l1_latency_s(self) -> float:
        """Latency of the first level (the baseline Figure 6 subtracts)."""
        return self.levels[0].latency_s

    def hit_fractions(self, buffer_bytes: int) -> list[tuple[str, float, float]]:
        """Probability mass of a random access landing in each level.

        Returns ``(level_name, fraction, latency)`` tuples including the
        final ``DRAM`` row; fractions sum to 1.
        """
        if buffer_bytes <= 0:
            raise ConfigurationError("buffer size must be positive")
        rows: list[tuple[str, float, float]] = []
        covered = 0
        for level in self.levels:
            if buffer_bytes <= covered:
                break
            span = min(level.capacity_bytes, buffer_bytes) - covered
            if span > 0:
                rows.append((level.name, span / buffer_bytes, level.latency_s))
                covered += span
        if buffer_bytes > covered:
            rows.append(("DRAM", (buffer_bytes - covered) / buffer_bytes, self.dram_latency_s))
        return rows

    def random_access_latency(self, buffer_bytes: int) -> float:
        """Expected latency of one random access within ``buffer_bytes``."""
        return left_sum(
            fraction * latency for _, fraction, latency in self.hit_fractions(buffer_bytes)
        )

    def extra_latency_over_l1(self, buffer_bytes: int) -> float:
        """Expected latency above the L1 floor (the Figure 6 y-axis)."""
        return max(0.0, self.random_access_latency(buffer_bytes) - self.l1_latency_s)
