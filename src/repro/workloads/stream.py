"""STREAM COPY — sustained memory bandwidth (Figure 8).

``a[i] = b[i]`` over a 2.2 GiB total allocation, 16 bytes moved per
iteration, no floating-point ops. The paper reports the average of the
per-run *maximum* over 10 runs; sequential access prefetches perfectly, so
the figure isolates bandwidth rather than latency. All four STREAM kernels
ranked platforms identically, so COPY stands in for the set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.platforms.base import Platform
from repro.rng import RngStream
from repro.units import GIB, to_mib_per_s
from repro.workloads.base import Workload

__all__ = ["StreamWorkload", "StreamResult"]


@dataclass(frozen=True)
class StreamResult:
    """Best COPY rate of one STREAM invocation."""

    platform: str
    copy_bytes_per_s: float
    allocation_bytes: int

    @property
    def copy_mib_per_s(self) -> float:
        """Figure 8's y-axis."""
        return to_mib_per_s(self.copy_bytes_per_s)


class StreamWorkload(Workload):
    """STREAM with the paper's 2.2 GiB working set."""

    name = "stream"

    def __init__(self, allocation_bytes: int = int(2.2 * GIB), inner_trials: int = 10) -> None:
        if allocation_bytes <= 0:
            raise ConfigurationError("allocation must be positive")
        if inner_trials < 1:
            raise ConfigurationError("need at least one trial")
        self.allocation_bytes = allocation_bytes
        self.inner_trials = inner_trials

    def run(self, platform: Platform, rng: RngStream) -> StreamResult:
        profile = platform.memory_profile()
        base = platform.machine.memory.stream_bandwidth() * profile.effective_stream_factor
        # STREAM reports the best of its internal trials: sample the max.
        best = max(
            base * rng.child(f"trial-{index}").gaussian_factor(profile.bandwidth_std)
            for index in range(self.inner_trials)
        )
        return StreamResult(
            platform=platform.name,
            copy_bytes_per_s=best,
            allocation_bytes=self.allocation_bytes,
        )
