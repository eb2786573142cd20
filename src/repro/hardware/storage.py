"""NVMe block device model.

The testbed's "dedicated fast NVMe SSD". fio drives it with ``libaio`` and
``direct=1`` so the figures reflect raw device behaviour plus whatever the
isolation platform's block path adds on top. The device model exposes:

* sustained sequential throughput for large (128 KiB) requests, asymmetric
  between read and write;
* 4 KiB random-read service latency with realistic dispersion, for a
  block of completions at once;
* a simple queue-depth throughput curve so the libaio in-flight window
  matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.rng import RngStream
from repro.units import GB, KIB, us

__all__ = ["NvmeDevice"]


@dataclass(frozen=True)
class NvmeDevice:
    """A datacenter NVMe SSD (PCIe 3 x4 class)."""

    name: str = "nvme0n1"
    seq_read_bw: float = 3.20 * GB
    seq_write_bw: float = 2.45 * GB
    rand_read_latency_s: float = us(84.0)
    rand_read_latency_std: float = 0.08  # relative
    max_queue_depth: int = 1024
    per_request_overhead_s: float = us(6.0)

    def __post_init__(self) -> None:
        if self.seq_read_bw <= 0 or self.seq_write_bw <= 0:
            raise ConfigurationError("device bandwidth must be positive")
        if self.rand_read_latency_s <= 0:
            raise ConfigurationError("device latency must be positive")

    # --- throughput -------------------------------------------------------------

    def queue_depth_scaling(self, queue_depth: int) -> float:
        """Fraction of peak throughput reached at a given queue depth.

        NVMe devices need concurrency to hit peak bandwidth; the curve
        saturates quickly for the large-block sequential workloads fio uses.
        """
        if queue_depth < 1:
            raise ConfigurationError("queue depth must be >= 1")
        depth = min(queue_depth, self.max_queue_depth)
        return depth / (depth + 1.5)

    def sequential_bandwidth(self, *, write: bool, queue_depth: int = 32) -> float:
        """Sustained bytes/second for a 128 KiB-block sequential stream."""
        peak = self.seq_write_bw if write else self.seq_read_bw
        return peak * self.queue_depth_scaling(queue_depth)

    # --- latency -----------------------------------------------------------------

    def random_read_latencies(
        self, rng: RngStream, count: int, block_bytes: int = 4 * KIB
    ) -> list[float]:
        """``count`` random-read completion latencies at the device, in order.

        Each adds the transfer time for the requested block on top of the
        flash-array access time; dispersion follows a clipped Gaussian. The
        completions' noise factors come from ``rng`` as one block
        (:meth:`RngStream.gaussian_factors`), equal to one draw per
        completion.
        """
        if block_bytes <= 0:
            raise ConfigurationError("block size must be positive")
        base = self.rand_read_latency_s + block_bytes / self.seq_read_bw
        overhead = self.per_request_overhead_s
        factors = rng.gaussian_factors(self.rand_read_latency_std, count)
        return [base * factor + overhead for factor in factors]
