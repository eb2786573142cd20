"""virtio-fs: FUSE over virtio with DAX window support.

The successor to 9P for host/guest file sharing (Section 3.3): it drops
the "client and server are separated by a network" assumption, carries
FUSE requests over a virtqueue, and can map file contents directly into
the guest (DAX), removing per-byte copies entirely for cached data. The
paper finds Kata+virtio-fs on par with plain QEMU block I/O (Finding 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import us
from repro.virtio.queue import Virtqueue

__all__ = ["VirtioFs"]


@dataclass(frozen=True)
class VirtioFs:
    """Cost model of one virtio-fs mount."""

    name: str = "virtiofs"
    queue: Virtqueue = field(default_factory=lambda: Virtqueue("fs-vq"))
    daemon_processing_s: float = us(7.0)  # virtiofsd request handling
    dax_enabled: bool = True
    #: Fraction of data operations served through the DAX window (no copy).
    dax_hit_ratio: float = 0.55
    per_byte_cost_s: float = 1.0 / (6.5e9)  # shared-memory copy path

    def __post_init__(self) -> None:
        if not 0.0 <= self.dax_hit_ratio <= 1.0:
            raise ConfigurationError("DAX hit ratio must be in [0, 1]")

    def operation_latency(self, payload_bytes: int = 0) -> float:
        """Latency of one FUSE operation carrying ``payload_bytes``."""
        if payload_bytes < 0:
            raise ConfigurationError("negative payload")
        latency = self.queue.round_trip_latency() + self.daemon_processing_s
        copy_bytes = payload_bytes
        if self.dax_enabled:
            copy_bytes *= 1.0 - self.dax_hit_ratio
        return latency + copy_bytes * self.per_byte_cost_s
