"""virtio-blk: the paravirtualized block device.

The guest's block requests cross a virtqueue into the VMM's disk handler,
which issues host I/O against the backing file/device. Costs: the ring
crossing per request, the VMM's request handling, and (for the throughput
figures) a bandwidth efficiency for the host-side backing path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import us
from repro.virtio.queue import Virtqueue

__all__ = ["VirtioBlk"]


@dataclass(frozen=True)
class VirtioBlk:
    """Cost model of one virtio-blk device.

    ``vmm_request_handling_s`` reflects the device-model implementation:
    QEMU's mature AIO path is cheap; younger Rust VMMs do more per-request
    work (Cloud Hypervisor's poor Figure 9 throughput).
    """

    name: str = "virtio-blk"
    queue: Virtqueue = field(default_factory=lambda: Virtqueue("blk-vq"))
    vmm_request_handling_s: float = us(3.0)
    bandwidth_efficiency: float = 0.97

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_efficiency <= 1.0:
            raise ConfigurationError(f"{self.name}: efficiency must be in (0, 1]")
        if self.vmm_request_handling_s < 0:
            raise ConfigurationError(f"{self.name}: negative handling cost")

    def request_latency_overhead(self) -> float:
        """Un-batched single-request overhead (the fio randread case)."""
        return self.queue.round_trip_latency() + self.vmm_request_handling_s
