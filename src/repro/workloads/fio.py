"""fio — block-level I/O benchmarks (Figures 9 and 10).

Throughput: sequential read/write in 128 KiB blocks through the libaio
engine with ``direct=1``, against a file twice the platform's RAM
pre-allocated with ``fallocate()``. Latency: 4 KiB ``randread``, the mean
of ``samples`` simulated completions whose device noise factors are drawn
as one block and summed in completion order.

Exclusions, as in Section 3.3 (enforced via capabilities):

* Firecracker cannot attach extra storage devices;
* OSv has no working libaio engine;
* gVisor is excluded from the randread *latency* figure because its reads
  stay cached even after dropping both page caches.

The module also reproduces the paper's double-caching pitfall: running a
hypervisor without dropping the **host** buffer cache first lets guest
"direct" reads hit host memory, and the hypervisor appears faster than
bare metal (``drop_host_cache=False``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.platforms.base import Platform
from repro.rng import RngStream
from repro.units import KIB, left_sum, seconds_to_us, to_mb_per_s
from repro.workloads.base import Workload

__all__ = ["FioThroughputWorkload", "FioLatencyWorkload", "FioResult", "FioLatencyResult"]

#: Share of guest "direct" reads served by the host buffer cache when the
#: host cache is not dropped (the loop-device pitfall).
_HOST_CACHE_HIT_RATIO = 0.85


@dataclass(frozen=True)
class FioResult:
    """Sequential throughput of one fio run."""

    platform: str
    read_bytes_per_s: float
    write_bytes_per_s: float
    block_bytes: int
    host_cache_dropped: bool

    @property
    def read_mb_per_s(self) -> float:
        return to_mb_per_s(self.read_bytes_per_s)

    @property
    def write_mb_per_s(self) -> float:
        return to_mb_per_s(self.write_bytes_per_s)


@dataclass(frozen=True)
class FioLatencyResult:
    """Random-read latency of one fio run."""

    platform: str
    mean_latency_s: float
    block_bytes: int

    @property
    def mean_latency_us(self) -> float:
        """Figure 10's y-axis."""
        return seconds_to_us(self.mean_latency_s)


def _require_fio(platform: Platform) -> None:
    capabilities = platform.capabilities()
    capabilities.require("attach_extra_drives")
    capabilities.require("libaio")


class FioThroughputWorkload(Workload):
    """Sequential 128 KiB read/write throughput (Figure 9)."""

    name = "fio-throughput"

    def __init__(
        self,
        block_bytes: int = 128 * KIB,
        queue_depth: int = 32,
        *,
        drop_host_cache: bool = True,
    ) -> None:
        if block_bytes <= 0:
            raise ConfigurationError("block size must be positive")
        self.block_bytes = block_bytes
        self.queue_depth = queue_depth
        self.drop_host_cache = drop_host_cache

    def check_supported(self, platform: Platform) -> None:
        _require_fio(platform)

    def run(self, platform: Platform, rng: RngStream) -> FioResult:
        self.check_supported(platform)
        profile = platform.io_profile()
        device = platform.machine.nvme

        read_bw = (
            device.sequential_bandwidth(write=False, queue_depth=self.queue_depth)
            * profile.read_efficiency
        )
        write_bw = (
            device.sequential_bandwidth(write=True, queue_depth=self.queue_depth)
            * profile.write_efficiency
        )

        if not self.drop_host_cache and profile.guest_page_cache and profile.host_page_cache:
            # The pitfall: two kernels, two caches. direct=1 bypasses only
            # the guest cache; host-cached reads return at memory speed.
            memory_bw = platform.machine.memory.copy_bandwidth()
            hit, miss = _HOST_CACHE_HIT_RATIO, 1.0 - _HOST_CACHE_HIT_RATIO
            read_bw = 1.0 / (hit / memory_bw + miss / read_bw)

        read_bw *= rng.child("read").gaussian_factor(profile.read_std)
        write_bw *= rng.child("write").gaussian_factor(profile.write_std)
        return FioResult(
            platform=platform.name,
            read_bytes_per_s=read_bw,
            write_bytes_per_s=write_bw,
            block_bytes=self.block_bytes,
            host_cache_dropped=self.drop_host_cache,
        )


class FioLatencyWorkload(Workload):
    """4 KiB randread latency (Figure 10)."""

    name = "fio-randread-latency"

    def __init__(self, block_bytes: int = 4 * KIB, samples: int = 400) -> None:
        if block_bytes <= 0:
            raise ConfigurationError("block size must be positive")
        if samples < 1:
            raise ConfigurationError("need at least one sample")
        self.block_bytes = block_bytes
        self.samples = samples

    def check_supported(self, platform: Platform) -> None:
        _require_fio(platform)
        if not platform.io_profile().honors_o_direct_end_to_end:
            raise UnsupportedOperationError(
                f"{platform.name}: reads stay cached despite dropping both "
                "page caches; excluded from the latency figure (Section 3.3)"
            )

    def run(self, platform: Platform, rng: RngStream) -> FioLatencyResult:
        """Mean latency of ``samples`` completions plus the platform's path.

        The device model returns every completion's latency from one block
        of noise factors; they are added left to right, as one draw and one
        addition per completion would add them.
        """
        self.check_supported(platform)
        profile = platform.io_profile()
        latencies = platform.machine.nvme.random_read_latencies(
            rng.child("device"), self.samples, self.block_bytes
        )
        mean = left_sum(latencies) / self.samples + profile.per_request_latency_s
        mean *= rng.child("path").gaussian_factor(profile.latency_std)
        return FioLatencyResult(
            platform=platform.name,
            mean_latency_s=mean,
            block_bytes=self.block_bytes,
        )
