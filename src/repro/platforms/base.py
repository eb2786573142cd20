"""Platform abstraction: what every isolation platform must describe.

A platform is characterized by *profiles*, one per subsystem the paper
benchmarks. Profiles are built by composing the substrate models (virtio
queues, 9p channels, net paths, schedulers, guest images), so platform
differences are architectural rather than hard-coded outcomes:

* :class:`CpuProfile`     — scheduler + instruction-handling overheads (Fig 5)
* :class:`MemoryProfile`  — nested paging, VMM memory-path factors (Figs 6-8)
* :class:`IoProfile`      — the storage stack: request overheads + caps (Figs 9-10)
* :class:`NetProfile`     — datapath + guest network stack (Figs 11-12)
* :class:`BootPhase` list — the startup sequence (Figs 13-15)
* capabilities            — which benchmarks the platform can run at all

Workloads consume profiles; the benchmark suite iterates platforms.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.hardware.topology import Machine, paper_testbed
from repro.kernel.netdev import NetPath
from repro.kernel.netstack import NetStack
from repro.kernel.sched import ThreadScheduler
from repro.rng import RngStream

__all__ = [
    "PlatformFamily",
    "CpuProfile",
    "MemoryProfile",
    "IoProfile",
    "NetProfile",
    "BootPhase",
    "Capabilities",
    "Platform",
]


class PlatformFamily(enum.Enum):
    """The four architecture families of Section 2, plus bare metal."""

    NATIVE = "native"
    CONTAINER = "container"
    HYPERVISOR = "hypervisor"
    SECURE_CONTAINER = "secure_container"
    UNIKERNEL = "unikernel"


@dataclass(frozen=True)
class CpuProfile:
    """Compute-side behaviour.

    ``simd_overhead_factor`` > 1 models costly SIMD state handling in
    experimental platforms; ``scalar_overhead_factor`` stays 1.0 everywhere
    because guest code executes natively (Finding 1).
    """

    scheduler: ThreadScheduler
    vcpus: int
    simd_overhead_factor: float = 1.0
    scalar_overhead_factor: float = 1.0
    run_to_run_std: float = 0.012

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise ConfigurationError("vcpus must be >= 1")
        if self.simd_overhead_factor < 1.0 or self.scalar_overhead_factor < 1.0:
            raise ConfigurationError("overhead factors must be >= 1")


@dataclass(frozen=True)
class MemoryProfile:
    """Memory-subsystem behaviour.

    * ``nested_paging``         — pays two-dimensional page walks on TLB miss;
    * ``direct_mapped``         — NVDIMM/KSM-style direct host mapping that
      bypasses the nested penalty (Kata, Finding 3);
    * ``dram_latency_factor``   — multiplier on the above-L1 latency portion
      (the vm-memory-crate effect, Finding 4);
    * ``bandwidth_factor``      — multiplier on sequential copy bandwidth;
    * ``latency_std``           — run-to-run dispersion of latency results.
    """

    nested_paging: bool = False
    direct_mapped: bool = False
    dram_latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    stream_bandwidth_factor: float | None = None
    latency_std: float = 0.03
    bandwidth_std: float = 0.02
    supports_hugepages: bool = True

    def __post_init__(self) -> None:
        if self.dram_latency_factor < 1.0:
            raise ConfigurationError("latency factor must be >= 1")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ConfigurationError("bandwidth factor must be in (0, 1]")

    @property
    def effective_nested(self) -> bool:
        """Whether nested-paging penalties actually apply."""
        return self.nested_paging and not self.direct_mapped

    @property
    def effective_stream_factor(self) -> float:
        """STREAM-specific bandwidth factor (defaults to the general one)."""
        if self.stream_bandwidth_factor is not None:
            return self.stream_bandwidth_factor
        return self.bandwidth_factor


@dataclass(frozen=True)
class IoProfile:
    """Block-storage stack behaviour.

    ``per_request_latency_s`` is the *added* latency for one un-batched
    random request versus issuing it natively; ``read/write_efficiency``
    cap streaming throughput; ``guest_page_cache`` and ``host_page_cache``
    flag which caches sit on the path (the Section 3.3 pitfall);
    ``honors_o_direct_end_to_end`` is False for networked filesystems whose
    reads may still be served from a cache that ``direct=1`` cannot bypass
    (gVisor's exclusion from Figure 10).
    """

    per_request_latency_s: float
    read_efficiency: float
    write_efficiency: float
    write_std: float = 0.04
    read_std: float = 0.02
    latency_std: float = 0.05
    guest_page_cache: bool = False
    host_page_cache: bool = True
    honors_o_direct_end_to_end: bool = True

    def __post_init__(self) -> None:
        if self.per_request_latency_s < 0:
            raise ConfigurationError("per-request latency must be >= 0")
        for eff in (self.read_efficiency, self.write_efficiency):
            if not 0.0 < eff <= 1.0:
                raise ConfigurationError("efficiencies must be in (0, 1]")


@dataclass(frozen=True)
class NetProfile:
    """Network datapath + stack behaviour."""

    path: NetPath
    stack: NetStack
    #: Multiplier (< 1 is a discount) on the datapath's per-packet cost;
    #: models e.g. OSv's syscall-free poll-mode virtio driver.
    path_cost_factor: float = 1.0
    #: Separate multiplier for the latency contribution; defaults to
    #: ``path_cost_factor`` when left as None (batching tricks help
    #: throughput more than they help a single round trip).
    path_latency_factor: float | None = None
    throughput_std: float = 0.015
    latency_std: float = 0.05

    def per_packet_cost(self) -> float:
        """Guest-side per-MTU-segment CPU cost (stack + datapath)."""
        return (
            self.stack.effective_per_segment_cost()
            + self.path.per_packet_cost() * self.path_cost_factor
        )

    def added_latency(self) -> float:
        """One-way latency the path and stack add to a request/response."""
        factor = (
            self.path_latency_factor
            if self.path_latency_factor is not None
            else self.path_cost_factor
        )
        return self.path.added_latency() * factor + self.stack.per_message_cost_s


@dataclass(frozen=True)
class BootPhase:
    """One stage of a platform's startup sequence."""

    name: str
    mean_s: float
    rel_std: float = 0.08
    #: Probability of a heavy-tail hiccup, adding a Pareto-distributed delay.
    tail_probability: float = 0.01

    def __post_init__(self) -> None:
        if not self.mean_s >= 0.0:  # negative or NaN
            raise ConfigurationError(
                f"boot phase {self.name!r}: mean duration must be >= 0, got {self.mean_s!r}"
            )

    def sample(self, rng: RngStream) -> float:
        """Draw one realization of this phase's duration."""
        duration = self.mean_s * rng.lognormal_factor(self.rel_std)
        duration += rng.pareto_tail(self.tail_probability, 0.12 * self.mean_s)
        return duration


@dataclass(frozen=True)
class Capabilities:
    """What the platform can run (the paper's exclusions, as data)."""

    attach_extra_drives: bool = True
    libaio: bool = True
    hugepages: bool = True
    multi_process: bool = True
    direct_io_measurable: bool = True

    def require(self, capability: str) -> None:
        """Raise :class:`UnsupportedOperationError` if a capability is absent."""
        if not getattr(self, capability):
            raise UnsupportedOperationError(f"platform lacks capability: {capability}")


class Platform(abc.ABC):
    """Base class for all isolation platforms."""

    #: Registry key; subclasses set this.
    name: str = ""
    #: Pretty name used in figures (matches the paper's labels).
    label: str = ""
    family: PlatformFamily = PlatformFamily.NATIVE

    def __init__(self, machine: Machine | None = None) -> None:
        self.machine = machine if machine is not None else paper_testbed()
        if not self.name:
            raise ConfigurationError(f"{type(self).__name__} must define a name")
        if not self.label:
            self.label = self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"

    # --- profiles -------------------------------------------------------------

    @abc.abstractmethod
    def cpu_profile(self) -> CpuProfile:
        """Compute behaviour for the CPU benchmarks."""

    @abc.abstractmethod
    def memory_profile(self) -> MemoryProfile:
        """Memory behaviour for tinymembench/STREAM."""

    @abc.abstractmethod
    def io_profile(self) -> IoProfile:
        """Storage behaviour for fio (raises when the platform is excluded)."""

    @abc.abstractmethod
    def net_profile(self) -> NetProfile:
        """Network behaviour for iperf3/netperf."""

    @abc.abstractmethod
    def boot_phases(self) -> list[BootPhase]:
        """The startup sequence for the boot-time experiments."""

    def capabilities(self) -> Capabilities:
        """Default: everything supported (containers/native)."""
        return Capabilities()

    # --- security --------------------------------------------------------------

    def isolation_mechanisms(self) -> list[str]:
        """Independent isolation barriers, for the defense-in-depth audit."""
        return []

    def hap_profile_name(self) -> str:
        """Key into :mod:`repro.security.profiles` (defaults to ``name``)."""
        return self.name

    # --- application-level hooks -------------------------------------------------

    def syscall_overhead_factor(self) -> float:
        """Multiplier on the CPU cost of syscall-heavy application code.

        1.0 for platforms where syscalls run at native cost (containers,
        hypervisor guests); > 1 where every syscall is intercepted (gVisor's
        Sentry); < 1 where syscalls are plain function calls (OSv).
        """
        return 1.0

    def packet_rate_capacity(self) -> float | None:
        """Max sustained small-message packets/second across the boundary.

        ``None`` means the boundary is never the bottleneck. Platforms whose
        request path crosses virtqueues/agents per packet saturate earlier —
        the mechanism behind Kata's surprisingly low memcached score
        (Finding 18).
        """
        return None

    def oltp_capacity_factor(self) -> float:
        """Multiplier on peak OLTP transaction capacity (Finding 22)."""
        return 1.0
