"""gVisor — a user-space kernel between the container and the host
(Section 2.3.2).

The Sentry intercepts every guest syscall (via ptrace or KVM), implements
it against its own kernel state, and may itself use only a seccomp-pinched
subset of host syscalls — crucially, *no* I/O syscalls, which are proxied
to the Gofer over 9p. Networking runs through Netstack, gVisor's
from-scratch user-space TCP/IP stack.

Measured personality:

* CPU and memory are near-native (Finding 2) — guest code still executes
  on the host CPU and uses host memory directly;
* file I/O is crippled by the Gofer/9p detour (Finding 8); the 4 KiB
  randread figure *excludes* gVisor because its reads stay cached even
  after both page-cache drops (Section 3.3) — the 9p client cache cannot
  be bypassed with O_DIRECT;
* Netstack makes it the extreme network outlier (Findings 12/19);
* startup is container-like (~190 ms OCI);
* the Sentry's syscall interception multiplies the cost of syscall-heavy
  real workloads (MySQL, Finding 21/22).
"""

from __future__ import annotations

from repro.kernel.cgroups import CgroupSetup, CgroupVersion
from repro.kernel.namespaces import NamespaceSet
from repro.kernel.netdev import NetstackPath
from repro.kernel.netstack import GvisorNetstack
from repro.kernel.sched import CustomScheduler
from repro.platforms.interception import KvmPlatform, PtracePlatform
from repro.platforms.base import (
    BootPhase,
    CpuProfile,
    IoProfile,
    MemoryProfile,
    NetProfile,
    Platform,
    PlatformFamily,
)
from repro.platforms.docker import GUEST_VCPUS
from repro.units import ms
from repro.virtio.ninep import NinePChannel

__all__ = ["GvisorPlatform"]


class GvisorPlatform(Platform):
    """gVisor (runsc) with the ptrace or KVM platform."""

    name = "gvisor"
    label = "gVisor"
    family = PlatformFamily.SECURE_CONTAINER

    def __init__(self, machine=None, *, kvm_platform: bool = True) -> None:
        super().__init__(machine)
        self.kvm_platform = kvm_platform
        if not kvm_platform:
            self.name = "gvisor-ptrace"
            self.label = "gVisor (ptrace)"
        self.namespaces = NamespaceSet.standard_container()
        self.cgroups = CgroupSetup(version=CgroupVersion.V1)
        # Sentry <-> Gofer over a unix socket carrying 9p.
        self.gofer_channel = NinePChannel(
            name="gofer-9p",
            transport_rtt_s=11e-6 if kvm_platform else 19e-6,
        )

    def _interception_factor(self) -> float:
        """Relative per-request penalty versus the KVM platform.

        Derived from the interception pipeline primitives (Section 2.3.2):
        ptrace's four scheduler-mediated context switches cost roughly
        twice KVM's lightweight world switch.
        """
        if self.kvm_platform:
            return 1.0
        return PtracePlatform().interception_cost() / KvmPlatform().interception_cost()

    def cpu_profile(self) -> CpuProfile:
        # Threads are Go-runtime-mediated: near-CFS below saturation but
        # degrading faster when oversubscribed.
        return CpuProfile(
            scheduler=CustomScheduler(
                "sentry-go-runtime",
                work_conserving_efficiency=0.97,
                oversubscription_penalty=0.35,
            ),
            vcpus=GUEST_VCPUS,
            simd_overhead_factor=1.03,
        )

    def memory_profile(self) -> MemoryProfile:
        # Guest memory is plain host memory managed by the Sentry: no
        # nested paging penalty (Finding 2).
        return MemoryProfile(bandwidth_factor=0.985)

    def io_profile(self) -> IoProfile:
        nvme_read = self.machine.nvme.seq_read_bw
        gofer_bw = self.gofer_channel.streaming_bandwidth()
        return IoProfile(
            per_request_latency_s=self.gofer_channel.operation_latency(4096)
            * self._interception_factor(),
            read_efficiency=min(1.0, gofer_bw / nvme_read),
            write_efficiency=min(1.0, 0.88 * gofer_bw / nvme_read),
            read_std=0.06,
            write_std=0.08,
            guest_page_cache=True,
            # Section 3.3: gVisor's reads stayed cached even after dropping
            # both host and guest caches — O_DIRECT cannot be honoured.
            honors_o_direct_end_to_end=False,
        )

    def net_profile(self) -> NetProfile:
        return NetProfile(
            path=NetstackPath(),
            stack=GvisorNetstack(),
            path_cost_factor=self._interception_factor(),
            latency_std=0.08,
        )

    def boot_phases(self) -> list[BootPhase]:
        return [
            BootPhase("runsc-init", ms(18.0), rel_std=0.10),
            BootPhase("namespaces", self.namespaces.creation_cost(), rel_std=0.15),
            BootPhase("cgroups", self.cgroups.setup_cost(), rel_std=0.15),
            BootPhase("rootfs-mount", ms(28.0), rel_std=0.12),
            BootPhase("veth-bridge-attach", ms(26.0), rel_std=0.15),
            BootPhase("sentry-start", ms(52.0), rel_std=0.09),
            BootPhase("gofer-start", ms(24.0), rel_std=0.10),
            BootPhase(
                "platform-init" if self.kvm_platform else "ptrace-attach",
                ms(17.0) if self.kvm_platform else ms(29.0),
                rel_std=0.10,
            ),
            BootPhase("payload-exit", ms(1.5), rel_std=0.2),
            BootPhase("teardown", ms(21.0), rel_std=0.15),
        ]

    def syscall_overhead_factor(self) -> float:
        # Every application syscall traps into the Sentry; syscall-heavy
        # workloads (MySQL, memcached) pay this continuously.
        return 1.8 * (1.0 if self.kvm_platform else 1.4)

    def packet_rate_capacity(self) -> float:
        # Netstack + the Sentry endpoint cap small-packet rates early.
        return 350_000.0

    def oltp_capacity_factor(self) -> float:
        return 0.9

    def isolation_mechanisms(self) -> list[str]:
        mechanisms = [f"namespace:{kind.value}" for kind in sorted(
            self.namespaces.kinds, key=lambda k: k.value)]
        mechanisms.extend(
            [
                "cgroups-v1",
                "sentry-syscall-interception",
                "sentry-seccomp-allowlist",
                "gofer-io-proxy",
            ]
        )
        if self.kvm_platform:
            mechanisms.append("hardware-virtualization")
        return mechanisms

    def hap_profile_name(self) -> str:
        return "gvisor"
