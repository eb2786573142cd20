"""EPSS-style exploit-likelihood scoring for kernel functions.

The paper extends the HAP by weighing each traced host-kernel function by
its likelihood of exploitation as obtained from the EPSS model (Jacobs et
al., BlackHat '19). The real EPSS feed scores CVEs; the paper maps those
onto the functions they implicate. We reproduce the *distributional*
properties instead: per-function scores are deterministic (hash-seeded),
heavily right-skewed (most functions are near zero, a few are hot), and
boundary-exposed subsystems (network parsing, KVM emulation, filesystems)
carry systematically higher mass — matching how CVE density concentrates.
"""

from __future__ import annotations

import functools
import hashlib

from repro.kernel.functions import KernelFunction, Subsystem
from repro.units import left_sum

__all__ = ["EpssModel"]

#: Relative exploit-likelihood multipliers per subsystem. Derived from the
#: concentration of kernel CVEs: remote-input parsers and emulators rank
#: highest, bookkeeping subsystems lowest.
_SUBSYSTEM_RISK: dict[Subsystem, float] = {
    Subsystem.TCP_IP: 2.2,
    Subsystem.NET_CORE: 1.9,
    Subsystem.NETFILTER: 2.4,
    Subsystem.KVM: 2.0,
    Subsystem.EXT4: 1.5,
    Subsystem.VFS: 1.3,
    Subsystem.FUSE: 1.6,
    Subsystem.NINEP: 2.1,
    Subsystem.VSOCK: 1.7,
    Subsystem.BRIDGE: 1.4,
    Subsystem.MM: 1.2,
    Subsystem.BLOCK: 1.0,
    Subsystem.SCHED: 0.7,
    Subsystem.IRQ: 0.6,
    Subsystem.TIME: 0.6,
    Subsystem.SIGNAL: 0.9,
    Subsystem.FUTEX: 1.8,  # futex has a storied CVE history
    Subsystem.EPOLL: 1.1,
    Subsystem.PIPE_TTY: 1.3,
    Subsystem.NAMESPACE: 1.2,
    Subsystem.CGROUP: 0.9,
    Subsystem.SECCOMP: 0.8,
    Subsystem.KSM: 1.1,
    Subsystem.SECURITY: 0.8,
}

#: Base scale chosen so median scores land in the real EPSS bulk (~1e-3).
_BASE_SCALE = 0.004


class EpssModel:
    """Deterministic per-function exploit-likelihood scores in [0, 1]."""

    def __init__(self, base_scale: float = _BASE_SCALE) -> None:
        self.base_scale = base_scale

    @staticmethod
    @functools.lru_cache(maxsize=65536)
    def _unit_draw(name: str) -> float:
        """A stable uniform draw in (0, 1] derived from the function name.

        Memoized: the draw is a pure function of the name, and every HAP
        cell re-scores the same ~6k catalog names, so the hash runs once
        per name per process instead of once per (cell, name).
        """
        digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
        return (int.from_bytes(digest, "little") + 1) / float(1 << 64)

    def score(self, function: KernelFunction) -> float:
        """Exploit likelihood of one function.

        A power-law transform of the per-name uniform draw produces the
        right-skewed shape of the real EPSS distribution; the subsystem
        risk multiplier shifts whole families up or down.
        """
        uniform = self._unit_draw(function.name)
        skewed = uniform ** 8  # long right tail: few hot functions
        risk = _SUBSYSTEM_RISK[function.subsystem]
        return min(1.0, self.base_scale * risk * (1.0 + 250.0 * skewed))

    def total_score(self, functions: list[KernelFunction]) -> float:
        """Sum of scores — the extended-HAP weighting."""
        return left_sum(self.score(fn) for fn in functions)
