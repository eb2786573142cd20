"""Defense-in-depth audit — what the HAP cannot see (Finding 28).

The HAP measures the *width* of the guest-to-host interface but not the
number of independent barriers an attacker must cross (the *vertical*
dimension). Kata has a wide HAP yet layers namespaces + a hardware VM;
a plain container has a narrow HAP but a single kernel between tenant and
host. This module scores both dimensions so the Finding 28 caveat is
reproducible, not just quotable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platforms.base import Platform
from repro.security.hap import HapScore

__all__ = ["DefenseInDepthAudit", "audit_platform"]

#: Barrier classes and the weight of crossing each independently.
_BARRIER_WEIGHTS: dict[str, float] = {
    "hardware-virtualization": 3.0,
    "separate-guest-kernel": 2.0,
    "single-address-space-kernel": 1.0,
    "sentry-syscall-interception": 2.0,
    "sentry-seccomp-allowlist": 1.5,
    "gofer-io-proxy": 1.0,
    "jailer-chroot": 0.5,
    "seccomp-vmm-filter": 1.0,
    "seccomp-default-profile": 0.8,
    "apparmor-profile": 0.5,
    "capabilities-drop": 0.5,
    "uid-mapping": 0.8,
    "iommu-dma-isolation": 0.5,
    "minimal-host-interface": 0.5,
    "process-boundary": 0.2,
}
_NAMESPACE_WEIGHT = 0.25
_CGROUP_WEIGHT = 0.2


@dataclass(frozen=True)
class DefenseInDepthAudit:
    """Layered-isolation assessment of one platform."""

    platform: str
    mechanisms: tuple[str, ...]
    depth_score: float
    hap_unique_functions: int | None = None

    @property
    def layers(self) -> int:
        """Count of independent isolation mechanisms."""
        return len(self.mechanisms)


def _mechanism_weight(mechanism: str) -> float:
    if mechanism.startswith("namespace:"):
        return _NAMESPACE_WEIGHT
    if mechanism.startswith("cgroups"):
        return _CGROUP_WEIGHT
    return _BARRIER_WEIGHTS.get(mechanism, 0.3)


def audit_platform(platform: Platform, hap: HapScore | None = None) -> DefenseInDepthAudit:
    """Score a platform's vertical isolation depth."""
    mechanisms = tuple(platform.isolation_mechanisms())
    depth = sum(_mechanism_weight(m) for m in mechanisms)
    return DefenseInDepthAudit(
        platform=platform.name,
        mechanisms=mechanisms,
        depth_score=depth,
        hap_unique_functions=hap.unique_functions if hap is not None else None,
    )
