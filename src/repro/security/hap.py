"""The (extended) Horizontal Attack Profile — Figure 18.

The HAP (Bottomley, 2018) approximates isolation strength by the width of
the guest-to-host interface: the number of host-kernel functions a guest
workload causes to execute. Bug density need not be multiplied in because
everything is measured in the same domain (the host kernel). The paper's
*extension* weighs each function by its EPSS exploit likelihood, so an
interface concentrated in risky subsystems scores worse than an equally
wide one in benign code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.ftrace import FtraceReport
from repro.kernel.functions import KernelFunctionCatalog, Subsystem, default_catalog
from repro.platforms.base import Platform
from repro.security.epss import EpssModel
from repro.security.profiles import HAP_WORKLOADS, trace_platform

__all__ = ["HapScore", "measure_hap"]


@dataclass(frozen=True)
class HapScore:
    """The HAP measurement for one platform."""

    platform: str
    unique_functions: int
    total_invocations: int
    weighted_score: float
    by_subsystem: dict[Subsystem, int]

    def riskiest_subsystems(self, top: int = 5) -> list[tuple[Subsystem, int]]:
        """Subsystems contributing the most distinct functions."""
        ranked = sorted(self.by_subsystem.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:top]


def measure_hap(
    platform: Platform,
    catalog: KernelFunctionCatalog | None = None,
    epss: EpssModel | None = None,
    workloads: tuple[str, ...] = HAP_WORKLOADS,
) -> HapScore:
    """Trace the platform across the Section 4 workloads and score it."""
    catalog = catalog if catalog is not None else default_catalog()
    epss = epss if epss is not None else EpssModel()
    report: FtraceReport = trace_platform(platform, catalog, workloads)
    functions = report.functions()
    return HapScore(
        platform=platform.name,
        unique_functions=report.unique_functions,
        total_invocations=report.total_invocations,
        weighted_score=epss.total_score(functions),
        by_subsystem=report.by_subsystem(),
    )
