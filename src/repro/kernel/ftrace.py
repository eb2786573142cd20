"""Function tracer — the simulation's ftrace/trace-cmd equivalent.

Section 4 of the paper records, per platform and per workload, the set of
host-kernel functions invoked (and how often). Components of the simulated
platforms report their host interactions as *(subsystem, breadth,
invocation weight)* tuples; the tracer expands breadth into concrete
function sets via the catalog and accumulates hit counts.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import TraceError
from repro.kernel.functions import KernelFunction, KernelFunctionCatalog, Subsystem

__all__ = ["Ftrace", "FtraceReport"]


class FtraceReport:
    """The outcome of one tracing session."""

    def __init__(self, hits: Counter[str], catalog: KernelFunctionCatalog) -> None:
        self._hits = hits
        self._catalog = catalog

    @property
    def unique_functions(self) -> int:
        """Number of distinct host-kernel functions observed (the raw HAP)."""
        return len(self._hits)

    @property
    def total_invocations(self) -> int:
        """Total function invocations across the session."""
        return sum(self._hits.values())  # repro: ignore[RB101] int sum is exact in any order

    def functions(self) -> list[KernelFunction]:
        """All distinct functions observed, in catalog order."""
        return sorted(
            (self._catalog.get(name) for name in self._hits),
            key=lambda fn: (fn.subsystem.value, fn.rank),
        )

    def by_subsystem(self) -> dict[Subsystem, int]:
        """Distinct-function counts per subsystem."""
        counts: dict[Subsystem, int] = {}
        for name in self._hits:
            subsystem = self._catalog.get(name).subsystem
            counts[subsystem] = counts.get(subsystem, 0) + 1
        return counts

    def merge(self, other: "FtraceReport") -> "FtraceReport":
        """Union of two sessions (the paper unions all workload traces)."""
        return FtraceReport(self._hits + other._hits, self._catalog)


class Ftrace:
    """Accumulates host-kernel function hits during a workload run."""

    def __init__(self, catalog: KernelFunctionCatalog) -> None:
        self.catalog = catalog
        self._active = False
        self._hits: Counter[str] = Counter()

    def start(self) -> None:
        """Begin a session; clears any previous hits."""
        if self._active:
            raise TraceError("ftrace session already active")
        self._active = True
        self._hits = Counter()

    def stop(self) -> FtraceReport:
        """End the session and return the report."""
        if not self._active:
            raise TraceError("ftrace session not active")
        self._active = False
        return FtraceReport(Counter(self._hits), self.catalog)

    def record_breadth(
        self, subsystem: Subsystem, breadth: float, invocations_per_function: float = 1.0
    ) -> None:
        """Record hits across the first ``breadth`` fraction of a subsystem.

        Hit counts decay geometrically with rank — hot entry points run
        orders of magnitude more often than edge paths — matching the
        long-tailed invocation histograms ftrace produces in practice.
        """
        if not self._active:
            raise TraceError("cannot record outside an active session")
        functions = self.catalog.select_breadth(subsystem, breadth)
        if not functions:
            return
        base = max(1.0, invocations_per_function)
        for index, function in enumerate(functions):
            weight = max(1, int(round(base * (0.985 ** index))))
            self._hits[function.name] += weight
