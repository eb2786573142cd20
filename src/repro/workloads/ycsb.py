"""YCSB workload specifications (Cooper et al., SoCC'10).

The paper uses *workload A* — 50/50 reads and updates over a zipfian key
distribution, "behavior exhibited by e.g. a session store recording recent
actions" — against memcached (Section 3.6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["YcsbWorkloadSpec", "WORKLOAD_A", "WORKLOAD_B", "WORKLOAD_C"]


@dataclass(frozen=True)
class YcsbWorkloadSpec:
    """One YCSB core workload."""

    name: str
    read_proportion: float
    update_proportion: float

    def __post_init__(self) -> None:
        for label, proportion in (
            ("read", self.read_proportion),
            ("update", self.update_proportion),
        ):
            if not 0.0 <= proportion <= 1.0:  # out of range or NaN
                raise ConfigurationError(
                    f"{label} proportion must be in [0, 1], got {proportion!r}"
                )
        total = self.read_proportion + self.update_proportion
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError("read + update proportions must sum to 1")

    def is_update(self, draw: float) -> bool:
        """Classify one operation from a uniform draw in [0, 1)."""
        if not 0.0 <= draw < 1.0:
            raise ConfigurationError("draw must be in [0, 1)")
        return draw < self.update_proportion


WORKLOAD_A = YcsbWorkloadSpec("workload-a", read_proportion=0.5, update_proportion=0.5)
WORKLOAD_B = YcsbWorkloadSpec("workload-b", read_proportion=0.95, update_proportion=0.05)
WORKLOAD_C = YcsbWorkloadSpec("workload-c", read_proportion=1.0, update_proportion=0.0)
