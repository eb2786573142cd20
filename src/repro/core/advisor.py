"""Platform advisor — "educated decisions on the best isolation platform
for their given problem" (Section 1), as an API.

The paper closes its introduction promising practitioners decision help.
The advisor operationalizes that: callers describe their workload as
weights over the measured dimensions (CPU, memory, disk, network,
startup, isolation), and the advisor scores every platform from the
reproduced figures — so recommendations inherit the paper's findings
instead of folklore.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.figures import run_figure
from repro.errors import ConfigurationError

__all__ = ["WorkloadNeeds", "Recommendation", "PlatformAdvisor"]

#: Platforms the advisor ranks (the deployable roster — native excluded).
_CANDIDATES = [
    "docker", "lxc", "qemu", "firecracker", "cloud-hypervisor",
    "kata", "gvisor", "osv",
]


@dataclass(frozen=True)
class WorkloadNeeds:
    """Relative importance (0..1) of each dimension for the caller."""

    cpu: float = 0.5
    memory: float = 0.5
    disk: float = 0.5
    network: float = 0.5
    startup: float = 0.0
    isolation: float = 0.5

    def __post_init__(self) -> None:
        for name in ("cpu", "memory", "disk", "network", "startup", "isolation"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"weight {name} must be in [0, 1]")

    @property
    def total_weight(self) -> float:
        return self.cpu + self.memory + self.disk + self.network + self.startup + self.isolation


@dataclass(frozen=True)
class Recommendation:
    """One scored platform."""

    platform: str
    score: float
    dimension_scores: dict[str, float] = field(default_factory=dict)

    def explain(self) -> str:
        """One-line rationale."""
        parts = ", ".join(f"{k} {v:.2f}" for k, v in sorted(self.dimension_scores.items()))
        return f"{self.platform}: {self.score:.3f} ({parts})"


class PlatformAdvisor:
    """Scores platforms from the reproduced figures."""

    def __init__(self, seed: int = 42, repetitions: int = 3) -> None:
        self.seed = seed
        self.repetitions = repetitions
        self._dimensions: dict[str, dict[str, float]] | None = None

    # --- normalized per-dimension scores (1.0 = best candidate) ------------------

    def _normalize(self, raw: dict[str, float], *, higher_is_better: bool) -> dict[str, float]:
        values = {k: v for k, v in raw.items() if k in _CANDIDATES}
        if not values:
            raise ConfigurationError("no candidate platforms in figure data")
        if higher_is_better:
            best = max(values.values())
            return {k: v / best for k, v in values.items()}
        best = min(values.values())
        return {k: best / v for k, v in values.items()}

    def dimensions(self) -> dict[str, dict[str, float]]:
        """Per-dimension normalized scores, computed once."""
        if self._dimensions is not None:
            return self._dimensions
        seed, reps = self.seed, self.repetitions

        # CPU: every platform is near-native except custom schedulers —
        # use MySQL-free signal: ffmpeg would do, but STREAM + prime are
        # flat; reuse memory bandwidth as a proxy is wrong. Use inverse
        # ffmpeg time.
        ffmpeg = run_figure("fig05", seed, repetitions=reps)
        cpu = self._normalize(
            {r.platform: r.summary.mean for r in ffmpeg.rows}, higher_is_better=False
        )

        stream = run_figure("fig08", seed, repetitions=reps)
        memory = self._normalize(
            {r.platform: r.summary.mean for r in stream.rows}, higher_is_better=True
        )

        fio = run_figure("fig09", seed, repetitions=reps)
        disk = self._normalize(
            {r.platform: r.summary.mean for r in fio.rows}, higher_is_better=True
        )
        # Platforms excluded from fio get a rootfs-class midfield score.
        for name in _CANDIDATES:
            disk.setdefault(name, 0.8)

        iperf = run_figure("fig11", seed, repetitions=reps)
        network = self._normalize(
            {r.platform: r.summary.mean for r in iperf.rows}, higher_is_better=True
        )

        container_boot = run_figure("fig13", seed, startups=40)
        hypervisor_boot = run_figure("fig14", seed, startups=40)
        boot_means = {r.platform: r.summary.mean for r in container_boot.rows}
        boot_means.update({r.platform: r.summary.mean for r in hypervisor_boot.rows})
        boot_means["docker"] = boot_means.get("docker-oci", boot_means.get("docker", 100.0))
        boot_means["osv"] = 177.0  # OSv-QEMU end-to-end (Figure 15)
        startup = self._normalize(boot_means, higher_is_better=False)

        hap = run_figure("fig18", seed)
        # Isolation blends interface width (narrower is better) with
        # defense-in-depth (deeper is better), per Finding 28.
        from repro.platforms import get_platform
        from repro.security.analysis import audit_platform

        width = self._normalize(
            {r.platform: r.summary.mean for r in hap.rows}, higher_is_better=False
        )
        depths = {
            name: audit_platform(get_platform(name)).depth_score for name in _CANDIDATES
        }
        depth = self._normalize(depths, higher_is_better=True)
        isolation = {
            name: 0.5 * width.get(name, 0.5) + 0.5 * depth[name] for name in _CANDIDATES
        }

        self._dimensions = {
            "cpu": cpu,
            "memory": memory,
            "disk": disk,
            "network": network,
            "startup": startup,
            "isolation": isolation,
        }
        return self._dimensions

    # --- recommendation -------------------------------------------------------------

    def recommend(self, needs: WorkloadNeeds, top: int = 3) -> list[Recommendation]:
        """Rank candidates for the described workload."""
        if top < 1:
            raise ConfigurationError("top must be >= 1")
        if needs.total_weight == 0:
            raise ConfigurationError("at least one weight must be positive")
        dimensions = self.dimensions()
        weights = {
            "cpu": needs.cpu,
            "memory": needs.memory,
            "disk": needs.disk,
            "network": needs.network,
            "startup": needs.startup,
            "isolation": needs.isolation,
        }
        recommendations = []
        for name in _CANDIDATES:
            per_dimension = {
                dim: scores.get(name, 0.5) for dim, scores in dimensions.items()
            }
            score = sum(
                weights[dim] * per_dimension[dim] for dim in weights
            ) / needs.total_weight
            recommendations.append(
                Recommendation(platform=name, score=score, dimension_scores=per_dimension)
            )
        recommendations.sort(key=lambda r: r.score, reverse=True)
        return recommendations[:top]
