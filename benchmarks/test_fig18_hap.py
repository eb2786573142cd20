"""Benchmark: Figure 18 — the extended HAP metric.

Paper shape: Firecracker invokes the most host-kernel functions of all
platforms (Finding 24); secure containers sit above regular containers
(Finding 26); Cloud Hypervisor very few (Finding 25); OSv the least
(Finding 27).
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig18_hap(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig18", seed)
    print()
    print(figure.render())
    counts = {r.platform: r.summary.mean for r in figure.rows}
    assert counts["firecracker"] == max(counts.values())
    assert counts["osv"] == min(counts.values())
    assert counts["cloud-hypervisor"] < min(
        counts[p] for p in ("qemu", "docker", "lxc", "kata", "gvisor")
    )
    assert min(counts["gvisor"], counts["kata"]) > max(
        counts["docker"], counts["lxc"]
    )
    for row in figure.rows:
        assert row.extra["weighted_score"] > 0
