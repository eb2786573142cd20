"""Benchmark: Figure 12 — netperf P90 request/response latency.

Paper shape: bridge-based platforms (Docker, Kata, LXC) lead; OSv sits
just under the hypervisors; gVisor's P90 is 3-4x its competitors.
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig12_netperf(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig12", seed, repetitions=5)
    print()
    print(figure.render())
    bridges = max(figure.row(p).summary.mean for p in ("docker", "lxc", "kata"))
    hypervisors = min(
        figure.row(p).summary.mean
        for p in ("qemu", "firecracker", "cloud-hypervisor")
    )
    assert bridges < hypervisors
    assert figure.row("osv").summary.mean < hypervisors
    others = [
        r.summary.mean for r in figure.rows if r.platform not in ("gvisor",)
    ]
    ratio = figure.row("gvisor").summary.mean / (sum(others) / len(others))
    assert 2.5 < ratio < 6.0
