"""Benchmark: Figure 14 — hypervisor boot CDF (300 startups).

Paper shape: Cloud Hypervisor fastest, then QEMU with qboot, plain QEMU,
Firecracker at ~350 ms, and QEMU's microvm (uVM) machine model slowest —
the reverse of Firecracker's reputation (Conclusion 5).
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig14_hypervisor_boot(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig14", seed, startups=300)
    print()
    print(figure.render())
    means = {r.platform: r.summary.mean for r in figure.rows}
    assert (
        means["cloud-hypervisor"]
        < means["qemu-qboot"]
        < means["qemu"]
        < means["firecracker"]
        < means["qemu-microvm"]
    )
    assert 280 < means["firecracker"] < 420
