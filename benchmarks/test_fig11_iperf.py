"""Benchmark: Figure 11 — iperf3 TCP throughput.

Paper rows: native 37.28 Gbit/s; OSv 36.36 (a 25.7 % gain over plain
QEMU, but only 6.53 % for OSv-FC over Firecracker); bridges lose ~9-10 %;
TAP+virtio hypervisors ~25 %; Cloud Hypervisor worse; gVisor the extreme
outlier.
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig11_iperf(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig11", seed, repetitions=5)
    print()
    print(figure.render())
    native = figure.row("native").summary.mean
    assert 35.5 < native < 39.0
    assert figure.row("osv").summary.mean > 0.95 * native
    assert 0.86 < figure.row("docker").summary.mean / native < 0.95
    assert 0.68 < figure.row("qemu").summary.mean / native < 0.82
    osv_gain = figure.row("osv").summary.mean / figure.row("qemu").summary.mean
    fc_gain = figure.row("osv-fc").summary.mean / figure.row("firecracker").summary.mean
    assert osv_gain > 1.18 and fc_gain < 1.12
    assert figure.row("gvisor").summary.mean < 0.15 * native
    assert figure.row("cloud-hypervisor").summary.mean == min(
        figure.row(p).summary.mean
        for p in ("qemu", "firecracker", "cloud-hypervisor")
    )
