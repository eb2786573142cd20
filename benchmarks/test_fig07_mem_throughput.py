"""Benchmark: Figure 7 — tinymembench copy throughput (regular + SSE2).

Paper shape: hypervisors underperform (QEMU trades throughput for
latency); Kata and OSv-under-QEMU stay near native.
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig07_memory_throughput(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig07", seed, repetitions=10)
    print()
    print(figure.render())
    native = figure.row("native").summary.mean
    assert figure.row("qemu").summary.mean < 0.92 * native
    assert figure.row("firecracker").summary.mean < 0.88 * native
    assert figure.row("kata").summary.mean > 0.93 * native
    assert figure.row("osv").summary.mean > 0.92 * native
    assert figure.row("cloud-hypervisor").summary.mean > 0.9 * native
