"""Benchmark: Figure 16 — memcached under YCSB workload-a.

Paper shape: regular containers (especially LXC) do very well; newer
hypervisors do worse; Kata surprisingly low (Finding 18); gVisor lowest
(network-bound, Finding 19).
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig16_memcached(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig16", seed, repetitions=5)
    print()
    print(figure.render())
    means = {r.platform: r.summary.mean for r in figure.rows}
    assert means["firecracker"] < means["qemu"]
    assert means["cloud-hypervisor"] < means["qemu"]
    assert min(means["docker"], means["lxc"]) > max(
        means["qemu"], means["firecracker"], means["cloud-hypervisor"]
    )
    assert means["kata"] < 0.85 * means["docker"]
    assert means["gvisor"] == min(means.values())
