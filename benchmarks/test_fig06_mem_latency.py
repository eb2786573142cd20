"""Benchmark: Figure 6 — tinymembench memory latency vs buffer size.

Paper shape: latency rises with buffer size (TLB misses); Firecracker is
the worst with the largest error bars, Cloud Hypervisor elevated, all
others near native. The hugepage ablation (Section 3.2 aside) shows the
~30 % latency reduction and excludes Kata.
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig06_memory_latency(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig06", seed, repetitions=10)
    print()
    print(figure.render())
    last = {s.platform: s.y_values[-1] for s in figure.series}
    assert set(sorted(last, key=last.get, reverse=True)[:2]) == {
        "firecracker", "osv-fc",
    }
    assert last["cloud-hypervisor"] > 1.15 * last["native"]
    assert last["kata"] < 1.15 * last["native"]


def test_fig06_hugepage_ablation(benchmark, seed):
    figure = run_once(
        benchmark, run_figure, "fig06", seed, repetitions=5, huge_pages=True
    )
    print()
    print(figure.render())
    assert "kata" not in [s.platform for s in figure.series]
