"""Benchmark: Figure 10 — fio 4 KiB randread latency.

Paper shape: Kata (9p) is exceptionally poor; Cloud Hypervisor is
remarkably good for a hypervisor; gVisor is excluded (uncircumventable
caching).
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig10_fio_latency(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig10", seed, repetitions=10)
    print()
    print(figure.render())
    assert "gvisor" not in [row.platform for row in figure.rows]
    ranking = figure.ranking(ascending=False)
    assert ranking[0] == "kata"
    assert figure.row("cloud-hypervisor").summary.mean < figure.row("qemu").summary.mean
    # Native sits at (or within noise of) the latency floor.
    floor = min(r.summary.mean for r in figure.rows)
    assert figure.row("native").summary.mean < 1.05 * floor


def test_fig10_kata_virtiofs_ablation(benchmark, seed):
    figure = run_once(
        benchmark,
        run_figure,
        "fig10",
        seed,
        repetitions=5,
        platforms=["qemu", "kata", "kata-virtiofs"],
    )
    print()
    print(figure.render())
    assert (
        figure.row("kata-virtiofs").summary.mean
        < 0.6 * figure.row("kata").summary.mean
    )
