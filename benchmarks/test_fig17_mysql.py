"""Benchmark: Figure 17 — MySQL sysbench oltp_read_write, 10..160 threads.

Paper shape: three groups — (1) OSv/OSv-FC flat and severely low, with
gVisor also flat-and-low; (2) Firecracker (and Kata) at roughly half;
(3) the remaining platforms statistically indistinguishable. Guests peak
around 50 threads; native peaks around 110 without a significant edge.
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig17_mysql(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig17", seed, repetitions=3)
    print()
    print(figure.render())
    peaks = {}
    for series in figure.series:
        best = max(range(len(series.y_values)), key=lambda i: series.y_values[i])
        peaks[series.platform] = (series.x_values[best], series.y_values[best])
    # Group 3 top group.
    group = [peaks[p][1] for p in ("docker", "lxc", "qemu")]
    assert all(20 <= peaks[p][0] <= 70 for p in ("docker", "lxc", "qemu"))
    assert peaks["native"][0] >= 70
    assert peaks["native"][1] < 1.3 * max(group)
    # Group 2 at roughly half.
    mean_group = sum(group) / len(group)
    assert 0.35 * mean_group < peaks["firecracker"][1] < 0.7 * mean_group
    assert peaks["kata"][1] < 0.75 * mean_group
    # Group 1 flat and low.
    osv = figure.series_for("osv")
    assert max(osv.y_values) < 0.4 * mean_group
    tail = osv.y_values[3:]
    assert (max(tail) - min(tail)) / max(osv.y_values) < 0.25
