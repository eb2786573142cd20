"""Benchmark: Figure 5 — ffmpeg re-encode time, plus the prime control.

Paper rows: ~65 s across platforms, OSv the severe outlier; the sysbench
prime control is flat everywhere (Finding 1).
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig05_ffmpeg(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig05", seed, repetitions=10)
    print()
    print(figure.render())
    osv = figure.row("osv").summary.mean
    others = [r.summary.mean for r in figure.rows if r.platform != "osv"]
    assert osv > 1.25 * max(others)
    assert all(55_000 < value < 78_000 for value in others)


def test_cpu_prime_control(benchmark, seed):
    figure = run_once(benchmark, run_figure, "cpu-prime", seed, repetitions=10)
    print()
    print(figure.render())
    means = [r.summary.mean for r in figure.rows]
    assert (max(means) - min(means)) / max(means) < 0.05
