"""Benchmark: Figure 8 — STREAM COPY bandwidth.

Paper shape: same platform ranking as the tinymembench throughput figure;
the Firecracker family trails the field.
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig08_stream(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig08", seed, repetitions=10)
    print()
    print(figure.render())
    slowest_two = figure.ranking(ascending=True)[:2]
    assert set(slowest_two) == {"firecracker", "osv-fc"}
    native = figure.row("native").summary.mean
    assert figure.row("kata").summary.mean > 0.93 * native
