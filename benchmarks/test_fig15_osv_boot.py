"""Benchmark: Figure 15 — OSv boot CDF under its supported hypervisors.

Paper shape: the Figure 14 ordering flips — Firecracker is fastest, QEMU
microvm second, plain QEMU last; the end-to-end and stdout-grep curves
nearly superimpose (Finding 16).
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig15_osv_boot(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig15", seed, startups=300)
    print()
    print(figure.render())
    e2e = {
        r.platform.split(":")[0]: r.summary.mean
        for r in figure.rows
        if r.platform.endswith("end-to-end")
    }
    assert e2e["osv-fc"] < e2e["osv-qemu-microvm"] < e2e["osv"]
    for platform in ("osv", "osv-fc", "osv-qemu-microvm"):
        full = figure.row(f"{platform}:end-to-end").summary.mean
        grep = figure.row(f"{platform}:stdout-grep").summary.mean
        assert 0.0 < (full - grep) / full < 0.12
