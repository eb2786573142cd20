"""Benchmark: Figure 13 — container startup CDF (300 startups).

Paper rows: Docker ~100 ms (OCI), gVisor ~190 ms, Kata ~600 ms, LXC
~800 ms; the Docker daemon adds ~250 ms over direct OCI invocation.
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig13_container_boot(benchmark, seed):
    figure = run_once(benchmark, run_figure, "fig13", seed, startups=300)
    print()
    print(figure.render())
    means = {r.platform: r.summary.mean for r in figure.rows}
    assert means["docker-oci"] < means["gvisor"] < means["kata"] < means["lxc"]
    assert 70 < means["docker-oci"] < 160
    assert 140 < means["gvisor"] < 260
    assert 450 < means["kata"] < 750
    assert 650 < means["lxc"] < 1000
    assert 180 < means["docker"] - means["docker-oci"] < 330
