"""Benchmark: Figure 9 — fio 128 KiB sequential throughput.

Paper shape: Docker/LXC/QEMU read at native speed; gVisor and Kata reach
at best half; Cloud Hypervisor is the hypervisor outlier; Firecracker and
OSv are excluded. Includes the Finding 7 ablation (Kata 9p vs virtio-fs)
and the Section 3.3 caching-pitfall ablation.
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure


def test_fig09_fio_throughput(benchmark, seed):
    figure = run_once(
        benchmark,
        run_figure,
        "fig09",
        seed,
        repetitions=10,
        platforms=[
            "native", "docker", "lxc", "qemu", "cloud-hypervisor",
            "kata", "kata-virtiofs", "gvisor",
        ],
    )
    print()
    print(figure.render())
    native = figure.row("native").summary.mean
    for name in ("docker", "lxc", "qemu"):
        assert figure.row(name).summary.mean > 0.9 * native
    for name in ("gvisor", "kata"):
        assert figure.row(name).summary.mean < 0.62 * native
    # Finding 7: virtio-fs restores Kata to QEMU level.
    assert figure.row("kata-virtiofs").summary.mean > 1.5 * figure.row("kata").summary.mean
    assert figure.row("kata-virtiofs").summary.mean > 0.85 * figure.row("qemu").summary.mean


def test_fig09_host_cache_pitfall(benchmark, seed):
    """Without dropping the host cache, QEMU 'beats' bare metal."""
    figure = run_once(
        benchmark,
        run_figure,
        "fig09",
        seed,
        repetitions=5,
        platforms=["native", "qemu"],
        drop_host_cache=False,
    )
    print()
    print(figure.render())
    assert figure.row("qemu").summary.mean > figure.row("native").summary.mean
