"""Extension benchmarks — ablations beyond the paper's headline figures.

These exercise three design choices: the gVisor platform choice (ptrace
vs KVM), unprivileged LXC, and the YCSB mix sensitivity of Figure 16.
"""

from benchmarks.conftest import run_once
from repro.core.figures import run_figure
from repro.platforms import get_platform
from repro.rng import RngStream
from repro.workloads.memcached import MemcachedYcsbWorkload
from repro.workloads.ycsb import WORKLOAD_A, WORKLOAD_B, WORKLOAD_C


def test_gvisor_platform_ablation(benchmark, seed):
    """gVisor ptrace vs KVM: the KVM platform wins on every subsystem."""
    figure = run_once(
        benchmark,
        run_figure,
        "fig11",
        seed,
        repetitions=5,
        platforms=["gvisor", "gvisor-ptrace"],
    )
    print()
    print(figure.render())
    kvm = figure.row("gvisor").summary.mean
    ptrace = figure.row("gvisor-ptrace").summary.mean
    assert kvm > 1.2 * ptrace


def test_lxc_unprivileged_ablation(benchmark, seed):
    """Unprivileged LXC (cgroups v2 + user namespaces) boots about as
    fast as privileged LXC — systemd still dominates."""
    figure = run_once(
        benchmark,
        run_figure,
        "fig13",
        seed,
        startups=100,
        platforms=["lxc", "lxc-unprivileged"],
    )
    print()
    print(figure.render())
    privileged = figure.row("lxc").summary.mean
    unprivileged = figure.row("lxc-unprivileged").summary.mean
    assert abs(unprivileged - privileged) / privileged < 0.1


def test_ycsb_mix_sensitivity(benchmark, seed):
    """Figure 16 under YCSB A/B/C: read-heavier mixes lift throughput but
    preserve the platform ordering."""

    def sweep():
        rng = RngStream(seed, "ycsb-sweep")
        results = {}
        for spec in (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C):
            workload = MemcachedYcsbWorkload(spec=spec, ops_per_client=60)
            results[spec.name] = {
                name: workload.run(get_platform(name), rng.child(f"{spec.name}/{name}"))
                for name in ("native", "docker", "kata", "gvisor")
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for mix, rows in results.items():
        line = ", ".join(
            f"{k} {v.throughput_ops_per_s:,.0f}" for k, v in rows.items()
        )
        print(f"{mix}: {line}")
    for mix in results:
        throughputs = {k: v.throughput_ops_per_s for k, v in results[mix].items()}
        assert throughputs["gvisor"] == min(throughputs.values())
        assert throughputs["kata"] < throughputs["docker"]
    # The 50/50 update mix (A) has strictly higher per-op latency than the
    # read-only mix (C); throughput is think-time dominated, so latency is
    # the robust sensitivity signal.
    for name in ("native", "docker"):
        assert (
            results["workload-a"][name].mean_latency_s
            > results["workload-c"][name].mean_latency_s
        )
