"""Experiment registry: metadata for every reproduced artefact.

This is the machine-readable version of DESIGN.md's per-experiment index:
paper artefact, workload and parameters, implementing modules, and the
benchmark target that regenerates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One paper artefact and how this library reproduces it."""

    figure_id: str
    paper_artifact: str
    workload: str
    parameters: str
    modules: tuple[str, ...]
    bench_target: str
    paper_observation: str
    repetitions: int = 10
    notes: tuple[str, ...] = field(default=())


EXPERIMENTS: dict[str, Experiment] = {
    exp.figure_id: exp
    for exp in [
        Experiment(
            figure_id="fig05",
            paper_artifact="Figure 5",
            workload="ffmpeg H.264->H.265, preset 'slower', 16 threads/16 vCPUs",
            parameters="30 MB 1080p clip; >=10 repetitions",
            modules=("repro.workloads.ffmpeg", "repro.hardware.cpu", "repro.kernel.sched"),
            bench_target="benchmarks/test_fig05_ffmpeg.py",
            paper_observation="~65 s on all platforms; OSv is a severe outlier",
        ),
        Experiment(
            figure_id="cpu-prime",
            paper_artifact="Finding 1 (text)",
            workload="sysbench CPU prime verification, 1 thread",
            parameters="max prime 10000",
            modules=("repro.workloads.sysbench_cpu",),
            bench_target="benchmarks/test_fig05_ffmpeg.py",
            paper_observation="every platform performs nearly equivalently",
        ),
        Experiment(
            figure_id="fig06",
            paper_artifact="Figure 6",
            workload="tinymembench random-access latency",
            parameters="buffers 2^16..2^26 bytes; hugepage ablation",
            modules=("repro.workloads.tinymembench", "repro.hardware.tlb", "repro.hardware.cache"),
            bench_target="benchmarks/test_fig06_mem_latency.py",
            paper_observation="Firecracker worst (+std); Cloud Hypervisor elevated; rest equal",
        ),
        Experiment(
            figure_id="fig07",
            paper_artifact="Figure 7",
            workload="tinymembench sequential copy, regular + SSE2",
            parameters=">=10 repetitions",
            modules=("repro.workloads.tinymembench", "repro.hardware.memory"),
            bench_target="benchmarks/test_fig07_mem_throughput.py",
            paper_observation="hypervisors underperform; QEMU trades throughput for latency",
        ),
        Experiment(
            figure_id="fig08",
            paper_artifact="Figure 8",
            workload="STREAM COPY",
            parameters="2.2 GiB allocation; average of max over 10 runs",
            modules=("repro.workloads.stream",),
            bench_target="benchmarks/test_fig08_stream.py",
            paper_observation="same ranking as tinymembench throughput",
        ),
        Experiment(
            figure_id="fig09",
            paper_artifact="Figure 9",
            workload="fio sequential read/write",
            parameters="128 KiB blocks, libaio, direct=1, file 2x RAM",
            modules=("repro.workloads.fio", "repro.virtio.blk", "repro.virtio.ninep"),
            bench_target="benchmarks/test_fig09_fio_throughput.py",
            paper_observation="gVisor/Kata <= half native; Cloud Hypervisor low; FC/OSv excluded",
        ),
        Experiment(
            figure_id="fig10",
            paper_artifact="Figure 10",
            workload="fio randread latency",
            parameters="4 KiB blocks, libaio",
            modules=("repro.workloads.fio", "repro.hardware.storage"),
            bench_target="benchmarks/test_fig10_fio_latency.py",
            paper_observation="Kata exceptionally poor; CLH remarkably good; gVisor excluded",
        ),
        Experiment(
            figure_id="fig11",
            paper_artifact="Figure 11",
            workload="iperf3, host as client",
            parameters="max over 5 runs",
            modules=("repro.workloads.iperf", "repro.kernel.netdev", "repro.kernel.netstack"),
            bench_target="benchmarks/test_fig11_iperf.py",
            paper_observation="native 37.28; OSv 36.36; bridges -9..10%; TAP+virtio -25%; gVisor outlier",
            repetitions=5,
        ),
        Experiment(
            figure_id="fig12",
            paper_artifact="Figure 12",
            workload="netperf request/response",
            parameters="90th percentile over 5 runs",
            modules=("repro.workloads.netperf",),
            bench_target="benchmarks/test_fig12_netperf.py",
            paper_observation="bridges best; gVisor 3-4x competitors",
            repetitions=5,
        ),
        Experiment(
            figure_id="fig13",
            paper_artifact="Figure 13",
            workload="container startup, patched exit",
            parameters="300 startups; OCI vs Docker-daemon",
            modules=("repro.workloads.startup", "repro.guests.init"),
            bench_target="benchmarks/test_fig13_container_boot.py",
            paper_observation="Docker ~100ms OCI; gVisor 190ms; Kata 600ms; LXC 800ms; daemon +250ms",
            repetitions=300,
        ),
        Experiment(
            figure_id="fig14",
            paper_artifact="Figure 14",
            workload="hypervisor boot, same kernel+rootfs, patched init",
            parameters="300 startups",
            modules=("repro.workloads.startup", "repro.guests.linux", "repro.platforms.qemu"),
            bench_target="benchmarks/test_fig14_hypervisor_boot.py",
            paper_observation="CLH fastest; QEMU(+qboot) middle; Firecracker ~350ms; uVM slowest",
            repetitions=300,
        ),
        Experiment(
            figure_id="fig15",
            paper_artifact="Figure 15",
            workload="OSv boot under supported hypervisors",
            parameters="300 startups; end-to-end vs stdout-grep",
            modules=("repro.workloads.startup", "repro.guests.osv_kernel"),
            bench_target="benchmarks/test_fig15_osv_boot.py",
            paper_observation="order flips: FC fastest, uVM second, QEMU last",
            repetitions=300,
        ),
        Experiment(
            figure_id="fig16",
            paper_artifact="Figure 16",
            workload="memcached under YCSB workload-a",
            parameters="50/50 read/update, 5 runs",
            modules=("repro.workloads.memcached", "repro.workloads.ycsb", "repro.simcore"),
            bench_target="benchmarks/test_fig16_memcached.py",
            paper_observation="containers (esp. LXC) best; Kata surprisingly low; gVisor poor",
            repetitions=5,
        ),
        Experiment(
            figure_id="fig17",
            paper_artifact="Figure 17",
            workload="MySQL sysbench oltp_read_write",
            parameters="1M records x3 tables; 10..160 threads; 3 runs",
            modules=("repro.workloads.mysql",),
            bench_target="benchmarks/test_fig17_mysql.py",
            paper_observation="guests peak ~50 threads; native ~110; three performance groups",
            repetitions=3,
        ),
        Experiment(
            figure_id="fig18",
            paper_artifact="Figure 18",
            workload="ftrace over sysbench cpu/mem/fileio + iperf3 + boot/shutdown",
            parameters="union of per-workload function sets; EPSS weighting",
            modules=("repro.security.hap", "repro.security.profiles", "repro.kernel.ftrace"),
            bench_target="benchmarks/test_fig18_hap.py",
            paper_observation="Firecracker widest interface; OSv narrowest; secure containers high",
            repetitions=1,
        ),
    ]
}


def get_experiment(figure_id: str) -> Experiment:
    """Look up one experiment's metadata."""
    try:
        return EXPERIMENTS[figure_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {figure_id!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
