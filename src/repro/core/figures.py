"""Figure reproductions — one declaration per paper artefact.

Every artefact of the paper's evaluation (Figures 5–18 and Finding 1's
prime control) is one :class:`Figure` in :data:`FIGURES`: the artefact,
a description of its workload, the builder of its declarative
:class:`~repro.core.plan.FigurePlan` (workload, platform roster,
repetitions, stream tag, fold rules; the builder's defaults are the
paper's scale) and its quick-mode kwargs. :func:`run_figure` and
:func:`lower_figure` are the entry points: the plan layer lowers a plan
into a flat ``(platform, rep)`` job grid and dispatches it through one
shared order-preserving pool (see :mod:`repro.core.plan`). Platform
exclusions follow Section 3 and are recorded in the result's notes
rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.plan import FigurePlan, GridOutcome, LoweredGrid
from repro.core.results import FigureResult, ResultRow, SeriesRow
from repro.core.stats import summarize
from repro.errors import ConfigurationError
from repro.kernel.functions import default_catalog
from repro.platforms import PLATFORM_SETS
from repro.platforms.base import Platform
from repro.rng import RngStream
from repro.security.epss import EpssModel
from repro.security.hap import measure_hap
from repro.workloads.base import Workload
from repro.workloads.ffmpeg import FfmpegEncodeWorkload
from repro.workloads.fio import FioLatencyWorkload, FioThroughputWorkload
from repro.workloads.iperf import IperfWorkload
from repro.workloads.memcached import MemcachedYcsbWorkload
from repro.workloads.mysql import MysqlOltpWorkload
from repro.workloads.netperf import NetperfWorkload
from repro.workloads.startup import MeasurementMethod, StartupWorkload
from repro.workloads.stream import StreamWorkload
from repro.workloads.sysbench_cpu import SysbenchCpuWorkload
from repro.workloads.tinymembench import (
    TinymembenchLatencyWorkload,
    TinymembenchThroughputWorkload,
)

__all__ = ["Figure", "FIGURES", "figure", "lower_figure", "run_figure"]


def _platforms(default_set: str, override: list[str] | None) -> list[str]:
    return list(override) if override is not None else list(PLATFORM_SETS[default_set])


class HapMeasurementWorkload(Workload):
    """Adapter putting the deterministic HAP probe on the job grid.

    The catalog and EPSS model are looked up inside :meth:`run` so the
    workload stays a stateless, trivially picklable grid payload; the
    memoized :func:`~repro.kernel.functions.default_catalog` makes that
    lookup free after the first cell in each process.
    """

    name = "hap"

    def run(self, platform: Platform, rng: RngStream) -> Any:
        del rng  # the HAP measurement is fully deterministic
        return measure_hap(platform, default_catalog(), EpssModel())


# --- Figure 5: ffmpeg ------------------------------------------------------------


def plan_fig05(repetitions: int = 10, platforms: list[str] | None = None) -> FigurePlan:
    """ffmpeg H.264->H.265 re-encode time per platform (ms)."""
    plan = FigurePlan(
        figure_id="fig05",
        title="ffmpeg video re-encoding CPU bound benchmark (1080p H.264 -> H.265)",
        unit="ms",
    )
    spec = plan.measure(
        FfmpegEncodeWorkload(threads=16, preset="slower"),
        _platforms("cpu", platforms),
        repetitions,
    )
    plan.fold_rows(spec, lambda r: r.encode_time_ms)
    plan.note("OSv is the outlier: custom thread scheduler + SIMD handling.")
    return plan


def plan_cpu_prime(
    repetitions: int = 10, platforms: list[str] | None = None
) -> FigurePlan:
    """Sysbench prime verification control (events/s, single thread)."""
    plan = FigurePlan(
        figure_id="cpu-prime",
        title="Sysbench CPU prime verification (Finding 1 control)",
        unit="events/s",
    )
    spec = plan.measure(SysbenchCpuWorkload(), _platforms("cpu", platforms), repetitions)
    plan.fold_rows(spec, lambda r: r.events_per_second)
    plan.note("All platforms perform nearly equivalently (Finding 1).")
    return plan


# --- Figure 6: memory latency ------------------------------------------------------


def plan_fig06(
    repetitions: int = 10,
    platforms: list[str] | None = None,
    *,
    huge_pages: bool = False,
) -> FigurePlan:
    """Tinymembench random-access latency vs. buffer size (ns over L1)."""
    plan = FigurePlan(
        figure_id="fig06" if not huge_pages else "fig06-hugepages",
        title="Memory latency (tinymembench), buffers 2^16..2^26",
        unit="ns",
        scope="fig06" + ("-huge" if huge_pages else ""),
        x_label="buffer bytes",
    )
    spec = plan.measure(
        TinymembenchLatencyWorkload(huge_pages=huge_pages),
        _platforms("memory", platforms),
        repetitions,
        guard_support=True,
    )
    plan.fold_series(
        spec, lambda run: [(p.buffer_bytes, p.extra_latency_ns) for p in run]
    )
    return plan


# --- Figure 7: memory throughput ----------------------------------------------------


def plan_fig07(repetitions: int = 10, platforms: list[str] | None = None) -> FigurePlan:
    """Tinymembench sequential copy throughput, regular + SSE2 (MiB/s)."""
    plan = FigurePlan(
        figure_id="fig07",
        title="Memory copy throughput (tinymembench), regular and SSE2",
        unit="MiB/s",
    )
    spec = plan.measure(
        TinymembenchThroughputWorkload(), _platforms("memory", platforms), repetitions
    )

    def sse2_columns(runs, summary):
        sse2 = summarize([r.sse2_mib_per_s for r in runs])
        return {"sse2_mean": sse2.mean, "sse2_std": sse2.std}

    plan.fold_rows(spec, lambda r: r.copy_mib_per_s, extra=sse2_columns)
    return plan


# --- Figure 8: STREAM ----------------------------------------------------------------


def plan_fig08(repetitions: int = 10, platforms: list[str] | None = None) -> FigurePlan:
    """STREAM COPY bandwidth (MiB/s), average of per-run maxima."""
    plan = FigurePlan(
        figure_id="fig08",
        title="STREAM COPY throughput, 2.2 GiB allocation",
        unit="MiB/s",
    )
    spec = plan.measure(StreamWorkload(), _platforms("memory", platforms), repetitions)
    plan.fold_rows(spec, lambda r: r.copy_mib_per_s)
    return plan


# --- Figures 9/10: fio ------------------------------------------------------------------


def plan_fig09(
    repetitions: int = 10,
    platforms: list[str] | None = None,
    *,
    drop_host_cache: bool = True,
) -> FigurePlan:
    """fio sequential 128 KiB read/write throughput (MB/s)."""
    plan = FigurePlan(
        figure_id="fig09" if drop_host_cache else "fig09-cached",
        title="fio 128 KiB sequential throughput (libaio, direct=1)",
        unit="MB/s",
        scope="fig09" + ("" if drop_host_cache else "-cached"),
    )
    spec = plan.measure(
        FioThroughputWorkload(drop_host_cache=drop_host_cache),
        _platforms("io_throughput", platforms),
        repetitions,
        guard_support=True,
    )

    def write_columns(runs, summary):
        write = summarize([r.write_mb_per_s for r in runs])
        return {"write_mean": write.mean, "write_std": write.std}

    plan.fold_rows(spec, lambda r: r.read_mb_per_s, extra=write_columns)
    plan.note("Firecracker and OSv excluded (Section 3.3).")
    return plan


def plan_fig10(repetitions: int = 10, platforms: list[str] | None = None) -> FigurePlan:
    """fio 4 KiB randread latency (us)."""
    plan = FigurePlan(
        figure_id="fig10",
        title="fio randread latency, 4 KiB blocks (libaio)",
        unit="us",
    )
    spec = plan.measure(
        FioLatencyWorkload(),
        _platforms("io_latency", platforms),
        repetitions,
        guard_support=True,
    )
    plan.fold_rows(spec, lambda r: r.mean_latency_us)
    plan.note("gVisor excluded: reads stay cached (Section 3.3).")
    return plan


# --- Figures 11/12: network --------------------------------------------------------------


def plan_fig11(repetitions: int = 5, platforms: list[str] | None = None) -> FigurePlan:
    """iperf3 throughput (Gbit/s), maximum over repetitions."""
    plan = FigurePlan(
        figure_id="fig11",
        title="iperf3 network throughput (max over 5 runs)",
        unit="Gbit/s",
    )
    spec = plan.measure(IperfWorkload(), _platforms("network", platforms), repetitions)
    plan.fold_rows(
        spec,
        lambda r: r.throughput_gbit_per_s,
        extra=lambda runs, summary: {"max": summary.maximum},
    )
    return plan


def plan_fig12(repetitions: int = 5, platforms: list[str] | None = None) -> FigurePlan:
    """Netperf request/response P90 latency (us)."""
    plan = FigurePlan(
        figure_id="fig12",
        title="Netperf network latency, 90th percentile",
        unit="us",
    )
    spec = plan.measure(NetperfWorkload(), _platforms("network", platforms), repetitions)
    plan.fold_rows(spec, lambda r: r.p90_latency_us)
    return plan


# --- Figures 13/14/15: startup -------------------------------------------------------------


def _startup_plan(
    figure_id: str,
    title: str,
    platform_set: str,
    startups: int,
    platforms: list[str] | None,
    methods: tuple[MeasurementMethod, ...] = (MeasurementMethod.END_TO_END,),
) -> FigurePlan:
    plan = FigurePlan(figure_id=figure_id, title=title, unit="ms", x_label="ms")
    roster = _platforms(platform_set, platforms)
    specs = [
        (
            method,
            plan.measure(
                StartupWorkload(startups=startups, method=method),
                roster,
                tag=method.value,
                split_reps=False,
                key=method.value,
            ),
        )
        for method in methods
    ]
    multi = len(specs) > 1

    def fold(result: FigureResult, outcome: GridOutcome) -> None:
        # Platform-major, method-minor — the historical row/series order.
        for name, platform, _ in outcome.items(specs[0][1]):
            for method, spec in specs:
                run = outcome.runs(spec, name)[0]
                xs, ys = run.cdf()
                label = f"{platform.label} [{method.value}]" if multi else platform.label
                row_name = f"{name}:{method.value}" if multi else name
                result.series.append(
                    SeriesRow(
                        platform=row_name,
                        label=label,
                        x_values=tuple(xs),
                        y_values=tuple(ys),
                        unit="ms",
                    )
                )
                samples_ms = [s * 1e3 for s in run.samples_s]
                result.rows.append(
                    ResultRow(
                        platform=row_name,
                        label=label,
                        summary=summarize(samples_ms),
                        unit="ms",
                    )
                )

    plan.fold_with(fold)
    return plan


def plan_fig13(startups: int = 300, platforms: list[str] | None = None) -> FigurePlan:
    """Container runtime startup CDF, Docker-daemon vs. direct OCI."""
    plan = _startup_plan(
        "fig13",
        "Container boot time CDF (300 startups; OCI = direct runtime invocation)",
        "container_boot",
        startups,
        platforms,
    )
    plan.note("The Docker daemon adds ~250 ms over direct OCI invocation.")
    return plan


def plan_fig14(startups: int = 300, platforms: list[str] | None = None) -> FigurePlan:
    """Hypervisor boot CDF with the same kernel/rootfs and patched init."""
    plan = _startup_plan(
        "fig14",
        "Hypervisor boot time CDF (300 startups, patched init)",
        "hypervisor_boot",
        startups,
        platforms,
    )
    plan.note("Firecracker is slowest end-to-end despite its reputation (Conclusion 5).")
    return plan


def plan_fig15(startups: int = 300, platforms: list[str] | None = None) -> FigurePlan:
    """OSv boot CDF under its hypervisors, both measurement methods."""
    plan = _startup_plan(
        "fig15",
        "OSv boot time CDF under supported hypervisors (300 startups)",
        "osv_boot",
        startups,
        platforms,
        methods=(MeasurementMethod.END_TO_END, MeasurementMethod.STDOUT_GREP),
    )
    plan.note(
        "End-to-end and stdout-grep curves nearly superimpose (Finding 16); "
        "the hypervisor ordering reverses versus Figure 14."
    )
    return plan


# --- Figures 16/17: applications ---------------------------------------------------------------


def plan_fig16(repetitions: int = 5, platforms: list[str] | None = None) -> FigurePlan:
    """Memcached under YCSB workload-a (ops/s)."""
    plan = FigurePlan(
        figure_id="fig16",
        title="Memcached YCSB workload-a throughput",
        unit="ops/s",
    )
    spec = plan.measure(
        MemcachedYcsbWorkload(), _platforms("applications", platforms), repetitions
    )
    plan.fold_rows(spec, lambda r: r.throughput_ops_per_s)
    return plan


def plan_fig17(repetitions: int = 3, platforms: list[str] | None = None) -> FigurePlan:
    """MySQL sysbench oltp_read_write TPS over 10..160 threads."""
    plan = FigurePlan(
        figure_id="fig17",
        title="MySQL sysbench oltp_read_write with increasing threads",
        unit="tps",
        x_label="threads",
    )
    spec = plan.measure(
        MysqlOltpWorkload(), _platforms("applications", platforms), repetitions
    )
    plan.fold_series(spec, lambda run: list(zip(run.thread_counts, run.tps)))
    plan.note("Wide error bands; no stable ranking in the top group (Finding 23).")
    return plan


# --- Figure 18: HAP -----------------------------------------------------------------------------


def plan_fig18(platforms: list[str] | None = None) -> FigurePlan:
    """Extended HAP: distinct host-kernel functions, EPSS-weighted score."""
    plan = FigurePlan(
        figure_id="fig18",
        title="Extended HAP metric (host kernel functions, EPSS-weighted)",
        unit="functions",
    )
    spec = plan.measure(
        HapMeasurementWorkload(),
        _platforms("security", platforms),
        split_reps=False,
    )

    def fold(result: FigureResult, outcome: GridOutcome) -> None:
        for name, platform, runs in outcome.items(spec):
            score = runs[0]
            result.rows.append(
                ResultRow(
                    name,
                    platform.label,
                    summarize([float(score.unique_functions)]),
                    "functions",
                    extra={
                        "weighted_score": score.weighted_score,
                        "total_invocations": float(score.total_invocations),
                    },
                )
            )

    plan.fold_with(fold)
    plan.note(
        "Firecracker exposes the widest host interface; OSv the narrowest "
        "(Findings 24-27)."
    )
    return plan


# --- registry -----------------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One paper artefact and how this library reproduces it.

    ``build`` returns the figure's :class:`~repro.core.plan.FigurePlan`;
    its keyword defaults are the paper's scale. ``quick`` holds the
    kwargs of quick mode (``run --quick``), under any caller overrides.
    """

    paper_artifact: str
    workload: str
    build: Callable[..., FigurePlan]
    quick: dict[str, Any]


#: Every reproduced artefact, in the paper's order.
FIGURES: dict[str, Figure] = {
    "fig05": Figure(
        "Figure 5", "ffmpeg H.264->H.265, preset 'slower', 16 threads/16 vCPUs",
        plan_fig05, {"repetitions": 3},
    ),
    "cpu-prime": Figure(
        "Finding 1 (text)", "sysbench CPU prime verification, 1 thread",
        plan_cpu_prime, {"repetitions": 3},
    ),
    "fig06": Figure(
        "Figure 6", "tinymembench random-access latency",
        plan_fig06, {"repetitions": 3},
    ),
    "fig07": Figure(
        "Figure 7", "tinymembench sequential copy, regular + SSE2",
        plan_fig07, {"repetitions": 3},
    ),
    "fig08": Figure(
        "Figure 8", "STREAM COPY",
        plan_fig08, {"repetitions": 3},
    ),
    "fig09": Figure(
        "Figure 9", "fio sequential read/write",
        plan_fig09, {"repetitions": 3},
    ),
    "fig10": Figure(
        "Figure 10", "fio randread latency",
        plan_fig10, {"repetitions": 3},
    ),
    "fig11": Figure(
        "Figure 11", "iperf3, host as client",
        plan_fig11, {"repetitions": 3},
    ),
    "fig12": Figure(
        "Figure 12", "netperf request/response",
        plan_fig12, {"repetitions": 3},
    ),
    "fig13": Figure(
        "Figure 13", "container startup, patched exit",
        plan_fig13, {"startups": 60},
    ),
    "fig14": Figure(
        "Figure 14", "hypervisor boot, same kernel+rootfs, patched init",
        plan_fig14, {"startups": 60},
    ),
    "fig15": Figure(
        "Figure 15", "OSv boot under supported hypervisors",
        plan_fig15, {"startups": 60},
    ),
    "fig16": Figure(
        "Figure 16", "memcached under YCSB workload-a",
        plan_fig16, {"repetitions": 3},
    ),
    "fig17": Figure(
        "Figure 17", "MySQL sysbench oltp_read_write",
        plan_fig17, {"repetitions": 3},
    ),
    "fig18": Figure(
        "Figure 18", "ftrace over sysbench cpu/mem/fileio + iperf3 + boot/shutdown",
        plan_fig18, {},
    ),
}


def figure(figure_id: str) -> Figure:
    """The declaration of ``figure_id`` (an unknown id is a user error)."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; known: {', '.join(FIGURES)}"
        ) from None


def lower_figure(figure_id: str, seed: int, **kwargs) -> LoweredGrid:
    """Lower one figure's plan against ``seed`` without executing it.

    The returned :class:`~repro.core.plan.LoweredGrid` is the flat,
    inspectable ``(platform, rep)`` job grid: ``.describe()`` prints it
    (the ``repro-bench plan`` view), ``.execute(mapper)`` runs it on any
    grid backend, and ``.cells[i].job.run()`` reproduces exactly what a
    worker executes — the profiling seam (``docs/PERFORMANCE.md``).
    """
    return figure(figure_id).build(**kwargs).lower(seed)


def run_figure(figure_id: str, seed: int, **kwargs) -> FigureResult:
    """Run one figure reproduction by id (plan -> lower -> grid -> fold)."""
    return figure(figure_id).build(**kwargs).run(seed)
