"""Automated checks of the paper's 28 findings.

Each check re-derives one of the paper's numbered findings from the
reproduced figures and reports pass/fail with the observed numbers. The
checks encode *shape* assertions (orderings, ratios, groupings), not
absolute values — exactly the reproduction criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.results import FigureResult
from repro.platforms import get_platform
from repro.security.analysis import audit_platform

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.core.suite import BenchmarkSuite

__all__ = ["FindingCheck", "FindingsEvaluator"]


@dataclass(frozen=True)
class FindingCheck:
    """The verdict on one paper finding."""

    finding_id: int
    statement: str
    passed: bool
    detail: str


class FindingsEvaluator:
    """Evaluates every finding against one suite's figures.

    Figure access goes through
    :meth:`~repro.core.suite.BenchmarkSuite.run_figure`, so each figure
    is computed once per suite and shared with (and persisted by) the
    suite's scheduler/store layer. The suite's ``quick`` flag sets the
    evaluator's repetitions and startups.
    """

    #: Per-figure repetition overrides that differ from the quick/full reps.
    _FIXED_OVERRIDES: dict[str, dict[str, Any]] = {
        "fig11": {"repetitions": 5},
        "fig12": {"repetitions": 5},
        "fig16": {"repetitions": 3},
        "fig17": {"repetitions": 3},
        "fig18": {},
    }

    def __init__(self, suite: "BenchmarkSuite") -> None:
        # Quick mode trims repetitions: orderings are stable well below the
        # paper's counts thanks to the deterministic seed tree.
        self.reps = 5 if suite.quick else 10
        self.startups = 60 if suite.quick else 300
        self._suite = suite

    # --- figure access -------------------------------------------------------------

    def overrides_for(self, figure_id: str) -> dict[str, Any]:
        """The kwargs this evaluator runs ``figure_id`` with."""
        if figure_id in self._FIXED_OVERRIDES:
            return dict(self._FIXED_OVERRIDES[figure_id])
        if figure_id in ("fig13", "fig14", "fig15"):
            return {"startups": self.startups}
        if figure_id == "fig09":
            return {
                "repetitions": self.reps,
                "platforms": [
                    "native", "docker", "lxc", "qemu", "cloud-hypervisor",
                    "kata", "kata-virtiofs", "gvisor",
                ],
            }
        return {"repetitions": self.reps}

    def figure(self, figure_id: str) -> FigureResult:
        """One figure, through the suite (which caches it); an unknown id
        raises the registry's :class:`~repro.errors.ConfigurationError`."""
        return self._suite.run_figure(figure_id, **self.overrides_for(figure_id))

    # --- helpers ----------------------------------------------------------------------

    @staticmethod
    def _check(finding_id: int, statement: str, passed: bool, detail: str) -> FindingCheck:
        return FindingCheck(finding_id, statement, bool(passed), detail)

    def _latency_at_largest_buffer(self, platform: str) -> float:
        series = self.figure("fig06").series_for(platform)
        return series.y_values[-1]

    def _mysql_peak(self, platform: str) -> tuple[float, float]:
        series = self.figure("fig17").series_for(platform)
        best = max(range(len(series.y_values)), key=lambda i: series.y_values[i])
        return series.x_values[best], series.y_values[best]

    # --- the 28 findings ------------------------------------------------------------------

    def evaluate(self) -> list[FindingCheck]:
        """Run every check, in finding order."""
        checks = [getattr(self, f"finding_{i:02d}")() for i in range(1, 29)]
        return checks

    def finding_01(self) -> FindingCheck:
        prime = self.figure("cpu-prime")
        means = [r.summary.mean for r in prime.rows]
        spread = (max(means) - min(means)) / max(means)
        ffmpeg = self.figure("fig05")
        others = [r.summary.mean for r in ffmpeg.rows if r.platform != "osv"]
        osv_ratio = ffmpeg.row("osv").summary.mean / (sum(others) / len(others))
        passed = spread < 0.05 and osv_ratio > 1.25
        return self._check(
            1,
            "Basic CPU work shows no overhead; complex SIMD/threaded encode "
            "penalizes custom-scheduler platforms (OSv)",
            passed,
            f"prime spread {spread:.1%}; OSv ffmpeg ratio {osv_ratio:.2f}x",
        )

    def finding_02(self) -> FindingCheck:
        prime = self.figure("cpu-prime")
        native = prime.row("native").summary.mean
        worst = min(
            prime.row(p).summary.mean / native for p in ("docker", "lxc", "gvisor", "kata")
        )
        return self._check(
            2,
            "All containers, including secure containers, are on-par with "
            "native for CPU-bound tasks",
            worst > 0.95,
            f"worst container/native events ratio {worst:.3f}",
        )

    def finding_03(self) -> FindingCheck:
        native = self._latency_at_largest_buffer("native")
        kata = self._latency_at_largest_buffer("kata")
        osv = self._latency_at_largest_buffer("osv")
        passed = kata / native < 1.12 and osv / native < 1.12
        return self._check(
            3,
            "Kata (QEMU-based) and OSv-under-QEMU show no memory penalty: "
            "hypervisors do not unconditionally cost memory performance",
            passed,
            f"kata/native {kata / native:.2f}; osv/native {osv / native:.2f}",
        )

    def finding_04(self) -> FindingCheck:
        latencies = {
            p: self._latency_at_largest_buffer(p)
            for p in ("native", "qemu", "firecracker", "cloud-hypervisor")
        }
        throughput = self.figure("fig07")
        tp = {p: throughput.row(p).summary.mean for p in latencies}
        fc_worst_latency = latencies["firecracker"] == max(latencies.values())
        fc_worst_throughput = tp["firecracker"] == min(tp.values())
        clh_latency_up = latencies["cloud-hypervisor"] > 1.15 * latencies["native"]
        clh_tp_ok = tp["cloud-hypervisor"] > 0.92 * tp["native"]
        qemu_latency_ok = latencies["qemu"] < 1.15 * latencies["native"]
        qemu_tp_down = tp["qemu"] < 0.92 * tp["native"]
        passed = all(
            [fc_worst_latency, fc_worst_throughput, clh_latency_up, clh_tp_ok,
             qemu_latency_ok, qemu_tp_down]
        )
        return self._check(
            4,
            "Firecracker is the memory outlier; CLH trades latency, QEMU "
            "trades throughput",
            passed,
            f"latency ns {dict((k, round(v, 1)) for k, v in latencies.items())}; "
            f"copy MiB/s {dict((k, round(v)) for k, v in tp.items())}",
        )

    def finding_05(self) -> FindingCheck:
        osv = self._latency_at_largest_buffer("osv")
        osv_fc = self._latency_at_largest_buffer("osv-fc")
        return self._check(
            5,
            "OSv's memory performance tracks its hypervisor: OSv-FC "
            "underperforms OSv-QEMU",
            osv_fc > 1.2 * osv,
            f"osv-fc/osv latency ratio {osv_fc / osv:.2f}",
        )

    def finding_06(self) -> FindingCheck:
        fio = self.figure("fig09")
        native = fio.row("native").summary.mean
        near = all(fio.row(p).summary.mean > 0.9 * native for p in ("docker", "lxc", "qemu"))
        low = all(
            fio.row(p).summary.mean < 0.65 * native
            for p in ("gvisor", "kata", "cloud-hypervisor")
        )
        return self._check(
            6,
            "I/O is near-native except for gVisor, Kata, and Cloud Hypervisor",
            near and low,
            f"read MB/s native {native:,.0f}; "
            + ", ".join(
                f"{p} {fio.row(p).summary.mean:,.0f}"
                for p in ("docker", "lxc", "qemu", "gvisor", "kata", "cloud-hypervisor")
            ),
        )

    def finding_07(self) -> FindingCheck:
        fio = self.figure("fig09")
        ninep = fio.row("kata").summary.mean
        virtiofs = fio.row("kata-virtiofs").summary.mean
        qemu = fio.row("qemu").summary.mean
        passed = virtiofs > 1.5 * ninep and virtiofs > 0.85 * qemu
        return self._check(
            7,
            "Kata with virtio-fs significantly outperforms 9p and is on par "
            "with QEMU",
            passed,
            f"9p {ninep:,.0f} MB/s; virtio-fs {virtiofs:,.0f}; qemu {qemu:,.0f}",
        )

    def finding_08(self) -> FindingCheck:
        fio = self.figure("fig09")
        gvisor = fio.row("gvisor").summary.mean
        native = fio.row("native").summary.mean
        return self._check(
            8,
            "gVisor I/O is severely hampered by 9p and the Gofer",
            gvisor < 0.6 * native,
            f"gvisor/native read ratio {gvisor / native:.2f}",
        )

    def finding_09(self) -> FindingCheck:
        fio = self.figure("fig09")
        clh = fio.row("cloud-hypervisor").summary.mean
        qemu = fio.row("qemu").summary.mean
        latency = self.figure("fig10")
        clh_lat = latency.row("cloud-hypervisor").summary.mean
        qemu_lat = latency.row("qemu").summary.mean
        passed = clh < 0.75 * qemu and clh_lat < qemu_lat
        return self._check(
            9,
            "Cloud Hypervisor throughput lags (no architectural bottleneck: "
            "QEMU is near native) while its request latency is good",
            passed,
            f"CLH {clh:,.0f} vs QEMU {qemu:,.0f} MB/s; "
            f"latency {clh_lat:.0f} vs {qemu_lat:.0f} us",
        )

    def finding_10(self) -> FindingCheck:
        netperf = self.figure("fig12")
        bridge = {p: netperf.row(p).summary.mean for p in ("docker", "lxc", "kata")}
        hypervisors = {
            p: netperf.row(p).summary.mean
            for p in ("qemu", "firecracker", "cloud-hypervisor")
        }
        passed = max(bridge.values()) < min(hypervisors.values())
        return self._check(
            10,
            "Bridge-based platforms (Docker, Kata, LXC) have the lowest "
            "latencies, followed by the hypervisors",
            passed,
            f"bridge max {max(bridge.values()):.1f} us < "
            f"hypervisor min {min(hypervisors.values()):.1f} us",
        )

    def finding_11(self) -> FindingCheck:
        netperf = self.figure("fig12")
        osv = netperf.row("osv").summary.mean
        native = netperf.row("native").summary.mean
        hyp_min = min(
            netperf.row(p).summary.mean
            for p in ("qemu", "firecracker", "cloud-hypervisor")
        )
        passed = native < osv < hyp_min
        return self._check(
            11,
            "OSv does not beat everything but is slightly faster than the "
            "hypervisors",
            passed,
            f"native {native:.1f} < osv {osv:.1f} < hypervisors {hyp_min:.1f} us",
        )

    def finding_12(self) -> FindingCheck:
        netperf = self.figure("fig12")
        gvisor = netperf.row("gvisor").summary.mean
        others = [
            r.summary.mean for r in netperf.rows if r.platform not in ("gvisor",)
        ]
        ratio = gvisor / (sum(others) / len(others))
        return self._check(
            12,
            "gVisor's P90 latency is 3-4x its competitors",
            2.5 <= ratio <= 6.0,
            f"gvisor/others mean ratio {ratio:.2f}x",
        )

    def finding_13(self) -> FindingCheck:
        boot = self.figure("fig13")
        fast = boot.row("docker-oci").summary.mean < 160 and boot.row("gvisor").summary.mean < 300
        slow = boot.row("kata").summary.mean > 450 and boot.row("lxc").summary.mean > 600
        return self._check(
            13,
            "Containers boot fast except Kata and LXC (> 600 ms)",
            fast and slow,
            ", ".join(
                f"{r.platform} {r.summary.mean:.0f} ms" for r in boot.rows
            ),
        )

    def finding_14(self) -> FindingCheck:
        boot = self.figure("fig14")
        means = {r.platform: r.summary.mean for r in boot.rows}
        passed = (
            means["cloud-hypervisor"] == min(means.values())
            and means["qemu-microvm"] == max(means.values())
            and means["firecracker"]
            > max(means["qemu"], means["qemu-qboot"], means["cloud-hypervisor"])
        )
        return self._check(
            14,
            "Cloud Hypervisor boots fastest; Firecracker is slower than all "
            "QEMU-proper variants; the uVM machine model is slowest",
            passed,
            ", ".join(f"{k} {v:.0f} ms" for k, v in sorted(means.items(), key=lambda kv: kv[1])),
        )

    def finding_15(self) -> FindingCheck:
        osv_boot = self.figure("fig15")
        e2e = {
            r.platform.split(":")[0]: r.summary.mean
            for r in osv_boot.rows
            if r.platform.endswith("end-to-end")
        }
        linux_boot = self.figure("fig14")
        container_like = self.figure("fig13").row("docker-oci").summary.mean
        faster_than_linux = e2e["osv"] < linux_boot.row("qemu").summary.mean
        ordering = e2e["osv-fc"] < e2e["osv-qemu-microvm"] < e2e["osv"]
        near_containers = e2e["osv-fc"] < 2.0 * container_like
        return self._check(
            15,
            "OSv boots faster than Linux guests, about as fast as containers, "
            "and the hypervisor ordering flips (FC fastest)",
            faster_than_linux and ordering and near_containers,
            ", ".join(f"{k} {v:.0f} ms" for k, v in e2e.items()),
        )

    def finding_16(self) -> FindingCheck:
        osv_boot = self.figure("fig15")
        gaps = []
        for platform in ("osv", "osv-fc", "osv-qemu-microvm"):
            e2e = osv_boot.row(f"{platform}:end-to-end").summary.mean
            grep = osv_boot.row(f"{platform}:stdout-grep").summary.mean
            gaps.append((e2e - grep) / e2e)
        passed = all(0.0 <= gap <= 0.12 for gap in gaps)
        return self._check(
            16,
            "End-to-end timing matches stdout-grep timing (termination "
            "overhead is a few percent)",
            passed,
            "gaps: " + ", ".join(f"{gap:.1%}" for gap in gaps),
        )

    def finding_17(self) -> FindingCheck:
        memcached = self.figure("fig16")
        qemu = memcached.row("qemu").summary.mean
        newer_worse = (
            memcached.row("firecracker").summary.mean < qemu
            and memcached.row("cloud-hypervisor").summary.mean < qemu
        )
        containers = [memcached.row(p).summary.mean for p in ("docker", "lxc")]
        hypervisors = [
            memcached.row(p).summary.mean
            for p in ("qemu", "firecracker", "cloud-hypervisor")
        ]
        containers_win = min(containers) > max(hypervisors)
        return self._check(
            17,
            "Newer hypervisors perform worse; regular containers (esp. LXC) "
            "perform very well",
            newer_worse and containers_win,
            ", ".join(f"{r.platform} {r.summary.mean:,.0f}" for r in memcached.rows),
        )

    def finding_18(self) -> FindingCheck:
        memcached = self.figure("fig16")
        kata = memcached.row("kata").summary.mean
        docker = memcached.row("docker").summary.mean
        return self._check(
            18,
            "Kata's memcached score is surprisingly low given its micro-"
            "benchmarks",
            kata < 0.85 * docker,
            f"kata/docker ratio {kata / docker:.2f}",
        )

    def finding_19(self) -> FindingCheck:
        memcached = self.figure("fig16")
        gvisor = memcached.row("gvisor").summary.mean
        lowest = min(r.summary.mean for r in memcached.rows)
        return self._check(
            19,
            "gVisor's memcached score is the lowest, driven by its network "
            "performance",
            gvisor == lowest,
            f"gvisor {gvisor:,.0f} ops/s",
        )

    def finding_20(self) -> FindingCheck:
        guest_peaks = [self._mysql_peak(p)[0] for p in ("docker", "lxc", "qemu")]
        native_peak_threads, native_peak = self._mysql_peak("native")
        best_guest = max(self._mysql_peak(p)[1] for p in ("docker", "lxc", "qemu"))
        passed = (
            all(20 <= t <= 70 for t in guest_peaks)
            and native_peak_threads >= 70
            and native_peak < 1.25 * best_guest
        )
        return self._check(
            20,
            "Guest TPS peaks around 50 threads; native peaks around 110 "
            "without a significant throughput advantage",
            passed,
            f"guest peaks at {guest_peaks} threads; native at "
            f"{native_peak_threads:.0f} ({native_peak:,.0f} tps vs best guest "
            f"{best_guest:,.0f})",
        )

    def finding_21(self) -> FindingCheck:
        osv = self.figure("fig17").series_for("osv")
        flat = (max(osv.y_values[3:]) - min(osv.y_values[3:])) / max(osv.y_values) < 0.2
        lowest = max(osv.y_values) < 0.4 * self._mysql_peak("docker")[1]
        return self._check(
            21,
            "OSv (and gVisor) severely underperform with flat thread "
            "response — custom thread runtimes",
            flat and lowest,
            f"osv tps range {min(osv.y_values):,.0f}..{max(osv.y_values):,.0f}",
        )

    def finding_22(self) -> FindingCheck:
        fc_peak = self._mysql_peak("firecracker")[1]
        kata_peak = self._mysql_peak("kata")[1]
        group = [self._mysql_peak(p)[1] for p in ("docker", "lxc", "qemu")]
        mean_group = sum(group) / len(group)
        passed = 0.35 * mean_group < fc_peak < 0.7 * mean_group and kata_peak < 0.75 * mean_group
        return self._check(
            22,
            "Firecracker (memory latency) and Kata (I/O latency) deliver "
            "roughly half the main group's throughput",
            passed,
            f"fc {fc_peak:,.0f}, kata {kata_peak:,.0f} vs group {mean_group:,.0f}",
        )

    def finding_23(self) -> FindingCheck:
        peaks = [self._mysql_peak(p)[1] for p in ("native", "docker", "lxc", "qemu")]
        spread = (max(peaks) - min(peaks)) / max(peaks)
        return self._check(
            23,
            "The remaining platforms perform alike with no stable ranking",
            spread < 0.30,
            f"top-group peak spread {spread:.1%}",
        )

    def finding_24(self) -> FindingCheck:
        hap = self.figure("fig18")
        fc = hap.row("firecracker").summary.mean
        highest = max(r.summary.mean for r in hap.rows)
        return self._check(
            24,
            "Firecracker calls into the host kernel most often of all "
            "platforms despite its minimalist image",
            fc == highest,
            f"firecracker {fc:.0f} distinct functions",
        )

    def finding_25(self) -> FindingCheck:
        hap = self.figure("fig18")
        clh = hap.row("cloud-hypervisor").summary.mean
        others = [
            r.summary.mean
            for r in hap.rows
            if r.platform in ("qemu", "firecracker", "docker", "lxc", "kata", "gvisor")
        ]
        return self._check(
            25,
            "Cloud Hypervisor invokes very few host kernel functions "
            "(work-in-progress coverage)",
            clh < min(others),
            f"clh {clh:.0f} vs min(others) {min(others):.0f}",
        )

    def finding_26(self) -> FindingCheck:
        hap = self.figure("fig18")
        secure = min(hap.row("gvisor").summary.mean, hap.row("kata").summary.mean)
        containers = max(hap.row("docker").summary.mean, hap.row("lxc").summary.mean)
        return self._check(
            26,
            "The secure containers have higher HAP numbers than the regular "
            "containers",
            secure > containers,
            f"min(secure) {secure:.0f} > max(containers) {containers:.0f}",
        )

    def finding_27(self) -> FindingCheck:
        hap = self.figure("fig18")
        osv = hap.row("osv").summary.mean
        lowest = min(r.summary.mean for r in hap.rows)
        return self._check(
            27,
            "OSv executes host kernel functions most sparingly: a wide HAP "
            "is not inherent to hypervisors",
            osv == lowest,
            f"osv {osv:.0f} distinct functions",
        )

    def finding_28(self) -> FindingCheck:
        hap = self.figure("fig18")
        kata_audit = audit_platform(get_platform("kata"))
        docker_audit = audit_platform(get_platform("docker"))
        kata_wider_hap = (
            hap.row("kata").summary.mean > hap.row("docker").summary.mean
        )
        kata_deeper = kata_audit.depth_score > docker_audit.depth_score
        return self._check(
            28,
            "The HAP cannot capture defense-in-depth: Kata has a wide HAP "
            "yet strictly more isolation layers than Docker",
            kata_wider_hap and kata_deeper,
            f"kata depth {kata_audit.depth_score:.1f} vs docker "
            f"{docker_audit.depth_score:.1f}; HAP {hap.row('kata').summary.mean:.0f} "
            f"vs {hap.row('docker').summary.mean:.0f}",
        )
