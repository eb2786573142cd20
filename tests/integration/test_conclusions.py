"""The paper's nine Section 5 conclusions, as executable checks.

The findings checker covers the numbered findings; this module asserts
the higher-level conclusions the paper draws from them.
"""

import pytest

from repro.core.figures import run_figure
from repro.platforms import get_platform
from repro.security.analysis import audit_platform

SEED = 42


@pytest.fixture(scope="module")
def figures():
    return {
        "prime": run_figure("cpu-prime", SEED, repetitions=3),
        "stream": run_figure("fig08", SEED, repetitions=3),
        "fio": run_figure(
            "fig09", SEED, repetitions=3,
            platforms=["native", "docker", "lxc", "qemu", "cloud-hypervisor",
                       "kata", "kata-virtiofs", "gvisor"],
        ),
        "iperf": run_figure("fig11", SEED),
        "container_boot": run_figure("fig13", SEED, startups=40),
        "hypervisor_boot": run_figure("fig14", SEED, startups=40),
        "osv_boot": run_figure("fig15", SEED, startups=40),
        "hap": run_figure("fig18", SEED),
    }


class TestConclusions:
    def test_c1_containers_near_native_and_quick(self, figures):
        """C1: Docker/LXC near-native everywhere, low startup."""
        for figure, tolerance in (("prime", 0.96), ("stream", 0.95), ("fio", 0.9),
                                  ("iperf", 0.85)):
            native = figures[figure].row("native").summary.mean
            for name in ("docker", "lxc"):
                assert figures[figure].row(name).summary.mean > tolerance * native
        assert figures["container_boot"].row("docker-oci").summary.mean < 160

    def test_c2_hypervisors_always_pay_net_and_memory(self, figures):
        """C2: network and memory always cost; I/O and CPU depend; maturity
        lowers overhead."""
        native_net = figures["iperf"].row("native").summary.mean
        native_mem = figures["stream"].row("native").summary.mean
        for name in ("qemu", "firecracker", "cloud-hypervisor"):
            assert figures["iperf"].row(name).summary.mean < 0.8 * native_net
            assert figures["stream"].row(name).summary.mean < 0.97 * native_mem
        # QEMU (mature) I/O is near native; CPU is near native for all.
        assert figures["fio"].row("qemu").summary.mean > 0.9 * figures["fio"].row(
            "native"
        ).summary.mean
        # Maturity: QEMU's aggregate overhead < Cloud Hypervisor's.
        assert (
            figures["iperf"].row("qemu").summary.mean
            > figures["iperf"].row("cloud-hypervisor").summary.mean
        )

    def test_c3_secure_containers_weakest_io(self, figures):
        """C3: secure containers suffer in I/O; memory near-native;
        virtio-fs promising."""
        native_io = figures["fio"].row("native").summary.mean
        assert figures["fio"].row("gvisor").summary.mean < 0.62 * native_io
        assert figures["fio"].row("kata").summary.mean < 0.62 * native_io
        native_mem = figures["stream"].row("native").summary.mean
        assert figures["stream"].row("kata").summary.mean > 0.93 * native_mem
        assert figures["stream"].row("gvisor").summary.mean > 0.93 * native_mem
        assert figures["fio"].row("kata-virtiofs").summary.mean > 1.5 * figures[
            "fio"
        ].row("kata").summary.mean

    def test_c4_osv_performs_well_with_exclusions(self, figures):
        """C4: OSv strong where it runs, container-class startup, but
        incompatible with several benchmarks."""
        assert figures["iperf"].row("osv").summary.mean > 0.95 * figures["iperf"].row(
            "native"
        ).summary.mean
        assert "osv" not in [row.platform for row in figures["fio"].rows]
        osv_boot = figures["osv_boot"].row("osv-fc:end-to-end").summary.mean
        container_boot = figures["container_boot"].row("docker-oci").summary.mean
        assert osv_boot < 2.0 * container_boot

    def test_c5_firecracker_not_fastest_to_boot(self, figures):
        """C5: contrary to [1], Firecracker boots slowest end-to-end."""
        means = {r.platform: r.summary.mean for r in figures["hypervisor_boot"].rows}
        assert means["firecracker"] > means["qemu"]
        assert means["firecracker"] > means["cloud-hypervisor"]

    def test_c6_kata_tagline_fails_both_halves(self, figures):
        """C6: neither 'speed of containers' nor 'security of VMs' (by HAP)."""
        assert figures["fio"].row("kata").summary.mean < 0.62 * figures["fio"].row(
            "docker"
        ).summary.mean
        assert (
            figures["hap"].row("kata").summary.mean
            > figures["hap"].row("docker").summary.mean
        )

    def test_c7_purpose_built_protocols_pay_off(self, figures):
        """C7: virtio-fs (built for co-located host/guest) beats 9p."""
        assert (
            figures["fio"].row("kata-virtiofs").summary.mean
            > 1.5 * figures["fio"].row("kata").summary.mean
        )

    def test_c8_osv_narrowest_containers_close(self, figures):
        """C8: OSv exercises the least host-kernel code; containers are the
        next-lowest *full-Linux* platforms. (Cloud Hypervisor sits between
        in our reproduction, consistent with Finding 25's 'very few' —
        the paper's text is ambiguous about its exact rank.)"""
        counts = {r.platform: r.summary.mean for r in figures["hap"].rows}
        assert counts["osv"] == min(counts.values())
        full_linux = {k: v for k, v in counts.items() if k not in ("osv", "cloud-hypervisor")}
        assert min(full_linux, key=full_linux.get) in ("native", "lxc", "docker")

    def test_c9_widest_interfaces_offer_depth_instead(self, figures):
        """C9: hypervisors and secure containers invoke the most host
        functions, but the secure containers trade that for depth."""
        counts = {r.platform: r.summary.mean for r in figures["hap"].rows}
        widest_three = sorted(counts, key=counts.get, reverse=True)[:3]
        assert set(widest_three) <= {"firecracker", "kata", "gvisor", "qemu"}
        kata_depth = audit_platform(get_platform("kata")).depth_score
        gvisor_depth = audit_platform(get_platform("gvisor")).depth_score
        docker_depth = audit_platform(get_platform("docker")).depth_score
        assert kata_depth > docker_depth
        assert gvisor_depth > docker_depth
