"""Tests for the EPSS model, HAP measurement, and defense-in-depth audit."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel.functions import KernelFunctionCatalog, Subsystem
from repro.platforms import get_platform
from repro.security.analysis import audit_platform
from repro.security.epss import EpssModel
from repro.security.hap import measure_hap
from repro.security.profiles import (
    HAP_BREADTH,
    HAP_WORKLOADS,
    WORKLOAD_AFFINITY,
    trace_platform,
)


@pytest.fixture(scope="module")
def catalog():
    return KernelFunctionCatalog()


@pytest.fixture(scope="module")
def hap_scores(catalog):
    epss = EpssModel()
    return {
        name: measure_hap(get_platform(name), catalog, epss)
        for name in (
            "native", "docker", "lxc", "qemu", "firecracker",
            "cloud-hypervisor", "kata", "gvisor", "osv",
        )
    }


class TestEpss:
    def test_scores_in_unit_interval(self, catalog):
        epss = EpssModel()
        for subsystem in Subsystem:
            for function in catalog.select_breadth(subsystem, 1.0):
                assert 0.0 <= epss.score(function) <= 1.0

    def test_scores_deterministic(self, catalog):
        epss = EpssModel()
        function = catalog.get("tcp_sendmsg")
        assert epss.score(function) == epss.score(function)

    def test_distribution_right_skewed(self, catalog):
        """Most functions score near zero; a few are hot (EPSS shape)."""
        epss = EpssModel()
        scores = sorted(
            epss.score(fn) for subsystem in Subsystem
            for fn in catalog.select_breadth(subsystem, 1.0)
        )
        median = scores[len(scores) // 2]
        top = scores[-1]
        assert top > 20 * median

    def test_network_parsing_riskier_than_scheduling(self, catalog):
        epss = EpssModel()
        tcp = [epss.score(f) for f in catalog.select_breadth(Subsystem.TCP_IP, 1.0)]
        sched = [epss.score(f) for f in catalog.select_breadth(Subsystem.SCHED, 1.0)]
        assert sum(tcp) / len(tcp) > sum(sched) / len(sched)

    def test_total_score_additive(self, catalog):
        epss = EpssModel()
        functions = catalog.select_breadth(Subsystem.FUTEX, 1.0)
        assert epss.total_score(functions) == pytest.approx(
            sum(epss.score(f) for f in functions)
        )


class TestProfiles:
    def test_every_profile_references_known_subsystems(self):
        for name, table in HAP_BREADTH.items():
            for subsystem, breadth in table.items():
                assert isinstance(subsystem, Subsystem), name
                assert 0.0 < breadth <= 1.0, (name, subsystem)

    def test_every_subsystem_peaks_in_some_workload(self):
        """Union over workloads must equal the max breadth table."""
        covered = set()
        for affinity in WORKLOAD_AFFINITY.values():
            covered.update(s for s, factor in affinity.items() if factor == 1.0)
        used = {s for table in HAP_BREADTH.values() for s in table}
        assert used <= covered

    def test_trace_is_deterministic(self, catalog):
        first = trace_platform(get_platform("docker"), catalog)
        second = trace_platform(get_platform("docker"), catalog)
        assert first.unique_functions == second.unique_functions
        assert first.total_invocations == second.total_invocations

    def test_unknown_workload_rejected(self, catalog):
        with pytest.raises(ConfigurationError):
            trace_platform(get_platform("docker"), catalog, workloads=("nope",))

    def test_union_across_workloads_exceeds_single_workload(self, catalog):
        full = trace_platform(get_platform("qemu"), catalog)
        single = trace_platform(get_platform("qemu"), catalog, workloads=("iperf3",))
        assert full.unique_functions > single.unique_functions

    def test_all_five_workloads_defined(self):
        assert set(HAP_WORKLOADS) == set(WORKLOAD_AFFINITY)


class TestHapRanking:
    def test_firecracker_widest_interface(self, hap_scores):
        """Finding 24."""
        fc = hap_scores["firecracker"].unique_functions
        assert fc == max(s.unique_functions for s in hap_scores.values())

    def test_osv_narrowest_interface(self, hap_scores):
        """Finding 27 / Conclusion 8."""
        osv = hap_scores["osv"].unique_functions
        assert osv == min(s.unique_functions for s in hap_scores.values())

    def test_cloud_hypervisor_very_few(self, hap_scores):
        """Finding 25."""
        clh = hap_scores["cloud-hypervisor"].unique_functions
        for other in ("qemu", "firecracker", "docker", "lxc", "kata", "gvisor"):
            assert clh < hap_scores[other].unique_functions

    def test_secure_containers_above_regular_containers(self, hap_scores):
        """Finding 26."""
        secure_min = min(
            hap_scores["gvisor"].unique_functions, hap_scores["kata"].unique_functions
        )
        container_max = max(
            hap_scores["docker"].unique_functions, hap_scores["lxc"].unique_functions
        )
        assert secure_min > container_max

    def test_weighted_score_tracks_unique_counts(self, hap_scores):
        """EPSS weighting preserves the overall ordering signal."""
        ordered_by_count = sorted(hap_scores, key=lambda n: hap_scores[n].unique_functions)
        ordered_by_weight = sorted(hap_scores, key=lambda n: hap_scores[n].weighted_score)
        assert ordered_by_count[0] == ordered_by_weight[0] == "osv"
        assert ordered_by_count[-1] == ordered_by_weight[-1] == "firecracker"

    def test_kvm_dominates_hypervisor_profiles(self, hap_scores):
        by_subsystem = hap_scores["firecracker"].by_subsystem
        assert max(by_subsystem, key=by_subsystem.get) is Subsystem.KVM

    def test_riskiest_subsystems_helper(self, hap_scores):
        top = hap_scores["qemu"].riskiest_subsystems(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]

    def test_vsock_only_in_kata(self, hap_scores):
        assert Subsystem.VSOCK in hap_scores["kata"].by_subsystem
        assert Subsystem.VSOCK not in hap_scores["docker"].by_subsystem


class TestDefenseInDepth:
    def test_kata_deeper_than_docker_despite_wider_hap(self, hap_scores):
        """Finding 28."""
        kata = audit_platform(get_platform("kata"), hap_scores["kata"])
        docker = audit_platform(get_platform("docker"), hap_scores["docker"])
        assert kata.depth_score > docker.depth_score
        assert kata.hap_unique_functions > docker.hap_unique_functions

    def test_gvisor_depth_beats_plain_containers(self):
        gvisor = audit_platform(get_platform("gvisor"))
        lxc = audit_platform(get_platform("lxc"))
        assert gvisor.depth_score > lxc.depth_score

    def test_native_has_minimal_depth(self):
        audits = [
            audit_platform(get_platform(name))
            for name in ("native", "docker", "qemu", "kata", "gvisor")
        ]
        assert min(audits, key=lambda a: a.depth_score).platform == "native"

    def test_layers_counts_mechanisms(self):
        audit = audit_platform(get_platform("docker"))
        assert audit.layers == len(get_platform("docker").isolation_mechanisms())
