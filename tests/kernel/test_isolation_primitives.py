"""Tests for namespaces, cgroups, the scheduler, and KVM exit costs."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel import kvm
from repro.kernel.cgroups import CgroupSetup, CgroupVersion
from repro.kernel.namespaces import NamespaceKind, NamespaceSet
from repro.kernel.sched import CfsScheduler, CustomScheduler


class TestNamespaces:
    def test_standard_container_has_five_kinds(self):
        assert len(NamespaceSet.standard_container().kinds) == 5

    def test_unprivileged_has_all_seven(self):
        assert len(NamespaceSet.unprivileged_container().kinds) == len(NamespaceKind)

    def test_net_namespace_dominates_cost(self):
        with_net = NamespaceSet(frozenset({NamespaceKind.NET}))
        without = NamespaceSet(frozenset({NamespaceKind.UTS, NamespaceKind.IPC}))
        assert with_net.creation_cost() > 5 * without.creation_cost()

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigurationError):
            NamespaceSet(frozenset())


class TestCgroups:
    def test_v1_costs_more_than_v2(self):
        v1 = CgroupSetup(version=CgroupVersion.V1)
        v2 = CgroupSetup(version=CgroupVersion.V2)
        assert v1.setup_cost() > v2.setup_cost()

    def test_unprivileged_requires_v2(self):
        with pytest.raises(ConfigurationError):
            CgroupSetup(version=CgroupVersion.V1, unprivileged=True)

    def test_unprivileged_delegation_costs_extra(self):
        plain = CgroupSetup(version=CgroupVersion.V2)
        unpriv = CgroupSetup(version=CgroupVersion.V2, unprivileged=True)
        assert unpriv.setup_cost() > plain.setup_cost()

    def test_empty_controllers_rejected(self):
        with pytest.raises(ConfigurationError):
            CgroupSetup(controllers=())


class TestSchedulers:
    def test_cfs_near_ideal_below_saturation(self):
        cfs = CfsScheduler()
        assert cfs.efficiency(8, 16) > 0.98

    def test_cfs_degrades_gracefully_oversubscribed(self):
        cfs = CfsScheduler()
        assert 0.5 < cfs.efficiency(64, 16) < 1.0

    def test_custom_scheduler_worse_everywhere(self):
        osv = CustomScheduler(
            "osv", work_conserving_efficiency=0.80, oversubscription_penalty=0.9
        )
        cfs = CfsScheduler()
        for threads in (4, 16, 50, 160):
            assert osv.efficiency(threads, 16) < cfs.efficiency(threads, 16)

    def test_parallel_speedup_capped_by_cores(self):
        cfs = CfsScheduler()
        assert cfs.parallel_speedup(64, 16) <= 16.0

    def test_speedup_monotone_in_threads_below_cores(self):
        cfs = CfsScheduler()
        assert cfs.parallel_speedup(8, 16) < cfs.parallel_speedup(16, 16)

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            CfsScheduler().efficiency(0, 16)

    def test_efficiency_floor(self):
        brutal = CustomScheduler(
            "brutal", work_conserving_efficiency=0.5, oversubscription_penalty=10.0
        )
        assert brutal.efficiency(10_000, 1) >= 0.05


class TestKvm:
    def test_userspace_bounce_costs_more(self):
        in_kernel = kvm.exit_cost(kvm.ExitReason.VIRTQUEUE_KICK, to_userspace=False)
        bounced = kvm.exit_cost(kvm.ExitReason.VIRTQUEUE_KICK, to_userspace=True)
        assert bounced > in_kernel
