"""Architectural assertions per platform — Section 2 of the paper, as tests."""

import pytest

from repro.errors import UnsupportedOperationError
from repro.platforms import get_platform
from repro.platforms.qemu import QemuMachineModel


def boot_mean(platform):
    """Deterministic end-to-end boot time: the sum of the phase means."""
    return sum(phase.mean_s for phase in platform.boot_phases())


class TestNative:
    def test_no_overheads_anywhere(self):
        native = get_platform("native")
        assert native.memory_profile().dram_latency_factor == 1.0
        assert native.io_profile().per_request_latency_s == 0.0
        assert native.net_profile().per_packet_cost() < 1e-7

    def test_uses_all_hardware_threads(self):
        native = get_platform("native")
        assert native.cpu_profile().vcpus == 128


class TestDocker:
    def test_shares_host_kernel(self):
        docker = get_platform("docker")
        assert not docker.memory_profile().nested_paging

    def test_namespace_and_cgroup_isolation(self):
        mechanisms = get_platform("docker").isolation_mechanisms()
        assert any(m.startswith("namespace:") for m in mechanisms)
        assert any(m.startswith("cgroups") for m in mechanisms)

    def test_oci_variant_skips_daemon_phases(self):
        daemon = get_platform("docker")
        oci = get_platform("docker-oci")
        gap = boot_mean(daemon) - boot_mean(oci)
        # "creation through the Docker daemon causes a slowdown of around
        # 250 milliseconds" (Section 3.5).
        assert 0.2 < gap < 0.32

    def test_near_native_io(self):
        profile = get_platform("docker").io_profile()
        assert profile.read_efficiency > 0.97


class TestLxc:
    def test_systemd_dominates_boot(self):
        phases = {p.name: p.mean_s for p in get_platform("lxc").boot_phases()}
        assert phases["systemd-boot"] > 0.5 * sum(phases.values())

    def test_zfs_backed_io(self):
        profile = get_platform("lxc").io_profile()
        assert 0.9 < profile.read_efficiency < 1.0

    def test_unprivileged_variant_adds_user_namespace(self):
        unpriv = get_platform("lxc-unprivileged")
        assert "namespace:user" in unpriv.isolation_mechanisms()
        assert "uid-mapping" in unpriv.isolation_mechanisms()


class TestQemu:
    def test_machine_model_variants_named(self):
        assert get_platform("qemu-qboot").name == "qemu-qboot"
        assert get_platform("qemu-microvm").name == "qemu-microvm"

    def test_qboot_skips_most_firmware_time(self):
        q35 = get_platform("qemu")
        qboot = get_platform("qemu-qboot")
        assert boot_mean(qboot) < boot_mean(q35)

    def test_microvm_pays_acpi_less_shutdown(self):
        microvm = get_platform("qemu-microvm")
        names = [p.name for p in microvm.boot_phases()]
        assert "acpi-less-shutdown-fallback" in names
        assert "firmware" not in names

    def test_microvm_slowest_despite_fewer_devices(self):
        """Finding 14's surprise, reproduced from phase composition."""
        assert (
            boot_mean(get_platform("qemu-microvm"))
            > boot_mean(get_platform("qemu"))
        )

    def test_memory_tradeoff_is_throughput_side(self):
        profile = get_platform("qemu").memory_profile()
        assert profile.dram_latency_factor < 1.1
        assert profile.bandwidth_factor < 0.9


class TestFirecracker:
    def test_excluded_from_fio(self):
        with pytest.raises(UnsupportedOperationError):
            get_platform("firecracker").io_profile()

    def test_memory_outlier_profile(self):
        profile = get_platform("firecracker").memory_profile()
        assert profile.dram_latency_factor > 1.3
        assert profile.bandwidth_factor < 0.85
        assert profile.latency_std > 0.08  # high run-to-run dispersion

    def test_boots_uncompressed_vmlinux(self):
        fc = get_platform("firecracker")
        assert not fc.guest_kernel.compressed

    def test_vmlinux_load_dominates_boot(self):
        phases = {p.name: p.mean_s for p in get_platform("firecracker").boot_phases()}
        assert phases["vmlinux-load-vm-memory"] == max(phases.values())

    def test_seven_device_model(self):
        from repro.platforms.firecracker import DEVICE_COUNT

        assert DEVICE_COUNT == 7


class TestCloudHypervisor:
    def test_sixteen_device_model(self):
        from repro.platforms.cloud_hypervisor import DEVICE_COUNT

        assert DEVICE_COUNT == 16

    def test_io_low_throughput_good_latency(self):
        clh = get_platform("cloud-hypervisor").io_profile()
        qemu = get_platform("qemu").io_profile()
        assert clh.read_efficiency < 0.7 * qemu.read_efficiency
        assert clh.per_request_latency_s < qemu.per_request_latency_s

    def test_network_immaturity_factor(self):
        clh = get_platform("cloud-hypervisor").net_profile()
        qemu = get_platform("qemu").net_profile()
        assert clh.per_packet_cost() > 1.5 * qemu.per_packet_cost()

    def test_fastest_hypervisor_boot(self):
        clh = get_platform("cloud-hypervisor")
        for other in ("qemu", "qemu-qboot", "qemu-microvm", "firecracker"):
            assert boot_mean(clh) < boot_mean(get_platform(other))


class TestKata:
    def test_direct_mapping_cancels_memory_penalty(self):
        profile = get_platform("kata").memory_profile()
        assert profile.nested_paging
        assert profile.direct_mapped
        assert not profile.effective_nested

    def test_no_hugepages(self):
        assert not get_platform("kata").capabilities().hugepages

    def test_ninep_io_is_terrible(self):
        kata = get_platform("kata").io_profile()
        assert kata.read_efficiency < 0.6
        assert kata.per_request_latency_s > 100e-6

    def test_virtiofs_variant_restores_io(self):
        """Finding 7."""
        ninep = get_platform("kata").io_profile()
        virtiofs = get_platform("kata-virtiofs").io_profile()
        assert virtiofs.read_efficiency > 1.5 * ninep.read_efficiency
        assert virtiofs.per_request_latency_s < 0.5 * ninep.per_request_latency_s

    def test_boot_includes_hypervisor_and_agent_phases(self):
        names = [p.name for p in get_platform("kata").boot_phases()]
        assert "qemu-lite-start" in names
        assert "kata-agent-ready" in names
        assert "vsock-ttrpc-handshake" in names
        assert "namespaces" in names  # both worlds

    def test_defense_in_depth_mechanisms(self):
        mechanisms = get_platform("kata").isolation_mechanisms()
        assert "hardware-virtualization" in mechanisms
        assert any(m.startswith("namespace:") for m in mechanisms)


class TestGvisor:
    def test_o_direct_not_honoured(self):
        assert not get_platform("gvisor").io_profile().honors_o_direct_end_to_end

    def test_ptrace_platform_slower_than_kvm(self):
        kvm = get_platform("gvisor")
        ptrace = get_platform("gvisor-ptrace")
        assert ptrace.io_profile().per_request_latency_s > (
            kvm.io_profile().per_request_latency_s
        )
        assert ptrace.net_profile().per_packet_cost() > kvm.net_profile().per_packet_cost()
        assert ptrace.syscall_overhead_factor() > kvm.syscall_overhead_factor()

    def test_netstack_is_the_network_stack(self):
        assert get_platform("gvisor").net_profile().stack.name == "netstack"

    def test_memory_near_native(self):
        profile = get_platform("gvisor").memory_profile()
        assert profile.dram_latency_factor == 1.0
        assert not profile.effective_nested


class TestOsv:
    def test_excluded_from_fio(self):
        with pytest.raises(UnsupportedOperationError):
            get_platform("osv").io_profile()

    def test_no_multi_process(self):
        assert not get_platform("osv").capabilities().multi_process

    def test_memory_inherits_hypervisor(self):
        """Finding 5."""
        qemu_side = get_platform("osv").memory_profile()
        fc_side = get_platform("osv-fc").memory_profile()
        assert qemu_side.dram_latency_factor == 1.0
        assert fc_side.dram_latency_factor > 1.3

    def test_network_gain_depends_on_hypervisor(self):
        """Section 3.4: +25.7% under QEMU, +6.53% under Firecracker."""
        osv_qemu = get_platform("osv").net_profile()
        osv_fc = get_platform("osv-fc").net_profile()
        assert osv_qemu.path_cost_factor < osv_fc.path_cost_factor

    def test_boot_order_reverses_for_osv_guests(self):
        """Figure 14 vs Figure 15."""
        # Linux guests: Firecracker slower than QEMU.
        assert (
            boot_mean(get_platform("firecracker"))
            > boot_mean(get_platform("qemu"))
        )
        # OSv guests: Firecracker fastest, microvm second, QEMU last.
        fc = boot_mean(get_platform("osv-fc"))
        microvm = boot_mean(get_platform("osv-qemu-microvm"))
        qemu = boot_mean(get_platform("osv"))
        assert fc < microvm < qemu

    def test_unknown_hypervisor_rejected(self):
        from repro.errors import ConfigurationError
        from repro.platforms.osv import OsvPlatform

        with pytest.raises(ConfigurationError):
            OsvPlatform(hypervisor="xen")

    def test_qemu_machine_model_variant(self):
        from repro.platforms.osv import OsvPlatform

        microvm = OsvPlatform(qemu_machine_model=QemuMachineModel.MICROVM)
        assert "microvm" in microvm.name
