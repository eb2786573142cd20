"""Tests for the guest image models."""

import pytest

from repro.errors import ConfigurationError
from repro.guests.clearlinux import ClearLinuxRootfs
from repro.guests.init import INIT_SYSTEMS, InitSystem
from repro.guests.linux import BootProtocol, kata_optimized_kernel, standard_linux_guest
from repro.guests.osv_kernel import osv_image
from repro.units import GB, MB


class TestLinuxImages:
    def test_bzimage_is_compressed_bios_boot(self):
        kernel = standard_linux_guest()
        assert kernel.compressed
        assert kernel.protocol is BootProtocol.BIOS_16BIT
        assert kernel.decompress_time_s > 0

    def test_vmlinux_is_uncompressed_direct_boot(self):
        kernel = standard_linux_guest(uncompressed=True)
        assert not kernel.compressed
        assert kernel.protocol is BootProtocol.DIRECT_64BIT
        assert kernel.decompress_time_s == 0.0

    def test_vmlinux_much_larger_than_bzimage(self):
        """The Firecracker end-to-end boot cost driver."""
        assert (
            standard_linux_guest(uncompressed=True).size_bytes
            > 3 * standard_linux_guest().size_bytes
        )

    def test_load_time_scales_with_size_and_bandwidth(self):
        kernel = standard_linux_guest()
        assert kernel.load_time_s(1 * GB) == pytest.approx(2 * kernel.load_time_s(2 * GB))

    def test_kernel_init_scales_with_device_count(self):
        kernel = standard_linux_guest()
        assert kernel.kernel_init_time_s(40) > kernel.kernel_init_time_s(7)

    def test_kata_kernel_boots_faster(self):
        """Kata's kconfig-stripped kernel vs the standard guest kernel."""
        standard = standard_linux_guest()
        kata = kata_optimized_kernel()
        assert kata.kernel_init_time_s(9) < standard.kernel_init_time_s(9)
        assert kata.size_bytes < standard.size_bytes

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            standard_linux_guest().load_time_s(0)

    def test_negative_device_count_rejected(self):
        with pytest.raises(ConfigurationError):
            standard_linux_guest().kernel_init_time_s(-1)


class TestOsvImage:
    def test_image_is_tiny(self):
        image = osv_image()
        assert image.size_bytes < 10 * MB

    def test_boot_faster_than_any_linux_kernel_init(self):
        image = osv_image()
        assert image.boot_time_s < standard_linux_guest().kernel_init_time_s(7)

    def test_capability_flags(self):
        image = osv_image()
        assert not image.supports_fork
        assert not image.supports_exec
        assert not image.supports_libaio
        assert image.syscall_is_function_call

    def test_custom_scheduler_is_weak(self):
        image = osv_image()
        assert image.scheduler.work_conserving_efficiency < 0.9

    def test_simd_overhead_configured(self):
        assert osv_image().simd_overhead_factor > 1.2


class TestInitSystems:
    def test_expected_inits_registered(self):
        for name in ("systemd", "tini", "patched-exit", "systemd-mini"):
            assert name in INIT_SYSTEMS

    def test_systemd_dominates_lxc_boot(self):
        """Finding 13: LXC's systemd explains its ~800 ms startup."""
        assert INIT_SYSTEMS["systemd"].startup_time_s > 100 * INIT_SYSTEMS["tini"].startup_time_s

    def test_patched_exit_is_fastest(self):
        fastest = min(INIT_SYSTEMS.values(), key=lambda i: i.startup_time_s)
        assert fastest.name == "patched-exit"

    def test_invalid_std_rejected(self):
        with pytest.raises(ConfigurationError):
            InitSystem("bad", 1.0, 1.5, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            InitSystem("bad", -1.0, 0.1, 1.0)


class TestClearLinux:
    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ClearLinuxRootfs(size_bytes=0)
