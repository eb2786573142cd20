"""OSv — a unikernel run under QEMU or Firecracker (Section 2.4.1).

The application and the library OS share ring 0; the ELF linker turns
syscalls into function calls. OSv's measured personality is bimodal:

* **network**: its lean, syscall-free path beats a Linux guest under the
  same hypervisor — by 25.7 % under QEMU, but only 6.53 % under
  Firecracker, showing the hypervisor datapath dominates (Section 3.4);
* **memory**: OSv-on-QEMU is near-native, OSv-on-Firecracker inherits
  Firecracker's vm-memory penalty (Finding 5);
* **CPU**: the custom thread scheduler collapses under ffmpeg's 16-thread
  SIMD encode (Figure 5 outlier, Finding 1) and flattens MySQL
  (Finding 21);
* **boot**: tiny image, ~11 ms kernel init — faster than any Linux guest,
  and the hypervisor boot-order *reverses* (Figure 15);
* **exclusions**: no libaio (fio), no fork/exec (multi-process apps);
* **security**: the fewest host-kernel functions of all platforms
  (Finding 27, Conclusion 8).
"""

from __future__ import annotations

from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.guests.osv_kernel import OsvImage, osv_image
from repro.kernel.netdev import TapVirtioPath
from repro.kernel.netstack import OsvStack
from repro.platforms.base import (
    BootPhase,
    CpuProfile,
    IoProfile,
    MemoryProfile,
    NetProfile,
    Platform,
    PlatformFamily,
)
from repro.platforms.docker import GUEST_VCPUS
from repro.platforms.firecracker import VM_MEMORY_LOAD_BANDWIDTH
from repro.platforms.qemu import KERNEL_LOAD_BANDWIDTH, QemuMachineModel, _FIRMWARE_TIME
from repro.units import ms

__all__ = ["OsvPlatform"]


class OsvPlatform(Platform):
    """OSv unikernel under a configurable hypervisor."""

    name = "osv"
    label = "OSv"
    family = PlatformFamily.UNIKERNEL

    def __init__(
        self,
        machine=None,
        *,
        hypervisor: str = "qemu",
        qemu_machine_model: QemuMachineModel = QemuMachineModel.Q35,
        image: OsvImage | None = None,
    ) -> None:
        super().__init__(machine)
        if hypervisor not in ("qemu", "firecracker"):
            raise ConfigurationError(f"OSv does not run under {hypervisor!r}")
        self.hypervisor = hypervisor
        self.qemu_machine_model = qemu_machine_model
        if hypervisor == "firecracker":
            self.name = "osv-fc"
            self.label = "OSv-FC"
        elif qemu_machine_model is not QemuMachineModel.Q35:
            self.name = f"osv-qemu-{qemu_machine_model.value}"
            self.label = f"OSv (QEMU {qemu_machine_model.value})"
        self.image = image if image is not None else osv_image()

    def cpu_profile(self) -> CpuProfile:
        return CpuProfile(
            scheduler=self.image.scheduler,
            vcpus=GUEST_VCPUS,
            simd_overhead_factor=self.image.simd_overhead_factor,
            run_to_run_std=0.03,
        )

    def memory_profile(self) -> MemoryProfile:
        # Finding 5: memory behaviour is inherited from the hypervisor.
        if self.hypervisor == "firecracker":
            return MemoryProfile(
                nested_paging=True,
                dram_latency_factor=1.38,
                bandwidth_factor=0.82,
                stream_bandwidth_factor=0.84,
                latency_std=0.10,
            )
        return MemoryProfile(
            nested_paging=True,
            direct_mapped=True,  # single address space maps guest RAM flat
            dram_latency_factor=1.0,
            bandwidth_factor=0.97,
            latency_std=0.04,
        )

    def io_profile(self) -> IoProfile:
        raise UnsupportedOperationError(
            "OSv has no working libaio engine; excluded from the fio "
            "experiments (Section 3.3)"
        )

    def net_profile(self) -> NetProfile:
        # The poll-mode, syscall-free virtio driver cuts the datapath CPU
        # cost sharply under QEMU (vhost); Firecracker's device model
        # limits the gain (Section 3.4: +25.7 % vs +6.53 %).
        if self.hypervisor == "firecracker":
            return NetProfile(
                path=TapVirtioPath(maturity_overhead=1.18),
                stack=OsvStack(),
                path_cost_factor=0.85,
            )
        return NetProfile(
            path=TapVirtioPath(maturity_overhead=1.0),
            stack=OsvStack(),
            path_cost_factor=0.25,
            path_latency_factor=0.75,
        )

    def boot_phases(self) -> list[BootPhase]:
        phases: list[BootPhase] = []
        if self.hypervisor == "firecracker":
            phases.extend(
                [
                    BootPhase("firecracker-process-start", ms(14.0), rel_std=0.08),
                    BootPhase("api-configuration", ms(30.0), rel_std=0.10),
                    BootPhase("kvm-vm-setup", ms(3.0), rel_std=0.10),
                    BootPhase(
                        "image-load-vm-memory",
                        self.image.load_time_s(VM_MEMORY_LOAD_BANDWIDTH),
                        rel_std=0.07,
                    ),
                ]
            )
        else:
            model = self.qemu_machine_model
            phases.append(BootPhase("qemu-process-start", ms(78.0), rel_std=0.07))
            phases.append(BootPhase("kvm-vm-setup", ms(4.5), rel_std=0.10))
            firmware = _FIRMWARE_TIME[model]
            if firmware > 0:
                phases.append(BootPhase("firmware", firmware, rel_std=0.06))
            phases.append(
                BootPhase(
                    "image-load",
                    self.image.load_time_s(KERNEL_LOAD_BANDWIDTH),
                    rel_std=0.08,
                )
            )
            # NOTE: no ACPI-less shutdown fallback under microvm — OSv uses
            # its own exit path, which is why the microvm model ranks
            # *second fastest* for OSv (Figure 15) while ranking last for
            # Linux guests (Figure 14).
        phases.append(BootPhase("osv-kernel-init", self.image.boot_time_s, rel_std=0.08))
        phases.append(BootPhase("immediate-shutdown", ms(2.0), rel_std=0.15))
        teardown = ms(4.0) if self.hypervisor == "firecracker" else ms(9.0)
        phases.append(BootPhase("teardown", teardown, rel_std=0.12))
        return phases

    def syscall_overhead_factor(self) -> float:
        # Syscalls resolve to plain function calls via the ELF linker.
        return 0.9

    def oltp_capacity_factor(self) -> float:
        # Finding 21: the custom thread scheduler and memory allocator cap
        # database throughput far below the CPU capacity.
        return 0.2

    def isolation_mechanisms(self) -> list[str]:
        return [
            "hardware-virtualization",
            "single-address-space-kernel",
            "minimal-host-interface",
        ]

    def hap_profile_name(self) -> str:
        return "osv"
