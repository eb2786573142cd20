"""QEMU/KVM — the feature-complete reference hypervisor (Section 2.1.1).

A per-VM QEMU process runs the guest through KVM; the event-driven
``main_loop_wait()`` handles device emulation when the guest traps out.
QEMU's device model is by far the largest of the studied VMMs (40+
devices), and its two decades of optimization show: mature virtio-blk and
vhost-net datapaths put its I/O close to native (Figure 9) while its
memory path trades a little throughput for good latency (Finding 4).

Three machine-model variants appear in the boot experiments (Figure 14):

* ``q35``   — the default: SeaBIOS firmware, full PC hardware;
* ``qboot`` — q35 with the minimal qboot BIOS replacing SeaBIOS;
* ``microvm`` (µVM) — the Firecracker-inspired minimal machine: no
  firmware, virtio-mmio devices, *no ACPI* — which is exactly why it
  boots slowest end-to-end: without ACPI the Linux guest's power-down
  falls back to a timeout-driven reset chain (Finding 14's surprise).
"""

from __future__ import annotations

import enum

from repro.guests.linux import GuestKernelImage, standard_linux_guest
from repro.kernel.netdev import TapVirtioPath
from repro.kernel.netstack import GuestLinuxStack
from repro.kernel.sched import CfsScheduler
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
from repro.units import GB, ms, us
from repro.virtio.blk import VirtioBlk

__all__ = ["QemuMachineModel", "QemuPlatform"]

#: Bandwidth at which a VMM reads + places a kernel image into guest RAM.
KERNEL_LOAD_BANDWIDTH = 1.0 * GB


class QemuMachineModel(enum.Enum):
    """QEMU -machine variants used in the paper's boot study."""

    Q35 = "q35"
    QBOOT = "qboot"
    MICROVM = "microvm"


#: Emulated devices the guest kernel probes at boot, per machine model.
_DEVICE_COUNT = {
    QemuMachineModel.Q35: 40,
    QemuMachineModel.QBOOT: 40,
    QemuMachineModel.MICROVM: 8,
}

_FIRMWARE_TIME = {
    QemuMachineModel.Q35: ms(66.0),     # SeaBIOS POST + option ROM scan
    QemuMachineModel.QBOOT: ms(11.0),   # qboot: jump to the kernel asap
    QemuMachineModel.MICROVM: 0.0,      # no firmware at all
}

#: ACPI-less Linux power-down fallback (microvm only): the guest walks the
#: keyboard-controller / triple-fault reset chain with built-in timeouts.
_MICROVM_SHUTDOWN_FALLBACK = ms(265.0)


class QemuPlatform(Platform):
    """QEMU with KVM acceleration."""

    name = "qemu"
    label = "QEMU"
    family = PlatformFamily.HYPERVISOR

    def __init__(
        self,
        machine=None,
        *,
        machine_model: QemuMachineModel = QemuMachineModel.Q35,
        guest_kernel: GuestKernelImage | None = None,
    ) -> None:
        super().__init__(machine)
        self.machine_model = machine_model
        if machine_model is not QemuMachineModel.Q35:
            self.name = f"qemu-{machine_model.value}"
            self.label = {
                QemuMachineModel.QBOOT: "QEMU (qboot)",
                QemuMachineModel.MICROVM: "QEMU (uVM)",
            }[machine_model]
        self.guest_kernel = guest_kernel if guest_kernel else standard_linux_guest()
        self.virtio_blk = VirtioBlk(vmm_request_handling_s=us(3.0))

    # --- profiles -------------------------------------------------------------

    def cpu_profile(self) -> CpuProfile:
        # Guest code runs natively; the guest kernel schedules with CFS.
        return CpuProfile(scheduler=CfsScheduler(), vcpus=GUEST_VCPUS)

    def memory_profile(self) -> MemoryProfile:
        # Finding 4: QEMU leans to the throughput side of the hypervisor
        # latency/throughput trade-off — decent latency, reduced copy rate
        # (extra softmmu indirection on the streaming path). Its mature MMU
        # handling (EPT + transparent hugepage backing) keeps TLB-miss costs
        # near native, so no nested-paging penalty applies.
        return MemoryProfile(
            nested_paging=False,
            dram_latency_factor=1.04,
            bandwidth_factor=0.86,
            stream_bandwidth_factor=0.88,
            latency_std=0.035,
        )

    def io_profile(self) -> IoProfile:
        # Extra NVMe attached as a second virtio-blk drive, ext4 in-guest.
        guest_block_layer = us(12.0)
        return IoProfile(
            per_request_latency_s=self.virtio_blk.request_latency_overhead()
            + guest_block_layer,
            read_efficiency=0.97,
            write_efficiency=0.90,
            write_std=0.06,
            guest_page_cache=True,
        )

    def net_profile(self) -> NetProfile:
        return NetProfile(path=TapVirtioPath(maturity_overhead=1.0), stack=GuestLinuxStack())

    # --- boot ------------------------------------------------------------------

    def boot_phases(self) -> list[BootPhase]:
        devices = _DEVICE_COUNT[self.machine_model]
        # The microvm machine model does not start the QEMU process any
        # faster in this QEMU version — part of why it disappoints.
        vmm_start = ms(78.0)
        phases = [
            BootPhase("qemu-process-start", vmm_start, rel_std=0.07),
            BootPhase("kvm-vm-setup", ms(4.5), rel_std=0.10),
        ]
        firmware = _FIRMWARE_TIME[self.machine_model]
        if firmware > 0:
            phases.append(BootPhase("firmware", firmware, rel_std=0.06))
        phases.append(
            BootPhase(
                "kernel-load",
                self.guest_kernel.load_time_s(KERNEL_LOAD_BANDWIDTH),
                rel_std=0.08,
            )
        )
        phases.append(
            BootPhase(
                "kernel-init",
                self.guest_kernel.kernel_init_time_s(devices),
                rel_std=0.06,
            )
        )
        phases.append(BootPhase("patched-init-exit", ms(1.2), rel_std=0.2))
        if self.machine_model is QemuMachineModel.MICROVM:
            phases.append(
                BootPhase("acpi-less-shutdown-fallback", _MICROVM_SHUTDOWN_FALLBACK, rel_std=0.05)
            )
        phases.append(BootPhase("teardown", ms(11.0), rel_std=0.12))
        return phases

    def packet_rate_capacity(self) -> float:
        # virtio-net with vhost sustains high but finite small-packet rates.
        return 1_200_000.0

    def isolation_mechanisms(self) -> list[str]:
        return ["hardware-virtualization", "separate-guest-kernel", "iommu-dma-isolation"]

    def hap_profile_name(self) -> str:
        return "qemu"
