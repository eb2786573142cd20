"""Virtual network devices and datapaths.

Section 3.4 distinguishes three host/guest network isolation mechanisms:

* **bridge + veth** (Docker, LXC, and the host side of Kata): frames hop
  through a software bridge — cheap, ~9-10 % throughput penalty;
* **TAP + virtio-net** (QEMU, Firecracker, Cloud Hypervisor, and the VM
  side of Kata): every packet crosses the TAP device and a virtqueue,
  waking the VMM — ~25 % penalty, more for immature implementations;
* **user-space Netstack** (gVisor): the stack itself is the device.

A datapath is a list of :class:`NetDevice` hops; its per-packet cost adds
to the NIC/stack costs in :class:`repro.hardware.nic.NicModel` terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import left_sum, us

__all__ = [
    "NetDevice",
    "NetPath",
    "NativePath",
    "BridgePath",
    "TapVirtioPath",
    "KataVhostPath",
    "NetstackPath",
]


@dataclass(frozen=True)
class NetDevice:
    """One hop in a datapath: per-packet cost and per-hop latency."""

    name: str
    per_packet_cost_s: float
    per_hop_latency_s: float

    def __post_init__(self) -> None:
        if self.per_packet_cost_s < 0 or self.per_hop_latency_s < 0:
            raise ConfigurationError(f"{self.name}: negative cost")


@dataclass(frozen=True)
class NetPath:
    """A guest-to-host network datapath."""

    name: str
    devices: tuple[NetDevice, ...]
    #: Multiplier for implementation maturity; >1 inflates all costs.
    maturity_overhead: float = 1.0

    def per_packet_cost(self) -> float:
        """Total extra per-packet CPU cost across all hops."""
        return left_sum(d.per_packet_cost_s for d in self.devices) * self.maturity_overhead

    def added_latency(self) -> float:
        """One-way latency added by the path."""
        return left_sum(d.per_hop_latency_s for d in self.devices) * self.maturity_overhead


_VETH = NetDevice("veth", per_packet_cost_s=us(0.028), per_hop_latency_s=us(1.1))
_BRIDGE = NetDevice("br0", per_packet_cost_s=us(0.022), per_hop_latency_s=us(0.9))
_NAT = NetDevice("iptables-nat", per_packet_cost_s=us(0.010), per_hop_latency_s=us(0.4))
_TAP = NetDevice("tap0", per_packet_cost_s=us(0.052), per_hop_latency_s=us(2.4))
_VIRTIO_NET = NetDevice("virtio-net", per_packet_cost_s=us(0.080), per_hop_latency_s=us(3.6))
_VHOST_VIRTIO = NetDevice("vhost-virtio-net", per_packet_cost_s=us(0.132), per_hop_latency_s=us(1.2))
_SENTRY_HOP = NetDevice("sentry-fdbased", per_packet_cost_s=us(0.5), per_hop_latency_s=us(11.0))


def NativePath() -> NetPath:
    """No virtualization: straight through the host stack."""
    return NetPath("native", devices=())


def BridgePath(*, nat: bool = False) -> NetPath:
    """veth pair into a software bridge (Docker/LXC)."""
    devices = (_VETH, _BRIDGE) + ((_NAT,) if nat else ())
    return NetPath("bridge", devices=devices)


def TapVirtioPath(*, maturity_overhead: float = 1.0) -> NetPath:
    """TAP device + virtio-net virtqueue (hypervisors).

    ``maturity_overhead`` expresses implementation quality: 1.0 for QEMU's
    two-decade-old datapath, higher for the younger Rust VMMs (the paper
    singles out Cloud Hypervisor's "severe inefficiencies").
    """
    return NetPath(
        "tap+virtio-net", devices=(_TAP, _VIRTIO_NET), maturity_overhead=maturity_overhead
    )


def KataVhostPath() -> NetPath:
    """Kata: veth + bridge on the host side, vhost-accelerated virtio into
    the VM. vhost-net keeps added *latency* near bridge level (Finding 10)
    while the per-packet CPU cost stays virtio-like."""
    return NetPath("kata-bridge+vhost", devices=(_VETH, _BRIDGE, _VHOST_VIRTIO))


def NetstackPath() -> NetPath:
    """gVisor: packets cross the Sentry's fdbased endpoint."""
    return NetPath("netstack", devices=(_SENTRY_HOP, _VETH, _BRIDGE))
