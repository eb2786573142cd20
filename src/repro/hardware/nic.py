"""Network interface model.

iperf3 against the native host reaches 37.28 Gbit/s in the paper (host as
server, client on a directly attached device — effectively a 40 GbE-class
path). The model captures the two quantities the network benchmarks need:

* achievable TCP goodput given per-packet CPU costs along the datapath
  (throughput is CPU-limited once virtualization layers add per-packet
  work — this is what separates bridges from TAP+virtio from Netstack);
* base one-way latency for request/response (netperf) workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import gbit_per_s, us

__all__ = ["NicModel"]


@dataclass(frozen=True)
class NicModel:
    """A 40 GbE-class NIC with a fixed MTU datapath."""

    name: str = "40gbe0"
    line_rate: float = gbit_per_s(37.4)
    mtu_bytes: int = 1500
    base_packet_cost_s: float = 0.28e-6  # host-stack per-packet CPU cost
    base_rtt_s: float = us(28.0)

    def __post_init__(self) -> None:
        if self.line_rate <= 0:
            raise ConfigurationError("line rate must be positive")
        if self.mtu_bytes < 576:
            raise ConfigurationError("MTU unrealistically small")

    def achievable_throughput(self, per_packet_cost_s: float) -> float:
        """Goodput in bytes/second given the full datapath per-packet cost.

        The stream is limited by whichever is slower: the wire, or the CPU
        processing ``mtu`` bytes every ``per_packet_cost_s`` seconds.
        """
        if per_packet_cost_s < 0:
            raise ConfigurationError("per-packet cost must be non-negative")
        total_cost = self.base_packet_cost_s + per_packet_cost_s
        cpu_limit = self.mtu_bytes / total_cost if total_cost > 0 else float("inf")
        return min(self.line_rate, cpu_limit)
