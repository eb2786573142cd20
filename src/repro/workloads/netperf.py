"""Netperf request/response — network latency (Figure 12).

TCP_RR-style ping-pong between the host and the guest; the paper reports
the 90th-percentile response time over 5 runs. Latency composes the base
round trip with two traversals of the platform's datapath and guest-stack
message processing; per-sample jitter is log-normal with a platform-
specific dispersion (immature datapaths are noisier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.platforms.base import Platform
from repro.rng import RngStream
from repro.units import seconds_to_us
from repro.workloads.base import Workload

__all__ = ["NetperfWorkload", "NetperfResult"]


@dataclass(frozen=True)
class NetperfResult:
    """Latency distribution summary of one netperf run."""

    platform: str
    mean_latency_s: float
    p50_latency_s: float
    p90_latency_s: float
    p99_latency_s: float
    transactions: int

    @property
    def p90_latency_us(self) -> float:
        """Figure 12's y-axis."""
        return seconds_to_us(self.p90_latency_s)


class NetperfWorkload(Workload):
    """TCP_RR with 1-byte payloads."""

    name = "netperf"

    def __init__(self, transactions: int = 5_000) -> None:
        if transactions < 10:
            raise ConfigurationError("need at least 10 transactions")
        self.transactions = transactions

    def run(self, platform: Platform, rng: RngStream) -> NetperfResult:
        profile = platform.net_profile()
        nic = platform.machine.nic
        base = nic.base_rtt_s + 2.0 * profile.added_latency()
        # Vectorized log-normal jitter around the architectural base RTT.
        sigma = max(1e-6, profile.latency_std * 2.2)
        mu = -0.5 * sigma * sigma
        samples = base * rng.generator.lognormal(mu, sigma, size=self.transactions)
        # One call partitions once at every index the three percentiles
        # need; each value equals the one from its own call.
        p50, p90, p99 = np.percentile(samples, (50, 90, 99)).tolist()
        return NetperfResult(
            platform=platform.name,
            mean_latency_s=float(np.mean(samples)),
            p50_latency_s=p50,
            p90_latency_s=p90,
            p99_latency_s=p99,
            transactions=self.transactions,
        )
