"""Memcached under YCSB — Figure 16.

Memcached holds small values entirely in memory; under YCSB workload-a the
benchmark stresses the network and memory subsystems (Section 3.6). The
model is a closed-loop client/server simulation:

* ``clients`` YCSB threads each loop: think -> request over the platform's
  network round trip -> service at the memcached worker pool -> response;
* worker service time scales with the platform's memory-latency factor and
  syscall-interception factor;
* the platform's small-packet rate ceiling (virtqueue/agent crossings)
  throttles the guest/host boundary — the mechanism behind Kata's
  surprisingly low score (Finding 18).

Each client draws from its own ``client-<i>`` stream in a fixed order
(think, request, update coin, service, response), and the clients share
only the FIFO pool of server threads. So :meth:`MemcachedYcsbWorkload.run`
is a small dedicated kernel rather than generators on the
:mod:`repro.simcore` engine: a heap of ``(time, seq, client, phase)``
entries, an idle-thread count and a deque of waiters. It keeps the
engine's agenda discipline — ``seq`` in push order, a released thread
handed to the oldest waiter at the same instant, every time computed as
``now + delay`` — so its results are the engine model's, bit for bit;
``tests/workloads/test_memcached_kernel.py`` keeps that model as the
oracle. The client streams are seeded in one
:func:`~repro.rng.materialize_streams` pass, and each client draws
through numpy methods bound once per cell
(:meth:`~repro.rng.RngStream.lognormal_sampler` and the generator's
``random``), which return the doubles ``lognormal_factor`` and
``uniform()`` would.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError, SimulationError
from repro.platforms.base import Platform
from repro.rng import RngStream, materialize_streams
from repro.units import us
from repro.workloads.base import Workload
from repro.workloads.ycsb import WORKLOAD_A, YcsbWorkloadSpec

__all__ = ["MemcachedYcsbWorkload", "MemcachedResult"]

#: Memcached per-operation service time on one native core (hash lookup,
#: slab access, response serialization).
_BASE_SERVICE_S = us(10.0)

#: Updates touch the slab allocator and LRU bookkeeping.
_UPDATE_SERVICE_FACTOR = 1.25

#: YCSB client-side record selection/serialization per op.
_CLIENT_THINK_S = us(100.0)

#: What happens when a client's agenda entry pops: its think time is over
#: and the request leaves; the request reaches the server; a server thread
#: takes it; the service is done and the response leaves; the response
#: arrives.
_REQUEST, _ARRIVE, _SERVE, _RELEASE, _RESPOND = range(5)


@dataclass(frozen=True)
class MemcachedResult:
    """One YCSB run against memcached."""

    platform: str
    throughput_ops_per_s: float
    mean_latency_s: float
    operations: int
    workload: str


class MemcachedYcsbWorkload(Workload):
    """YCSB workload-a against memcached (closed loop)."""

    name = "memcached-ycsb"

    def __init__(
        self,
        spec: YcsbWorkloadSpec = WORKLOAD_A,
        clients: int = 48,
        ops_per_client: int = 120,
        server_threads: int = 8,
    ) -> None:
        if clients < 1 or ops_per_client < 1 or server_threads < 1:
            raise ConfigurationError("clients, ops and threads must be >= 1")
        self.spec = spec
        self.clients = clients
        self.ops_per_client = ops_per_client
        self.server_threads = server_threads

    # --- per-platform coefficients --------------------------------------------

    def _round_trip(self, platform: Platform) -> float:
        profile = platform.net_profile()
        return platform.machine.nic.base_rtt_s + 2.0 * profile.added_latency()

    def _service_time(self, platform: Platform, *, update: bool) -> float:
        memory = platform.memory_profile()
        service = _BASE_SERVICE_S
        service *= memory.dram_latency_factor
        service *= platform.syscall_overhead_factor()
        if update:
            service *= _UPDATE_SERVICE_FACTOR
        return service

    # --- simulation -------------------------------------------------------------

    def run(self, platform: Platform, rng: RngStream) -> MemcachedResult:
        round_trip = self._round_trip(platform)
        read_service = self._service_time(platform, update=False)
        update_service = self._service_time(platform, update=True)
        for label, coefficient in (
            ("round trip", round_trip),
            ("read service time", read_service),
            ("update service time", update_service),
        ):
            if not coefficient >= 0.0:  # negative or NaN
                raise SimulationError(f"memcached {label} must be >= 0, got {coefficient!r}")
        half_trip = round_trip / 2.0
        is_update = self.spec.is_update
        streams = rng.children(f"client-{index}" for index in range(self.clients))
        materialize_streams(streams)
        think = [stream.lognormal_sampler(0.2) for stream in streams]
        trip = [stream.lognormal_sampler(0.1) for stream in streams]
        serve = [stream.lognormal_sampler(0.15) for stream in streams]
        coin = [stream.generator.random for stream in streams]
        started = [0.0] * self.clients
        remaining = [self.ops_per_client] * self.clients
        latencies: list[float] = []
        idle = self.server_threads
        waiters: deque[int] = deque()

        # The agenda: (time, seq, client, phase) with seq in push order, so
        # equal times pop first-pushed first. The phase says what happens
        # to the client when its entry pops.
        now = 0.0
        agenda = [
            (now + _CLIENT_THINK_S * think[client](), client, client, _REQUEST)
            for client in range(self.clients)
        ]
        heapq.heapify(agenda)
        seq = self.clients
        while agenda:
            now, _, client, phase = heapq.heappop(agenda)
            if phase == _ARRIVE:
                if not idle:
                    waiters.append(client)
                    continue
                idle -= 1
                phase = _SERVE
            if phase == _SERVE:
                service = update_service if is_update(coin[client]()) else read_service
                delay, phase = service * serve[client](), _RELEASE
            elif phase == _REQUEST:
                started[client] = now
                delay, phase = half_trip * trip[client](), _ARRIVE
            elif phase == _RELEASE:
                if waiters:
                    # Hand the thread to the oldest waiter at this instant.
                    # Its entry is pushed before this client's response, as
                    # on the event engine; the order only shows on exact
                    # time ties, so keep it by construction.
                    heapq.heappush(agenda, (now, seq, waiters.popleft(), _SERVE))
                    seq += 1
                else:
                    idle += 1
                delay, phase = half_trip * trip[client](), _RESPOND
            else:  # _RESPOND
                latencies.append(now - started[client])
                remaining[client] -= 1
                if not remaining[client]:
                    continue
                delay, phase = _CLIENT_THINK_S * think[client](), _REQUEST
            heapq.heappush(agenda, (now + delay, seq, client, phase))
            seq += 1
        if any(remaining):
            raise SimulationError("memcached simulation deadlocked")

        operations = self.clients * self.ops_per_client
        throughput = operations / now

        # Guest/host boundary ceiling: one request + one response packet per op.
        ceiling = platform.packet_rate_capacity()
        if ceiling is not None:
            throughput = min(throughput, ceiling / 2.0)
        throughput *= rng.child("run-noise").gaussian_factor(0.03)

        return MemcachedResult(
            platform=platform.name,
            throughput_ops_per_s=throughput,
            mean_latency_s=sum(latencies) / len(latencies),
            operations=operations,
            workload=self.spec.name,
        )
