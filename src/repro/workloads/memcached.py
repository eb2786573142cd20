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
(think, request, update coin, service, response), and the clients meet
only at a FIFO pool of identical server threads. A FIFO multi-server queue
needs no event agenda: requests start in the order they reach the server,
each at its arrival or at the instant the first thread comes free,
whichever is later. So :meth:`MemcachedYcsbWorkload.run` is that recursion
over two heaps, every client's next ``(arrival, client)`` and the instants
at which the threads are next free, with one heap entry per operation. A
client's next request leaves only after its response, so taking the
earliest pending arrival visits the requests in the order they reach the
server. Every instant is the float expression the engine model computes,
and latencies are summed in response order, so whenever no two clients
share an instant the result is the engine model's, bit for bit;
``tests/workloads/test_memcached_kernel.py`` keeps that model as the
oracle. On a bitwise tie the engine orders the clients by push sequence,
and this kernel by client index, for arrivals and responses alike.

The client streams are seeded in one :func:`~repro.rng.materialize_streams`
pass, and each client draws through its generator's ``standard_normal``
and ``random``, bound once per cell. The lognormal factors come in blocks
of normals: a client's opening think and trip are one block of two, and
after each update coin its service, response trip, next think and next
request trip are one block of four (two on its last operation, which has
no next request). A normal ``z`` becomes ``math.exp(mu + sigma * z)``,
which is how numpy's C ``lognormal`` computes the factor
:meth:`~repro.rng.RngStream.lognormal_factor` returns, so every factor and
every stream position is the per-draw path's, bit for bit;
``tests/test_units_rng_errors.py`` checks that on twin streams. No block
spans the coin: the ziggurat behind ``standard_normal`` takes a variable
number of words per normal.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.platforms.base import Platform
from repro.rng import RngStream, _mean_one_mu, materialize_streams
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

#: Spreads of the mean-1 lognormal factors on a client's think time, on
#: each one-way network trip and on each service.
_THINK_SIGMA = 0.2
_TRIP_SIGMA = 0.1
_SERVE_SIGMA = 0.15


def _client_draws(stream: RngStream) -> tuple[Callable[..., np.ndarray], Callable[[], float]]:
    """A client's bound ``(standard_normal, random)``: every draw it makes."""
    return stream.generator.standard_normal, stream.generator.random


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
        for field, value in (
            ("clients", clients),
            ("ops_per_client", ops_per_client),
            ("server_threads", server_threads),
        ):
            # A float or NaN count never runs down to zero; bool is an int.
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"memcached {field} must be an int >= 1, got {value!r}")
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
        if self.server_threads < 1:
            raise SimulationError("memcached simulation deadlocked: no server thread")
        half_trip = round_trip / 2.0
        is_update = self.spec.is_update
        think_mu = _mean_one_mu(_THINK_SIGMA)
        trip_mu = _mean_one_mu(_TRIP_SIGMA)
        serve_mu = _mean_one_mu(_SERVE_SIGMA)
        # math.exp, not np.exp: numpy's SIMD float64 exp is not the libm exp
        # that its C lognormal calls.
        exp = math.exp
        streams = rng.children(f"client-{index}" for index in range(self.clients))
        materialize_streams(streams)
        normal, coin = zip(*(_client_draws(stream) for stream in streams))
        # Every block of normals is drawn into one of these, in place.
        pair, quad = np.empty(2), np.empty(4)
        remaining = [self.ops_per_client] * self.clients
        free = [0.0] * self.server_threads
        # (response, client, latency) per operation, sorted at the end.
        responses: list[tuple[float, int, float]] = []

        # A request leaves when its client's think time is over.
        started = [0.0] * self.clients
        arrivals = []
        for client in range(self.clients):
            think, trip = normal[client](out=pair).tolist()
            started[client] = request = _CLIENT_THINK_S * exp(think_mu + _THINK_SIGMA * think)
            arrivals.append((request + half_trip * exp(trip_mu + _TRIP_SIGMA * trip), client))
        heapq.heapify(arrivals)
        while arrivals:
            arrival, client = arrivals[0]
            # The first thread to come free takes the oldest request.
            start = free[0] if free[0] > arrival else arrival
            service = update_service if is_update(coin[client]()) else read_service
            remaining[client] -= 1
            if remaining[client]:
                serve, back, think, trip = normal[client](out=quad).tolist()
            else:  # the last operation: no next think and trip to draw
                serve, back = normal[client](out=pair).tolist()
            release = start + service * exp(serve_mu + _SERVE_SIGMA * serve)
            heapq.heapreplace(free, release)
            response = release + half_trip * exp(trip_mu + _TRIP_SIGMA * back)
            responses.append((response, client, response - started[client]))
            if remaining[client]:
                request = response + _CLIENT_THINK_S * exp(think_mu + _THINK_SIGMA * think)
                started[client] = request
                heapq.heapreplace(
                    arrivals, (request + half_trip * exp(trip_mu + _TRIP_SIGMA * trip), client)
                )
            else:
                heapq.heappop(arrivals)
        # The engine model records latencies as responses arrive.
        responses.sort()
        now = responses[-1][0]
        latencies = [latency for _, _, latency in responses]

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
