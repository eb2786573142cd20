"""The memcached FIFO kernel against the generator model it replaced.

``MemcachedYcsbWorkload.run`` (Figure 16) is the FIFO multi-server
recursion: a heap of every client's next ``(arrival, client)`` and a
heap of the instants at which the server threads are next free.
``engine_run`` below is the model it replaced, kept as the oracle: one
generator per YCSB client on the discrete-event engine, sharing a
:class:`~repro.simcore.resources.Resource` of server threads.

The contract: whenever no two clients share an instant, the kernel gives
exactly the oracle's result, not an approximation of it. When two
clients share a bitwise-equal instant, the engine orders them by push
sequence and the kernel by client index, for arrivals and responses
alike; ``test_tied_arrivals_are_served_in_client_order`` pins that rule.
Continuous draws make such a tie practically impossible: none occurred
in fig16's paper-scale cells.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.platforms import get_platform, platform_names
from repro.rng import RngStream, _mean_one_mu
from repro.simcore.engine import Simulator, Timeout
from repro.simcore.resources import Resource
from repro.workloads import memcached
from repro.workloads.memcached import (
    _CLIENT_THINK_S,
    MemcachedResult,
    MemcachedYcsbWorkload,
)
from repro.workloads.ycsb import WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, YcsbWorkloadSpec


def engine_run(self: MemcachedYcsbWorkload, platform, rng: RngStream) -> MemcachedResult:
    """``MemcachedYcsbWorkload.run`` as generators on the event engine.

    Reads every client's ``.result``, so a client that raised fails the
    run instead of dropping out.
    """
    simulator = Simulator()
    workers = Resource(simulator, self.server_threads, "memcached-workers")
    round_trip = self._round_trip(platform)
    latencies: list[float] = []

    def client(index: int):
        client_rng = rng.child(f"client-{index}")
        for op in range(self.ops_per_client):
            yield Timeout(_CLIENT_THINK_S * client_rng.lognormal_factor(0.2))
            started = simulator.now
            # Request travels to the guest...
            yield Timeout(round_trip / 2.0 * client_rng.lognormal_factor(0.1))
            yield from workers.acquire()
            try:
                update = self.spec.is_update(client_rng.uniform())
                service = self._service_time(platform, update=update)
                yield Timeout(service * client_rng.lognormal_factor(0.15))
            finally:
                workers.release()
            # ...and the response travels back.
            yield Timeout(round_trip / 2.0 * client_rng.lognormal_factor(0.1))
            latencies.append(simulator.now - started)
        return None

    processes = [
        simulator.spawn(client(index), name=f"ycsb-{index}")
        for index in range(self.clients)
    ]
    simulator.run()
    for process in processes:
        process.result  # re-raises the client's error; raises if it never finished

    operations = self.clients * self.ops_per_client
    throughput = operations / simulator.now

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


def kernel_run(workload, platform, rng):
    return workload.run(platform, rng)


def _custom_spec(update: float) -> YcsbWorkloadSpec:
    return YcsbWorkloadSpec("custom", read_proportion=1.0 - update, update_proportion=update)


SPECS = st.one_of(
    st.sampled_from([WORKLOAD_A, WORKLOAD_B, WORKLOAD_C]),
    st.builds(_custom_spec, st.floats(min_value=0.0, max_value=1.0)),
)


@given(
    clients=st.integers(min_value=1, max_value=24),
    ops=st.integers(min_value=1, max_value=25),
    threads=st.integers(min_value=1, max_value=10),
    spec=SPECS,
    platform_name=st.sampled_from(platform_names()),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=300, deadline=None)
# fig16's production cell, where the packet-rate ceiling (kata) and the
# syscall factor (gvisor) bind.
@example(clients=48, ops=120, threads=8, spec=WORKLOAD_A, platform_name="kata", seed=16)
@example(clients=48, ops=120, threads=8, spec=WORKLOAD_A, platform_name="gvisor", seed=2**63)
# Read-only at the production shape: every coin picks the read service.
@example(clients=48, ops=120, threads=8, spec=WORKLOAD_C, platform_name="native", seed=24)
# A first operation that is also the last: the opening block of two, the
# coin, then a block of two with no next think or trip.
@example(clients=3, ops=1, threads=2, spec=WORKLOAD_A, platform_name="native", seed=1)
def test_kernel_equals_engine(clients, ops, threads, spec, platform_name, seed):
    workload = MemcachedYcsbWorkload(
        spec, clients=clients, ops_per_client=ops, server_threads=threads
    )
    platform = get_platform(platform_name)
    kernel = workload.run(platform, RngStream(seed, "memcached"))
    engine = engine_run(workload, platform, RngStream(seed, "memcached"))
    assert kernel == engine


def test_tied_arrivals_are_served_in_client_order(monkeypatch):
    """Three requests reach one server thread at the same instant.

    Every think and trip normal is ``sigma / 2``, which makes its factor
    ``exp(0.0)``, exactly 1.0, so all three clients send at the think
    time and arrive together; client ``i``'s service normal is ``i``, so
    the order they are served in shows in the mean latency. The kernel
    serves a tie in client order.
    """

    def fixed_draws(stream):
        client = int(stream.path.rsplit("client-", 1)[1])
        # One operation each: the opening (think, trip) block, the coin,
        # then the (service, trip) block.
        blocks = iter([(0.2 / 2, 0.1 / 2), (float(client), 0.1 / 2)])

        def standard_normal(*, out):
            out[:] = next(blocks)
            return out

        return standard_normal, lambda: 0.5

    monkeypatch.setattr(memcached, "_client_draws", fixed_draws)
    workload = MemcachedYcsbWorkload(WORKLOAD_C, clients=3, ops_per_client=1, server_threads=1)
    platform = get_platform("native")
    half_trip = workload._round_trip(platform) / 2.0
    service = workload._service_time(platform, update=False)
    serve = [math.exp(_mean_one_mu(0.15) + 0.15 * client) for client in range(3)]

    arrival = _CLIENT_THINK_S + half_trip * 1.0
    release_0 = arrival + service * serve[0]
    release_1 = release_0 + service * serve[1]
    release_2 = release_1 + service * serve[2]
    responses = [release + half_trip * 1.0 for release in (release_0, release_1, release_2)]
    noise = RngStream(7, "memcached").child("run-noise").gaussian_factor(0.03)

    result = workload.run(platform, RngStream(7, "memcached"))
    assert result.mean_latency_s == sum(r - _CLIENT_THINK_S for r in responses) / 3
    assert result.throughput_ops_per_s == 3 / responses[-1] * noise


class _FailingSpec:
    """A YCSB spec whose update coin raises on its fifth call."""

    name = "failing"

    def __init__(self) -> None:
        self.calls = 0

    def is_update(self, draw: float) -> bool:
        self.calls += 1
        if self.calls == 5:
            raise RuntimeError("update coin failed")
        return WORKLOAD_A.is_update(draw)


@pytest.mark.parametrize("run", [kernel_run, engine_run], ids=["kernel", "engine"])
@pytest.mark.parametrize(
    "make_spec, coefficient, value, error",
    [
        (_FailingSpec, None, None, RuntimeError),
        (lambda: WORKLOAD_A, "_round_trip", -1e-6, SimulationError),
        (lambda: WORKLOAD_A, "_round_trip", math.nan, SimulationError),
        (lambda: WORKLOAD_A, "_service_time", -1e-6, SimulationError),
        (lambda: WORKLOAD_A, "_service_time", math.nan, SimulationError),
    ],
    ids=["client-raises", "negative-rtt", "nan-rtt", "negative-service", "nan-service"],
)
def test_failures_are_loud(run, make_spec, coefficient, value, error, monkeypatch, rng):
    """A failing client or a bad coefficient fails the run; no op is dropped."""
    if coefficient is not None:
        monkeypatch.setattr(MemcachedYcsbWorkload, coefficient, lambda *args, **kwargs: value)
    workload = MemcachedYcsbWorkload(make_spec(), clients=8, ops_per_client=20)
    with pytest.raises(error):
        run(workload, get_platform("native"), rng)


def test_deadlock_is_a_simulation_error(rng):
    """With no server thread, no request is ever served: a deadlock, not a hang."""
    workload = MemcachedYcsbWorkload(clients=4, ops_per_client=3)
    workload.server_threads = 0
    with pytest.raises(SimulationError, match="deadlock"):
        workload.run(get_platform("native"), rng)
