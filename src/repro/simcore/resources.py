"""Shared-resource primitives for the simulation.

* :class:`Resource` — a counting semaphore with FIFO queueing; models CPU
  cores, virtqueue depth, the single QEMU main loop, MySQL worker slots…
* :class:`Store` — an unbounded FIFO message channel; models ttRPC/9p
  request queues and the packet handoff between a TAP device and a guest.
* :class:`TokenBucket` — a rate limiter over virtual time; models bandwidth
  caps (NIC line rate, NVMe throughput) without per-byte events.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.errors import SimulationError
from repro.simcore.engine import Simulator, Timeout, Wait
from repro.simcore.event import Event

__all__ = ["Resource", "Store", "TokenBucket"]


class Resource:
    """Counting semaphore with FIFO fairness.

    Usage inside a process::

        yield from resource.acquire()
        try:
            yield Timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, simulator: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.simulator = simulator
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[Event] = deque()
        self.total_acquisitions = 0
        self.total_wait_time = 0.0

    def acquire(self) -> Generator:
        """Generator: obtain one unit, blocking in FIFO order if needed."""
        started = self.simulator.now
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
        else:
            gate = Event(f"{self.name}:acquire")
            self._waiters.append(gate)
            yield Wait(gate)
        self.total_acquisitions += 1
        self.total_wait_time += self.simulator.now - started
        return None

    def release(self) -> None:
        """Return one unit; wakes the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the unit directly to the next waiter: in_use stays constant.
            gate = self._waiters.popleft()
            gate.succeed()
        else:
            self.in_use -= 1


class Store:
    """Unbounded FIFO channel between producer and consumer processes."""

    def __init__(self, simulator: Simulator, name: str = "store") -> None:
        self.simulator = simulator
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.total_put = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest blocked getter if any."""
        self.total_put += 1
        if self._getters:
            gate = self._getters.popleft()
            gate.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Generator:
        """Generator: take the oldest item, blocking until one is available."""
        if self._items:
            return self._items.popleft()
        gate = Event(f"{self.name}:get")
        self._getters.append(gate)
        item = yield Wait(gate)
        return item


class TokenBucket:
    """A byte-rate limiter over virtual time.

    Rather than generating one event per byte, a transfer of ``amount``
    bytes reserves the bucket's timeline: the call returns the *delay* the
    caller must sleep so that aggregate throughput never exceeds
    ``rate`` bytes/second. Concurrent callers serialize, which is exactly
    how a saturated NIC or NVMe channel behaves.
    """

    def __init__(self, simulator: Simulator, rate: float, name: str = "bucket") -> None:
        if rate <= 0:
            raise SimulationError(f"token bucket rate must be positive, got {rate}")
        self.simulator = simulator
        self.rate = float(rate)
        self.name = name
        self._free_at = 0.0  # next time the channel is idle
        self.total_bytes = 0

    def reserve(self, amount: float) -> float:
        """Reserve bandwidth for ``amount`` bytes; return the completion delay.

        The caller should ``yield Timeout(delay)`` with the returned delay.
        """
        if amount < 0:
            raise SimulationError(f"negative transfer size: {amount}")
        now = self.simulator.now
        start = max(now, self._free_at)
        duration = amount / self.rate
        self._free_at = start + duration
        self.total_bytes += int(amount)
        return self._free_at - now

    def transfer(self, amount: float) -> Generator:
        """Generator: sleep exactly as long as the reservation requires."""
        delay = self.reserve(amount)
        if delay > 0:
            yield Timeout(delay)
        return None
