"""Deterministic discrete-event simulation engine.

The engine drives the timed behaviour of the reproduction: guest boot
sequences, QEMU's event loop, virtqueue kicks, request/response protocols
(ttRPC, 9p) and iperf's packet-level cross-check. fig16's memcached clients
are the exception: they meet only at a FIFO pool of server threads, so
they run as a multi-server queue recursion that needs no agenda
(:mod:`repro.workloads.memcached`).

The programming model is the classic generator-coroutine DES (as popularized
by SimPy): a *process* is a generator that yields commands —
:class:`~repro.simcore.engine.Timeout`, :class:`~repro.simcore.engine.Wait`,
or another process — and the :class:`~repro.simcore.engine.Simulator`
advances a virtual clock between events. There is no wall-clock dependency
anywhere, so runs are exactly reproducible.
"""

from repro.simcore.engine import Simulator, Timeout, Wait, Process
from repro.simcore.event import Event, EventQueue
from repro.simcore.resources import Resource, Store, TokenBucket

__all__ = [
    "Simulator",
    "Timeout",
    "Wait",
    "Process",
    "Event",
    "EventQueue",
    "Resource",
    "Store",
    "TokenBucket",
]
