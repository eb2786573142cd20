"""Chunked grid dispatch: the pure slab-geometry pass.

Every non-serial grid backend pays a fixed per-dispatch cost per unit of
work it ships — a future submission for the local pools, a full framed
pickle round-trip for the remote fleet. Dispatching one *cell* per unit
makes that overhead dominate the moment cells are cheap. Chunking
amortizes the overhead: the lowered grid is split into contiguous
``[start, stop)`` slabs and each slab travels as one unit (perfbench's
``fleet-cold`` workload reports the mean slab as ``remote.chunk_cells``).

This module is the *policy arithmetic only* — pure functions of
``(width, chunk_size, jobs)`` with no I/O, no RNG, and no knowledge of
what a cell is. The mappers (:class:`~repro.core.runner.PoolMapper`,
:class:`~repro.core.remote.RemoteMapper`) own the dispatch mechanics
and size every slab with :func:`auto_chunk_size`; the slab size is
derived from the deployment (grid width and dispatch parallelism), not
configured. Keeping the geometry pure keeps the bit-identity argument
trivial: slabs are contiguous and ordered, every mapper preserves slab
order and intra-slab order, so the flattened results are the serial
results regardless of slab size.

The rule::

    max(1, min(ceil(width / (4 * jobs)), 64))

aims each worker at roughly four slabs per dispatch — enough slack for
work stealing to even out uneven slab durations — and caps slabs at 64
cells so one slow slab cannot serialize a wide grid. ``docs/
PERFORMANCE.md`` ("Dispatch granularity") discusses the trade-offs.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = [
    "MAX_AUTO_CHUNK",
    "auto_chunk_size",
    "chunk_spans",
    "chunk_items",
]

#: Upper bound on a dispatch slab, in cells.
MAX_AUTO_CHUNK = 64


def auto_chunk_size(width: int, jobs: int) -> int:
    """The slab size every mapper uses: ``max(1, min(ceil(width/(4*jobs)), 64))``.

    ``jobs`` is the dispatch parallelism the slabs fan over: the pool
    width for local backends, the fleet's total advertised slots for the
    remote backend.
    """
    if width < 0:
        raise ConfigurationError(f"grid width must be >= 0, got {width}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(math.ceil(width / (4 * jobs)), MAX_AUTO_CHUNK))


def chunk_spans(width: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` slabs covering ``range(width)`` exactly.

    Deterministic and order-preserving by construction: spans are emitted
    in ascending ``start`` order, abut exactly (``spans[i].stop ==
    spans[i+1].start``), and only the last span may be short. A zero
    width yields no spans.
    """
    if width < 0:
        raise ConfigurationError(f"grid width must be >= 0, got {width}")
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(start + chunk_size, width))
        for start in range(0, width, chunk_size)
    ]


def chunk_items(items: list, chunk_size: int) -> list[list]:
    """Split ``items`` into the slabs :func:`chunk_spans` prescribes."""
    return [
        items[start:stop] for start, stop in chunk_spans(len(items), chunk_size)
    ]
