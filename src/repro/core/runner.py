"""Repetition engine: grid jobs and grid mappers.

The plan layer (:mod:`repro.core.plan`) lowers a figure into
:class:`RepJob` cells whose streams are all derived *up-front* from the
seed tree, so the repetitions are mutually independent and may be
dispatched through any order-preserving ``mapper`` (the built-in serial
map by default; the process pool mapper here, or the
:mod:`repro.core.remote` fleet mapper — whichever
:meth:`~repro.core.scheduler.ExecutionPolicy.mapper` derives).
Results are bit-identical regardless of the mapper because no
repetition's draws depend on another's.

Dispatch goes through the picklable module-level :class:`RepJob` /
:func:`run_rep_job` pair rather than a closure, so process-pool mappers
work (closures cannot cross a pool boundary).

The scheduler creates the policy's mapper for each executed figure and
hands it to :meth:`~repro.core.plan.LoweredGrid.execute` as an argument.
One mapper covers a figure's *entire* ``(platform, rep)`` grid in one
dispatch.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.chunking import auto_chunk_size, chunk_items
from repro.platforms.base import Platform
from repro.rng import RngStream
# Unused here: perfbench's tracer patches ``runner.materialize_streams``
# (perfbench/tracing.py ``patch_targets``) and reads it from this module.
from repro.rng import materialize_streams  # noqa: F401
from repro.workloads.base import Workload

__all__ = [
    "RepJob",
    "run_rep_job",
    "run_chunk",
    "PoolMapper",
]

#: An order-preserving map strategy: ``mapper(fn, items) -> results``.
Mapper = Callable[[Callable[[Any], Any], Iterable[Any]], Iterable[Any]]


@dataclass(frozen=True)
class RepJob:
    """One repetition, fully described: picklable pool-worker payload.

    Carries the workload, the platform, and the repetition's pre-derived
    :class:`~repro.rng.RngStream` — everything :meth:`run` needs, with no
    reference back to the plan that lowered it.

    ``token`` is the cell's content address for fleet-wide dedupe (see
    :func:`~repro.core.plan.cell_token`): equal tokens mean equal
    ``run()`` results by construction, so store-aware workers can
    exchange finished cells. ``None`` opts the cell out of dedupe — it
    changes *where* a cell's value comes from, never what it is.
    """

    workload: Workload
    platform: Platform
    stream: RngStream
    token: str | None = None

    def run(self) -> Any:
        """Execute this repetition and return the workload's result."""
        return self.workload.run(self.platform, self.stream)


def run_rep_job(job: RepJob) -> Any:
    """Module-level worker entry point (picklable by reference)."""
    return job.run()


def run_chunk(payload: tuple[Callable[[Any], Any], list[Any]]) -> list[Any]:
    """Module-level chunk entry point (picklable by reference).

    One pool future (or one remote frame) carries one ``(fn, slab)``
    payload; the cells inside the slab run serially in submission order,
    so the flattened per-slab results are exactly the serial results.
    """
    fn, chunk = payload
    return [fn(item) for item in chunk]


def _serial_map(fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
    return [fn(item) for item in items]


class PoolMapper:
    """Order-preserving process-pool mapper with a lazily-created executor.

    The plan layer dispatches a figure's whole ``(platform, rep)`` grid in
    a single call; the pool is created on first use and reused across
    calls, so a caller mapping many grids through one mapper forks once.
    Close (or use as a context manager) to release the workers; the
    scheduler enters each figure's mapper via an
    :class:`contextlib.ExitStack`, so the pool is released even when a
    figure raises mid-grid. A worker process that dies breaks the
    executor for good: the call re-raises :class:`BrokenProcessPool`
    and drops the executor, so the next call forks a fresh pool.

    Dispatch is *chunked*: the grid is split into contiguous slabs sized
    by :func:`~repro.core.chunking.auto_chunk_size` over this pool's
    width, and one future carries one slab, amortizing the submit/pickle
    overhead per cell. ``Executor.map`` preserves slab order and
    :func:`run_chunk` preserves intra-slab order, so results stay
    bit-identical to serial for every slab size. :attr:`last_chunk_size`
    records the slab size of the most recent dispatch (provenance).
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.last_chunk_size: int | None = None
        self._executor: ProcessPoolExecutor | None = None

    def __call__(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        items = list(items)
        if len(items) <= 1:
            return _serial_map(fn, items)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        size = auto_chunk_size(len(items), self.jobs)
        self.last_chunk_size = size
        payloads = [(fn, chunk) for chunk in chunk_items(items, size)]
        results: list[Any] = []
        try:
            for chunk_result in self._executor.map(run_chunk, payloads):
                results.extend(chunk_result)
            return results
        except BrokenProcessPool:
            self.close()
            raise

    def close(self) -> None:
        """Shut the pool down (idempotent; the mapper may be used again)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "PoolMapper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

