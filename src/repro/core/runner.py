"""Repetition engine: per-repetition streams, grid jobs, and grid mappers.

:class:`Runner` derives each repetition's RNG stream (from
``figure/platform/rep-i``) for the plan layer's lowering, so every
figure's seed management is uniform and results are reproducible.

Execution is separated from definition: every repetition's stream is
derived *up-front* from the seed tree, so the repetitions are mutually
independent and may be dispatched through any order-preserving ``mapper``
(the built-in serial map by default; the process pool mapper — and the
:mod:`repro.core.remote` fleet mapper — via :func:`grid_mapper`).
Results are bit-identical regardless of the mapper because no
repetition's draws depend on another's.

Dispatch goes through the picklable module-level :class:`RepJob` /
:func:`run_rep_job` pair rather than a closure, so process-pool mappers
work (closures cannot cross a pool boundary).

The mapper is usually not passed explicitly: the scheduler layer installs
one ambiently via :func:`execution_context` (a ``contextvars`` scope), and
the plan layer's :meth:`~repro.core.plan.LoweredGrid.execute` picks it
up. One mapper covers a figure's *entire* ``(platform, rep)`` grid in one
dispatch.
"""

from __future__ import annotations

import contextlib
import contextvars
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.core.chunking import chunk_items, resolve_chunk_size
from repro.errors import ConfigurationError
from repro.platforms.base import Platform
from repro.rng import RngStream, derive_seed, materialize_streams
from repro.workloads.base import Workload

__all__ = [
    "Runner",
    "RepJob",
    "run_rep_job",
    "run_chunk",
    "grid_mapper",
    "PoolMapper",
    "execution_context",
    "active_grid_mapper",
    "GRID_BACKENDS",
]

#: An order-preserving map strategy: ``mapper(fn, items) -> results``.
Mapper = Callable[[Callable[[Any], Any], Iterable[Any]], Iterable[Any]]

#: Valid grid-level backends (``ExecutionPolicy.grid_backend``).
GRID_BACKENDS = ("serial", "process", "remote")


@dataclass(frozen=True)
class RepJob:
    """One repetition, fully described: picklable pool-worker payload.

    Carries the workload, the platform, and the repetition's pre-derived
    :class:`~repro.rng.RngStream` — everything :meth:`run` needs, with no
    reference back to the :class:`Runner` that built it.

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

    Dispatch is *chunked*: the grid is split into contiguous slabs (see
    :mod:`repro.core.chunking` — explicit ``chunk_size``, or the auto
    heuristic over this pool's width) and one future carries one slab,
    amortizing the submit/pickle overhead per cell. ``Executor.map``
    preserves slab order and :func:`run_chunk` preserves intra-slab
    order, so results stay bit-identical to serial for every chunk
    size. :attr:`last_chunk_size` records the resolved slab size of the
    most recent dispatch (provenance).
    """

    def __init__(self, jobs: int, *, chunk_size: int | None = None) -> None:
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.last_chunk_size: int | None = None
        self._executor: ProcessPoolExecutor | None = None

    def __call__(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        items = list(items)
        if len(items) <= 1:
            return _serial_map(fn, items)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        size = resolve_chunk_size(self.chunk_size, len(items), self.jobs)
        self.last_chunk_size = size
        try:
            if size == 1:
                return list(self._executor.map(fn, items))
            payloads = [(fn, chunk) for chunk in chunk_items(items, size)]
            results: list[Any] = []
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


def grid_mapper(
    backend: str,
    jobs: int,
    workers: Iterable[str] | None = None,
    chunk_size: int | None = None,
    fleet_url: str | None = None,
    store_url: str | None = None,
) -> Mapper:
    """An order-preserving mapper for the given grid backend and width.

    ``serial`` maps in-process; ``process`` returns a :class:`PoolMapper`
    that fans contiguous item slabs over a process pool (``Executor.map``
    preserves input order); ``remote`` returns a
    :class:`~repro.core.remote.RemoteMapper` that fans slabs over the
    ``workers`` fleet (``host:port`` addresses) with sequence-numbered
    reassembly. A width of one collapses the process backend to the
    serial map; the remote backend's parallelism is the fleet's, so
    ``jobs`` does not apply to it.

    ``chunk_size`` fixes the dispatch slab size for the non-serial
    backends (``None`` = the :mod:`repro.core.chunking` auto heuristic,
    resolved per dispatch); the serial map has no dispatch boundary, so
    chunking does not apply to it.

    The remote backend accepts ``fleet_url`` *instead of* a static
    ``workers`` roster — the mapper then resolves the live membership
    from that :class:`~repro.core.fleet.FleetCoordinator` at each
    dispatch and admits workers joining mid-run — and ``store_url``,
    which is handed to every worker so tokenized cells dedupe
    fleet-wide through the store's lease tier.

    Every backend produces bit-identical results for the same grid —
    cell streams are derived before dispatch and every mapper preserves
    input order (see ``docs/ARCHITECTURE.md``) — for every chunk size.
    """
    if backend not in GRID_BACKENDS:
        raise ConfigurationError(
            f"unknown grid backend {backend!r}; known: {', '.join(GRID_BACKENDS)}"
        )
    if jobs < 1:
        raise ConfigurationError(f"grid jobs must be >= 1, got {jobs}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk size must be >= 1, got {chunk_size}")
    if backend == "remote":
        # Imported here: remote is a leaf backend built on this module's
        # mapper seam, not a dependency of every runner user.
        from repro.core.remote import RemoteMapper

        if not workers and fleet_url is None:
            raise ConfigurationError(
                "grid backend 'remote' needs a worker roster (host:port) or "
                "a fleet coordinator (fleet_url) — start one with: "
                "repro-bench worker --port P [--fleet HOST:PORT]"
            )
        return RemoteMapper(
            list(workers) if workers else None,
            chunk_size=chunk_size,
            fleet_url=fleet_url,
            store_url=store_url,
        )
    if backend == "serial" or jobs == 1:
        return _serial_map
    return PoolMapper(jobs, chunk_size=chunk_size)


#: The ambient grid mapper, installed by the scheduler layer around each
#: figure execution.
_ACTIVE_GRID_MAPPER: contextvars.ContextVar[Mapper | None] = contextvars.ContextVar(
    "repro_grid_mapper", default=None
)


def active_grid_mapper() -> Mapper | None:
    """The mapper installed by the innermost :func:`execution_context`."""
    return _ACTIVE_GRID_MAPPER.get()


@contextlib.contextmanager
def execution_context(mapper: Mapper | None) -> Iterator[None]:
    """Install ``mapper`` as the ambient grid mapper for this context.

    Every lowered :class:`~repro.core.plan.LoweredGrid` executed inside
    the ``with`` block (without an explicit ``mapper``) dispatches
    through it. This is
    the policy/logic split at the grid level: figure plans declare what to
    measure, the caller decides where the ``(platform, rep)`` cells
    execute.
    """
    token = _ACTIVE_GRID_MAPPER.set(mapper)
    try:
        yield
    finally:
        _ACTIVE_GRID_MAPPER.reset(token)


class Runner:
    """Derives the per-platform, per-repetition streams of one seed scope."""

    def __init__(self, seed: int, scope: str) -> None:
        self.root = RngStream(seed, scope)

    @staticmethod
    def job_seed(seed: int, scope: str) -> int:
        """The derived identity of a job at ``scope`` in the seed tree."""
        return derive_seed(seed, f"job/{scope}")

    def stream_for(self, platform: Platform, tag: str = "") -> RngStream:
        """The platform's stream within this runner's scope."""
        path = platform.name if not tag else f"{platform.name}/{tag}"
        return self.root.child(path)

    def rep_streams(
        self, platform: Platform, repetitions: int, tag: str = ""
    ) -> list[RngStream]:
        """One independent pre-derived stream per repetition.

        The streams are batch-derived (one keyed-hash pass) and batch-seeded
        (:func:`~repro.rng.materialize_streams`), so wide grids pay one
        vectorized seeding pass instead of one SeedSequence per repetition.
        The draws are bit-identical to per-rep derivation either way.
        """
        if repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        stream = self.stream_for(platform, tag)
        streams = stream.children(f"rep-{index}" for index in range(repetitions))
        materialize_streams(streams)
        return streams
