"""Parallel experiment scheduler.

The figure registry defines *what* to run; this module decides *where and
how*. An :class:`ExperimentScheduler` turns a set of figure ids into
:class:`ExperimentJob` descriptions, batches them topologically by the
``depends_on`` edges in the experiment registry, reads each job through
the :class:`~repro.core.store.ResultStore`, and executes the misses on a
backend chosen by :class:`ExecutionPolicy` — serially in-process, or
across a ``concurrent.futures`` process pool. The policy also carries a
*grid-level* dimension (``grid_jobs``/``grid_backend``): each job
installs an order-preserving grid mapper via
:func:`~repro.core.runner.execution_context` before it runs, so the
figure's whole lowered ``(platform, rep)`` grid (see
:mod:`repro.core.plan`) fans over one shared process pool —
the speedup path for single-figure runs, where the figure pool is idle.

Determinism is preserved by construction: every figure function builds its
own :class:`~repro.core.runner.Runner` seed subtree from ``(seed,
figure_id)``, and each job additionally records its
:func:`~repro.rng.derive_seed`-derived identity. No draw in one job can
perturb another, so process-pool results are bit-identical to serial ones
regardless of scheduling order.

Jobs are crash-isolated: an exception in one figure is captured in its
:class:`JobRecord` and the remaining jobs still run to completion.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.experiment import EXPERIMENTS
from repro.core.figures import FIGURES, lower_figure, run_figure
from repro.core.plan import LoweredGrid
from repro.core.results import FigureResult
from repro.core.runner import (
    GRID_BACKENDS,
    Mapper,
    Runner,
    execution_context,
    grid_mapper,
)
from repro.core.remote import parse_worker_address
from repro.core.store import ResultStore, StoreKey
from repro.core.storenet import RemoteStore, TieredStore
from repro.errors import ConfigurationError, ReproError

__all__ = [
    "ExecutionPolicy",
    "ExperimentJob",
    "JobRecord",
    "SchedulerReport",
    "ExperimentScheduler",
    "topological_batches",
    "quick_overrides",
]

BACKEND_SERIAL = "serial"
BACKEND_PROCESS = "process"
BACKEND_REMOTE = "remote"


def quick_overrides(figure_id: str) -> dict[str, Any]:
    """Reduced-repetition kwargs used by quick mode (single source of truth)."""
    if figure_id in ("fig13", "fig14", "fig15"):
        return {"startups": 60}
    if figure_id in ("fig18",):
        return {}
    return {"repetitions": 3}


@dataclass(frozen=True)
class ExecutionPolicy:
    """How jobs execute, at both scheduling levels.

    The *figure* level (``jobs``/``backend``) fans independent figures over
    a process pool; the *grid* level (``grid_jobs``/``grid_backend``) is a
    single worker budget for everything inside one figure — the whole
    lowered ``(platform, rep)`` grid fans over one shared process pool
    instead of per-platform repetition batches. The two
    levels compose:
    a figure pool worker installs the grid mapper in its own process, so
    ``jobs=4, grid_jobs=2`` runs four figures at once, each with a
    two-worker grid pool.

    The grid level is also where a run leaves the machine: the
    ``remote`` grid backend fans the lowered grid over a worker fleet
    (``workers=("host:port", ...)``, each started with ``repro-bench
    worker``). Distribution is pure deployment policy — naming a fleet
    is the only difference between a local and a remote run, and the
    results are bit-identical either way.

    ``backend=None`` / ``grid_backend=None`` auto-select: serial for one
    slot, a process pool otherwise (workloads are pure-Python simulation,
    so only processes buy true parallelism), and ``remote`` whenever a
    worker roster is given. Serial stays the default everywhere; callers
    opt in via ``--jobs N`` / ``--grid-jobs N`` / ``--workers ...``.

    ``fleet_url`` replaces the hand-named roster with an elastic one
    (CLI: ``run --fleet host:port``): the ``host:port`` of a
    ``repro-bench fleet`` coordinator (:mod:`repro.core.fleet`) whose
    *live* membership is resolved at dispatch time — workers register,
    heartbeat, join mid-run, and drain without the client changing a
    thing. Mutually exclusive with ``workers``; selects the remote grid
    backend just like a static roster does.

    ``store_url`` names the shared (network) result store the run reads
    through and writes back to (``host:port`` of a ``repro-bench store``
    server, see :mod:`repro.core.storenet`) — like the worker roster,
    *where* cached results live is deployment policy, not code. On the
    remote grid backend the store address also rides in every worker
    hello, so tokenized cells dedupe fleet-wide at execution time.

    ``chunk_size`` is the dispatch-granularity knob (CLI: ``run
    --chunk-size N``): non-serial grid backends ship contiguous slabs of
    that many cells per dispatch unit (one pool future, one remote
    frame) instead of one cell each — see :mod:`repro.core.chunking`.
    ``None`` (the default) resolves per dispatch via the documented auto
    heuristic; the knob is inert on the serial backend. This is the
    RAFDA position applied to granularity: how coarsely a grid crosses
    the dispatch boundary is deployment policy the middleware owns, and
    results are bit-identical for every setting.

    ``docs/ARCHITECTURE.md`` diagrams where the policy sits in the run
    path; ``docs/OPERATIONS.md`` is the runbook for the fleet pieces it
    names.
    """

    jobs: int = 1
    backend: str | None = None
    grid_jobs: int = 1
    grid_backend: str | None = None
    workers: tuple[str, ...] = ()
    fleet_url: str | None = None
    store_url: str | None = None
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.backend not in (None, BACKEND_SERIAL, BACKEND_PROCESS):
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        if self.grid_jobs < 1:
            raise ConfigurationError(f"grid_jobs must be >= 1, got {self.grid_jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.grid_backend is not None and self.grid_backend not in GRID_BACKENDS:
            raise ConfigurationError(
                f"unknown grid backend {self.grid_backend!r}; "
                f"known: {', '.join(GRID_BACKENDS)}"
            )
        object.__setattr__(self, "workers", tuple(self.workers))
        if self.workers and self.fleet_url is not None:
            raise ConfigurationError(
                "give either a static worker roster (--workers) or a fleet "
                "coordinator (--fleet), not both — the coordinator owns the "
                "roster in fleet mode"
            )
        if self.grid_backend == BACKEND_REMOTE and not self.workers and self.fleet_url is None:
            raise ConfigurationError(
                "grid_backend='remote' needs a worker roster "
                "(workers=('host:port', ...)) or a fleet coordinator "
                "(fleet_url='host:port')"
            )
        if (self.workers or self.fleet_url is not None) and self.grid_backend not in (
            None, BACKEND_REMOTE
        ):
            raise ConfigurationError(
                f"a worker roster (or fleet coordinator) only applies to the "
                f"'remote' grid backend, not {self.grid_backend!r}"
            )
        if (self.workers or self.fleet_url is not None) and self.grid_jobs != 1:
            # Rejected rather than silently ignored: remote parallelism
            # comes from each worker's advertised slot count, so accepting
            # grid_jobs here would record a width that never took effect.
            raise ConfigurationError(
                "grid_jobs does not apply to the remote grid backend; "
                "set --workers N on each repro-bench worker instead"
            )
        if self.fleet_url is not None:
            try:
                parse_worker_address(self.fleet_url)
            except ReproError as exc:
                raise ConfigurationError(f"invalid fleet address: {exc}") from None
        if self.store_url is not None:
            try:
                parse_worker_address(self.store_url)
            except ReproError as exc:
                raise ConfigurationError(f"invalid store address: {exc}") from None

    @property
    def resolved_backend(self) -> str:
        """The concrete figure-level backend this policy selects."""
        if self.backend is not None:
            return self.backend
        return BACKEND_PROCESS if self.jobs > 1 else BACKEND_SERIAL

    @property
    def resolved_grid_backend(self) -> str:
        """The concrete grid-level backend this policy selects."""
        if self.grid_backend is not None:
            return self.grid_backend
        if self.workers or self.fleet_url is not None:
            return BACKEND_REMOTE
        return BACKEND_PROCESS if self.grid_jobs > 1 else BACKEND_SERIAL

    def mapper(self) -> Mapper:
        """The order-preserving grid mapper this policy prescribes."""
        return grid_mapper(
            self.resolved_grid_backend,
            self.grid_jobs,
            workers=self.workers or None,
            chunk_size=self.chunk_size,
            fleet_url=self.fleet_url,
            store_url=self.store_url,
        )

    @classmethod
    def serial(cls) -> "ExecutionPolicy":
        return cls(
            jobs=1, backend=BACKEND_SERIAL, grid_jobs=1, grid_backend=BACKEND_SERIAL
        )


@dataclass(frozen=True)
class ExperimentJob:
    """One schedulable figure execution (picklable).

    ``grid_backend``/``grid_jobs`` describe *where* the job's lowered
    ``(platform, rep)`` grid runs; they travel with the job (contextvars
    do not cross a process pool) but are execution policy, not identity —
    they never enter the store key, because every grid backend is
    bit-identical by construction.
    """

    figure_id: str
    seed: int
    kwargs: tuple[tuple[str, Any], ...]
    job_seed: int
    grid_backend: str = BACKEND_SERIAL
    grid_jobs: int = 1
    workers: tuple[str, ...] = ()
    #: Fleet coordinator resolving the live roster (None = static mode).
    fleet_url: str | None = None
    #: Shared store the remote grid's cells dedupe through (None = none).
    store_url: str | None = None
    #: Dispatch slab size prescribed by the policy (None = auto).
    chunk_size: int | None = None

    @classmethod
    def build(
        cls,
        figure_id: str,
        seed: int,
        kwargs: dict[str, Any],
        *,
        grid_backend: str = BACKEND_SERIAL,
        grid_jobs: int = 1,
        workers: tuple[str, ...] = (),
        fleet_url: str | None = None,
        store_url: str | None = None,
        chunk_size: int | None = None,
    ) -> "ExperimentJob":
        """Create a job; its identity seed comes from the shared seed tree."""
        frozen = tuple(sorted(kwargs.items(), key=lambda item: item[0]))
        return cls(
            figure_id=figure_id,
            seed=int(seed),
            kwargs=_freeze_kwargs(frozen),
            job_seed=Runner.job_seed(seed, figure_id),
            grid_backend=grid_backend,
            grid_jobs=grid_jobs,
            workers=tuple(workers),
            fleet_url=fleet_url,
            store_url=store_url,
            chunk_size=chunk_size,
        )

    def kwargs_dict(self) -> dict[str, Any]:
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in self.kwargs}


def _freeze_kwargs(items: tuple[tuple[str, Any], ...]) -> tuple[tuple[str, Any], ...]:
    return tuple(
        (name, tuple(value) if isinstance(value, list) else value)
        for name, value in items
    )


class _CountingMapper:
    """Mapper proxy recording how many grid cells were dispatched.

    The figure's lowered grid width is execution provenance, but only the
    figure function knows it — wrapping the mapper observes it without
    widening any figure signatures. Plan-based figures dispatch their
    whole grid in one call; legacy per-batch callers accumulate.
    """

    def __init__(self, inner: Mapper) -> None:
        self.inner = inner
        self.dispatched = 0

    def __call__(self, fn: Any, items: Any) -> Any:
        items = list(items)
        self.dispatched += len(items)
        return self.inner(fn, items)


#: One job's outcome: (result, error message, wall time, grid width,
#: resolved chunk size, remote info) — exactly one of result/error is
#: set; grid width and chunk size are None on failure (and chunk size
#: also for mappers with no dispatch boundary, i.e. serial). Remote info
#: is ``{"roster": [...], "dedupe": {...} | None}`` when the job ran on
#: the remote grid backend (the roster that *materialized* — in fleet
#: mode that includes workers which joined mid-run — and the summed
#: worker-side cell-dedupe counters), else None.
JobOutcome = tuple[
    FigureResult | None, str | None, float, int | None, int | None,
    dict[str, Any] | None,
]


def _execute_job(job: ExperimentJob) -> JobOutcome:
    """Worker entry point — module-level so the process pool can pickle it.

    Times and crash-isolates in-worker, so provenance reports each job's
    own duration (success or failure) rather than submission-order queue
    latency, and a raising figure never tears down the pool.

    Installs the job's grid mapper via :func:`execution_context` here, in
    the executing process, so the figure's lowered grid picks it up
    whether the job runs in-process or inside a figure-pool worker. The
    :class:`contextlib.ExitStack` owns the mapper's lifetime: a pool
    mapper's workers are released even when the figure raises mid-grid.
    """
    started = time.perf_counter()
    try:
        mapper = grid_mapper(
            job.grid_backend,
            job.grid_jobs,
            workers=job.workers or None,
            chunk_size=job.chunk_size,
            fleet_url=job.fleet_url,
            store_url=job.store_url,
        )
        counting = _CountingMapper(mapper)
        with contextlib.ExitStack() as stack:
            if hasattr(mapper, "__exit__"):
                # Every resource-holding mapper (local pool, remote fleet
                # connections) is a context manager; the serial map is a
                # bare function. One shared pool covers the figure's whole
                # grid; release it when the job finishes — or raises.
                stack.enter_context(mapper)
            stack.enter_context(execution_context(counting))
            result = run_figure(job.figure_id, job.seed, **job.kwargs_dict())
        # The *resolved* slab size (auto heuristics resolve per dispatch);
        # the serial map has no dispatch boundary and reports None.
        chunk_size = getattr(mapper, "last_chunk_size", None)
        roster = getattr(mapper, "last_roster", None)
        dedupe = getattr(mapper, "last_dedupe", None)
        remote_info = (
            {"roster": list(roster), "dedupe": dedupe}
            if roster is not None else None
        )
        return (
            result, None, time.perf_counter() - started, counting.dispatched,
            chunk_size, remote_info,
        )
    except Exception as exc:
        return (
            None, f"{type(exc).__name__}: {exc}", time.perf_counter() - started,
            None, None, None,
        )


@dataclass
class JobRecord:
    """Provenance for one scheduled job."""

    figure_id: str
    digest: str
    backend: str
    wall_time_s: float
    job_seed: int
    batch: int
    error: str | None = None
    #: Cache disposition: ``hit-local`` (this client's store tier),
    #: ``hit-remote`` (the shared fleet store), or ``miss``.
    cache: str = "miss"
    #: Address of the shared store this run read through (None when the
    #: store is local-only or absent).
    store: str | None = None
    #: Grid-level backend the job ran with (None for cache hits —
    #: nothing executed, so no grid dispatch happened).
    grid_backend: str | None = None
    grid_jobs: int = 1
    #: Number of (platform, rep) cells the figure dispatched (None for
    #: cache hits and failures).
    grid_width: int | None = None
    #: Worker roster the grid fanned over (None unless the job ran on
    #: the remote grid backend).
    workers: tuple[str, ...] | None = None
    #: Resolved dispatch slab size of the last grid dispatch (None for
    #: cache hits, failures, and the serial backend).
    chunk_size: int | None = None
    #: Fleet coordinator the roster was resolved from (None for static
    #: rosters and non-remote runs). When set, :attr:`workers` records
    #: the roster that *materialized* — including mid-run joiners.
    fleet: str | None = None
    #: Summed worker-side cell-dedupe counters (``executed`` /
    #: ``store_hits``) when workers ran store-aware, else None.
    dedupe: dict[str, int] | None = None

    @property
    def cache_hit(self) -> bool:
        """Derived from :attr:`cache` so the two can never disagree."""
        return self.cache != "miss"

    def to_dict(self) -> dict[str, Any]:
        return {
            "figure_id": self.figure_id,
            "digest": self.digest,
            "backend": self.backend,
            "cache_hit": self.cache_hit,
            "wall_time_s": self.wall_time_s,
            "job_seed": self.job_seed,
            "batch": self.batch,
            "error": self.error,
            "cache": self.cache,
            "store": self.store,
            "grid_backend": self.grid_backend,
            "grid_jobs": self.grid_jobs,
            "grid_width": self.grid_width,
            "workers": list(self.workers) if self.workers is not None else None,
            "chunk_size": self.chunk_size,
            "fleet": self.fleet,
            "dedupe": dict(self.dedupe) if self.dedupe is not None else None,
        }


@dataclass
class SchedulerReport:
    """Everything one scheduler run produced."""

    results: dict[str, FigureResult] = field(default_factory=dict)
    records: list[JobRecord] = field(default_factory=list)
    batches: list[list[str]] = field(default_factory=list)

    @property
    def errors(self) -> dict[str, str]:
        """figure_id -> captured error message, for failed jobs."""
        return {r.figure_id: r.error for r in self.records if r.error}

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def executed(self) -> int:
        """Jobs that actually ran a workload (miss, no error)."""
        return sum(1 for r in self.records if not r.cache_hit and not r.error)

    def record_for(self, figure_id: str) -> JobRecord:
        for record in self.records:
            if record.figure_id == figure_id:
                return record
        raise KeyError(f"no job record for {figure_id!r}")

    def raise_for_errors(self) -> None:
        """Re-raise (as ConfigurationError) if any job failed."""
        if self.errors:
            detail = "; ".join(f"{fid}: {msg}" for fid, msg in self.errors.items())
            raise ConfigurationError(f"{len(self.errors)} job(s) failed: {detail}")


def topological_batches(
    figure_ids: Iterable[str],
    dependencies: Mapping[str, tuple[str, ...]] | None = None,
) -> list[list[str]]:
    """Kahn-level batches: each batch's jobs are mutually independent.

    Dependencies default to ``Experiment.depends_on`` from the registry.
    Edges pointing outside the selected set are ignored (the dependency is
    assumed satisfied — e.g. by the cache). Cycles raise.
    """
    selected = list(figure_ids)
    selected_set = set(selected)
    if dependencies is None:
        dependencies = {
            fid: EXPERIMENTS[fid].depends_on if fid in EXPERIMENTS else ()
            for fid in selected
        }
    remaining = {
        fid: {dep for dep in dependencies.get(fid, ()) if dep in selected_set}
        for fid in selected
    }
    batches: list[list[str]] = []
    while remaining:
        ready = [fid for fid, deps in remaining.items() if not deps]
        if not ready:
            cycle = ", ".join(sorted(remaining))
            raise ConfigurationError(f"dependency cycle among experiments: {cycle}")
        batches.append(ready)
        for fid in ready:
            del remaining[fid]
        for deps in remaining.values():
            deps.difference_update(ready)
    return batches


class ExperimentScheduler:
    """Batches figure jobs and executes them through the store + backend."""

    def __init__(
        self,
        seed: int = 42,
        *,
        quick: bool = False,
        policy: ExecutionPolicy | None = None,
        store: ResultStore | TieredStore | RemoteStore | None = None,
    ) -> None:
        self.seed = seed
        self.quick = quick
        self.policy = policy or ExecutionPolicy.serial()
        if store is None and self.policy.store_url is not None:
            # The policy prescribes a shared tier and no store was wired
            # explicitly: read the fleet store directly (no local tier).
            store = TieredStore(None, RemoteStore(self.policy.store_url))
        self.store = store
        #: The shared store's address, recorded in provenance (None for
        #: a local-only or absent store).
        self.store_address: str | None = getattr(store, "url", None)

    # --- job construction -----------------------------------------------------------

    def key_for(self, figure_id: str, overrides: dict[str, Any] | None = None) -> StoreKey:
        """The store key a run of ``figure_id`` with ``overrides`` would use.

        Keys are built from the *effective* kwargs (quick defaults merged
        with overrides), so a quick-mode run and an explicit-kwargs run of
        the same computation share one cache entry — ``findings --cache``
        reuses figures archived by ``run --quick --cache``.
        """
        return StoreKey.for_run(
            figure_id, self.seed, self.quick, self.effective_kwargs(figure_id, overrides)
        )

    def effective_kwargs(self, figure_id: str, overrides: dict[str, Any] | None) -> dict:
        """Quick-mode defaults merged with caller overrides."""
        kwargs = quick_overrides(figure_id) if self.quick else {}
        kwargs.update(overrides or {})
        return kwargs

    def plan_for(
        self, figure_id: str, overrides: dict[str, Any] | None = None
    ) -> LoweredGrid:
        """Lower one figure's plan exactly as a run of it would, sans execution.

        The dry-run seam: the returned grid describes the (platform, rep)
        cells, exclusions, and total width the scheduler would dispatch.
        """
        if figure_id not in FIGURES:
            raise ConfigurationError(
                f"unknown figure {figure_id!r}; known: {', '.join(FIGURES)}"
            )
        return lower_figure(
            figure_id, self.seed, **self.effective_kwargs(figure_id, overrides)
        )

    # --- execution -------------------------------------------------------------------

    def run(
        self,
        figure_ids: Iterable[str] | None = None,
        overrides: Mapping[str, dict[str, Any]] | None = None,
    ) -> SchedulerReport:
        """Run the selected figures (default: all) and report provenance.

        ``overrides`` maps figure ids to per-figure kwargs. Cached results
        are served from the store without executing anything; failures are
        captured per job (see :meth:`SchedulerReport.raise_for_errors`).
        """
        selected = list(figure_ids) if figure_ids is not None else list(FIGURES)
        unknown = [fid for fid in selected if fid not in FIGURES]
        if unknown:
            raise ConfigurationError(
                f"unknown figure(s) {', '.join(unknown)}; known: {', '.join(FIGURES)}"
            )
        overrides = dict(overrides or {})
        report = SchedulerReport(batches=topological_batches(selected))
        for batch_index, batch in enumerate(report.batches):
            self._run_batch(batch_index, batch, overrides, report)
        return report

    def _run_batch(
        self,
        batch_index: int,
        batch: list[str],
        overrides: Mapping[str, dict[str, Any]],
        report: SchedulerReport,
    ) -> None:
        pending: list[tuple[ExperimentJob, StoreKey]] = []
        for figure_id in batch:
            figure_overrides = overrides.get(figure_id)
            key = self.key_for(figure_id, figure_overrides)
            started = time.perf_counter()
            cached = self.store.get(key) if self.store is not None else None
            if cached is not None:
                elapsed = time.perf_counter() - started
                job_seed = Runner.job_seed(self.seed, figure_id)
                # Tiered stores report which tier satisfied the read; a
                # plain local store is its own (only) local tier.
                tier = getattr(self.store, "last_source", None) or "local"
                cache_label = f"hit-{tier}"
                self._attach_provenance(
                    cached, key, "store", cache_label, elapsed, job_seed
                )
                report.results[figure_id] = cached
                report.records.append(
                    JobRecord(
                        figure_id=figure_id,
                        digest=key.digest,
                        backend="store",
                        wall_time_s=elapsed,
                        job_seed=job_seed,
                        batch=batch_index,
                        cache=cache_label,
                        store=self.store_address,
                    )
                )
                continue
            kwargs = self.effective_kwargs(figure_id, figure_overrides)
            pending.append(
                (
                    ExperimentJob.build(
                        figure_id,
                        self.seed,
                        kwargs,
                        grid_backend=self.policy.resolved_grid_backend,
                        grid_jobs=self.policy.grid_jobs,
                        workers=self.policy.workers,
                        chunk_size=self.policy.chunk_size,
                        fleet_url=self.policy.fleet_url,
                        store_url=self.policy.store_url,
                    ),
                    key,
                )
            )
        if not pending:
            return
        backend = self.policy.resolved_backend
        if backend == BACKEND_PROCESS and len(pending) > 1:
            outcomes = self._run_pool(pending)
        else:
            # A single pending job gains nothing from a pool; run in-process.
            backend = BACKEND_SERIAL
            outcomes = self._run_serial(pending)
        for (job, key), outcome in zip(pending, outcomes):
            result, error, elapsed, grid_width, chunk_size, remote_info = outcome
            # In fleet mode the roster is resolved (and grown) at dispatch
            # time — record what materialized, not what was configured.
            roster = job.workers or None
            dedupe = None
            if remote_info is not None:
                if remote_info.get("roster"):
                    roster = tuple(remote_info["roster"])
                dedupe = remote_info.get("dedupe")
            record = JobRecord(
                figure_id=job.figure_id,
                digest=key.digest,
                backend=backend,
                wall_time_s=elapsed,
                job_seed=job.job_seed,
                batch=batch_index,
                error=error,
                cache="miss",
                store=self.store_address,
                grid_backend=job.grid_backend,
                grid_jobs=job.grid_jobs,
                grid_width=grid_width,
                workers=roster,
                chunk_size=chunk_size,
                fleet=job.fleet_url,
                dedupe=dedupe,
            )
            report.records.append(record)
            if result is None:
                continue
            self._attach_provenance(
                result, key, backend, "miss", elapsed, job.job_seed,
                grid_backend=job.grid_backend, grid_jobs=job.grid_jobs,
                grid_width=grid_width, workers=roster,
                chunk_size=chunk_size, fleet=job.fleet_url, dedupe=dedupe,
            )
            if self.store is not None:
                self.store.put(key, result)
            report.results[job.figure_id] = result

    def _run_serial(
        self, pending: list[tuple[ExperimentJob, StoreKey]]
    ) -> list[JobOutcome]:
        return [_execute_job(job) for job, _key in pending]

    def _run_pool(
        self, pending: list[tuple[ExperimentJob, StoreKey]]
    ) -> list[JobOutcome]:
        workers = min(self.policy.jobs, len(pending))
        outcomes: list[JobOutcome] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_job, job) for job, _key in pending]
            for future in futures:
                # Per-future clock: a failed job reports the wait for *its*
                # future, not time accumulated since the pool started.
                started = time.perf_counter()
                try:
                    outcomes.append(future.result())
                except Exception as exc:
                    # Only infrastructure failures (broken pool, unpicklable
                    # payload) reach here — figure errors are captured
                    # in-worker by _execute_job.
                    outcomes.append((None, f"{type(exc).__name__}: {exc}",
                                     time.perf_counter() - started,
                                     None, None, None))
        return outcomes

    def _attach_provenance(
        self,
        result: FigureResult,
        key: StoreKey,
        backend: str,
        cache: str,
        wall_time_s: float,
        job_seed: int,
        grid_backend: str | None = None,
        grid_jobs: int = 1,
        grid_width: int | None = None,
        workers: tuple[str, ...] | None = None,
        chunk_size: int | None = None,
        fleet: str | None = None,
        dedupe: dict[str, int] | None = None,
    ) -> None:
        result.metadata["provenance"] = {
            "backend": backend,
            "grid_backend": grid_backend,
            "grid_jobs": grid_jobs,
            "grid_width": grid_width,
            "workers": list(workers) if workers is not None else None,
            "chunk_size": chunk_size,
            "fleet": fleet,
            "dedupe": dict(dedupe) if dedupe is not None else None,
            "cache": cache,
            "store": self.store_address,
            "wall_time_s": round(wall_time_s, 6),
            "seed": self.seed,
            "quick": self.quick,
            "job_seed": job_seed,
            "digest": key.digest,
            "overrides": key.overrides,
        }
