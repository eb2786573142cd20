"""Experiment scheduler.

The figure registry defines *what* to run; this module decides *where and
how*. :meth:`ExperimentScheduler.run` walks the selected figures in
order: it reads each one through the
:class:`~repro.core.store.ResultStore`, and on a miss runs the figure
under the grid mapper its :class:`ExecutionPolicy` prescribes, installed
via :func:`~repro.core.runner.execution_context` — so the figure's whole
lowered ``(platform, rep)`` grid (see :mod:`repro.core.plan`) fans over
one process pool or one worker fleet — then records a :class:`JobRecord`
and writes the result back.

Determinism is preserved by construction: every figure function builds its
own :class:`~repro.core.runner.Runner` seed subtree from ``(seed,
figure_id)``, and each job additionally records its
:func:`~repro.rng.derive_seed`-derived identity. Every cell's stream is
derived before dispatch and every grid mapper preserves input order, so
results are bit-identical to serial on every grid backend.

Jobs are crash-isolated: an exception in one figure is captured in its
:class:`JobRecord` and the remaining jobs still run to completion.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

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
    "JobRecord",
    "SchedulerReport",
    "ExperimentScheduler",
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
    """Where each figure's grid executes.

    Figures run one after another; the parallelism is inside each one.
    ``grid_jobs``/``grid_backend`` are a single worker budget for the
    figure's whole lowered ``(platform, rep)`` grid, which fans over one
    shared process pool in one dispatch.

    The grid is also where a run leaves the machine: the
    ``remote`` grid backend fans the lowered grid over a worker fleet
    (``workers=("host:port", ...)``, each started with ``repro-bench
    worker``). Distribution is pure deployment policy — naming a fleet
    is the only difference between a local and a remote run, and the
    results are bit-identical either way.

    ``grid_backend=None`` auto-selects: serial for one slot, a process
    pool otherwise (workloads are pure-Python simulation, so only
    processes buy true parallelism), and ``remote`` whenever a worker
    roster is given. Serial stays the default; callers opt in via
    ``--grid-jobs N`` / ``--workers ...``.

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

    grid_jobs: int = 1
    grid_backend: str | None = None
    workers: tuple[str, ...] = ()
    fleet_url: str | None = None
    store_url: str | None = None
    chunk_size: int | None = None

    def __post_init__(self) -> None:
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
        return cls(grid_backend=BACKEND_SERIAL)


class _CountingMapper:
    """Mapper proxy recording how many grid cells were dispatched.

    The figure's lowered grid width is execution provenance, but only the
    figure function knows it — wrapping the mapper observes it without
    widening any figure signatures. Every figure dispatches its whole
    grid in one call.
    """

    def __init__(self, inner: Mapper) -> None:
        self.inner = inner
        self.dispatched = 0

    def __call__(self, fn: Any, items: Any) -> Any:
        items = list(items)
        self.dispatched += len(items)
        return self.inner(fn, items)


@dataclass
class JobRecord:
    """Provenance for one scheduled job."""

    figure_id: str
    digest: str
    #: ``serial`` for an executed figure, ``store`` for a cache hit.
    backend: str
    wall_time_s: float
    job_seed: int
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
    #: One record per selected figure, in selection order.
    records: list[JobRecord] = field(default_factory=list)

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


class ExperimentScheduler:
    """Runs figures in order through the store and the policy's grid mapper."""

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
        Records appear in selection order.
        """
        selected = list(figure_ids) if figure_ids is not None else list(FIGURES)
        unknown = [fid for fid in selected if fid not in FIGURES]
        if unknown:
            raise ConfigurationError(
                f"unknown figure(s) {', '.join(unknown)}; known: {', '.join(FIGURES)}"
            )
        overrides = overrides or {}
        report = SchedulerReport()
        for figure_id in selected:
            figure_overrides = overrides.get(figure_id)
            key = self.key_for(figure_id, figure_overrides)
            started = time.perf_counter()
            result = self.store.get(key) if self.store is not None else None
            if result is not None:
                # Tiered stores report which tier satisfied the read; a
                # plain local store is its own (only) local tier.
                tier = getattr(self.store, "last_source", None) or "local"
                record = JobRecord(
                    figure_id=figure_id,
                    digest=key.digest,
                    backend="store",
                    wall_time_s=time.perf_counter() - started,
                    job_seed=Runner.job_seed(self.seed, figure_id),
                    cache=f"hit-{tier}",
                    store=self.store_address,
                )
            else:
                record, result = self._execute(figure_id, key, figure_overrides)
            report.records.append(record)
            if result is None:
                continue
            self._attach_provenance(result, record, key)
            if not record.cache_hit and self.store is not None:
                self.store.put(key, result)
            report.results[figure_id] = result
        return report

    def _execute(
        self, figure_id: str, key: StoreKey, overrides: dict[str, Any] | None
    ) -> tuple[JobRecord, FigureResult | None]:
        """Run one figure under the policy's grid mapper, crash-isolated.

        The :class:`contextlib.ExitStack` owns the mapper's lifetime: a
        pool mapper's workers (or a remote mapper's connections) are
        released when the figure finishes — or raises mid-grid. The
        record's wall time covers the mapper's set-up and release.
        """
        policy = self.policy
        record = JobRecord(
            figure_id=figure_id,
            digest=key.digest,
            backend=BACKEND_SERIAL,
            wall_time_s=0.0,
            job_seed=Runner.job_seed(self.seed, figure_id),
            store=self.store_address,
            grid_backend=policy.resolved_grid_backend,
            grid_jobs=policy.grid_jobs,
            workers=policy.workers or None,
            fleet=policy.fleet_url,
        )
        result = None
        started = time.perf_counter()
        try:
            mapper = policy.mapper()
            counting = _CountingMapper(mapper)
            with contextlib.ExitStack() as stack:
                if hasattr(mapper, "__exit__"):
                    # Every resource-holding mapper (local pool, remote
                    # fleet connections) is a context manager; the serial
                    # map is a bare function.
                    stack.enter_context(mapper)
                stack.enter_context(execution_context(counting))
                result = run_figure(
                    figure_id, self.seed, **self.effective_kwargs(figure_id, overrides)
                )
        except Exception as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        else:
            record.grid_width = counting.dispatched
            # The *resolved* slab size (auto heuristics resolve per
            # dispatch); the serial map has no dispatch boundary.
            record.chunk_size = getattr(mapper, "last_chunk_size", None)
            # In fleet mode the roster is resolved (and grown) at dispatch
            # time — record what materialized, not what was configured.
            roster = getattr(mapper, "last_roster", None)
            if roster is not None:
                record.workers = tuple(roster) or record.workers
                record.dedupe = getattr(mapper, "last_dedupe", None)
        record.wall_time_s = time.perf_counter() - started
        return record, result

    def _attach_provenance(
        self, result: FigureResult, record: JobRecord, key: StoreKey
    ) -> None:
        result.metadata["provenance"] = {
            "backend": record.backend,
            "grid_backend": record.grid_backend,
            "grid_jobs": record.grid_jobs,
            "grid_width": record.grid_width,
            "workers": list(record.workers) if record.workers is not None else None,
            "chunk_size": record.chunk_size,
            "fleet": record.fleet,
            "dedupe": dict(record.dedupe) if record.dedupe is not None else None,
            "cache": record.cache,
            "store": record.store,
            "wall_time_s": round(record.wall_time_s, 6),
            "seed": self.seed,
            "quick": self.quick,
            "job_seed": record.job_seed,
            "digest": record.digest,
            "overrides": key.overrides,
        }
