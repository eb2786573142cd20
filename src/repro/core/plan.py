"""Declarative figure plans and the (platform × rep) lowering pass.

A figure *declares* what to measure — workloads, platform rosters,
repetition counts, stream tags — as a :class:`FigurePlan` made of
:class:`MeasurementSpec`s. A lowering pass expands the plan into a flat
grid of picklable :class:`~repro.core.runner.RepJob`s, one per
``(platform, repetition)`` cell, with every cell's RNG stream pre-derived
from the seed tree (``scope/platform[/tag]/rep-i``, so no cell's draws
depend on another's or on the order cells run in). The whole grid is
dispatched through a *single* order-preserving mapper call, then folded
back into :class:`~repro.core.results.FigureResult` rows and series
deterministically.

This is the middleware separation applied one level further down: the
scheduler already decided *which figures* run where; the plan layer
decides *which cells* run where. Because cells are mutually independent,
one shared pool covers the whole grid — wide-roster figures keep every
worker busy instead of draining the pool between per-platform repetition
batches. It is also the seam future async/remote backends plug into: a
new backend only needs to be an order-preserving mapper.

Platform exclusions are resolved during lowering (via
``Workload.check_supported``) and recorded on the grid, so a plan can be
inspected — ``repro-bench plan fig09`` — without executing anything.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.core.results import FigureResult, ResultRow, SeriesRow
from repro.core.runner import Mapper, RepJob, _serial_map, run_rep_job
from repro.core.stats import Summary, summarize
from repro.core.store import canonical_overrides
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.platforms import get_platform
from repro.platforms.base import Platform
from repro.rng import RngStream, materialize_streams
from repro.workloads.base import Workload

__all__ = [
    "MeasurementSpec",
    "Exclusion",
    "GridCell",
    "LoweredGrid",
    "GridOutcome",
    "FigurePlan",
    "cell_token",
]


def cell_token(workload: Workload, platform_name: str, stream: Any) -> str | None:
    """The content address of one grid cell, or None when unaddressable.

    Two cells with equal tokens produce equal ``run()`` results by
    construction: a cell's value is a pure function of (workload class +
    parameters, platform, derived stream), and the token hashes exactly
    that identity — via the same canonical-JSON encoding the store keys
    use (:func:`~repro.core.store.canonical_overrides`), so dict/set
    ordering can never fork the address. The stream's ``(seed, path)``
    pins the whole seed-tree position; workload parameters are hashed
    too because override variants (e.g. quick mode) share stream paths
    while measuring different things.

    Workloads whose parameters defy canonical encoding (an exotic
    un-JSONable attribute) return None — the cell simply opts out of
    fleet-wide dedupe, which is always safe: dedupe changes where a
    value comes from, never what it is.
    """
    try:
        identity = canonical_overrides({
            "workload": type(workload).__qualname__,
            "params": vars(workload),
            "platform": platform_name,
            "seed": stream.seed,
            "path": stream.path,
        })
    except (ConfigurationError, TypeError):
        return None
    return hashlib.blake2b(identity.encode("utf-8"), digest_size=16).hexdigest()

#: A fold step: consumes the executed grid, appends rows/series/notes.
Fold = Callable[[FigureResult, "GridOutcome"], None]


@dataclass(frozen=True)
class MeasurementSpec:
    """One declared measurement axis: a workload over a platform roster.

    ``split_reps`` selects the stream derivation: ``True`` derives one
    independent ``rep-i`` child stream per repetition (the repeated-metric
    figures); ``False`` hands the single run the bare platform/tag stream
    (the startup CDFs and the deterministic HAP table, which manage their
    own inner sampling) and therefore requires ``repetitions == 1``.

    ``guard_support`` turns an :class:`UnsupportedOperationError` from
    ``workload.check_supported`` into a recorded :class:`Exclusion`
    instead of a run-time failure — the paper's Section 3 exclusions.
    """

    key: str
    workload: Workload
    platforms: tuple[str, ...]
    repetitions: int = 1
    tag: str = ""
    split_reps: bool = True
    guard_support: bool = False

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if not self.split_reps and self.repetitions != 1:
            raise ConfigurationError(
                "split_reps=False hands every repetition the same stream; "
                "use repetitions=1 (the workload owns its inner sampling)"
            )


@dataclass(frozen=True)
class Exclusion:
    """One platform a spec declared but lowering excluded."""

    spec_key: str
    platform: str
    reason: str

    @property
    def note(self) -> str:
        """The human-readable figure note (matches the paper's phrasing)."""
        return f"{self.platform}: excluded ({self.reason})"


@dataclass(frozen=True)
class GridCell:
    """One ``(spec, platform, rep)`` coordinate and its ready-to-run job."""

    spec_key: str
    platform: str
    rep_index: int
    job: RepJob


class LoweredGrid:
    """A plan lowered against a seed: the flat, inspectable job grid.

    Lowering is pure — building a grid derives streams and resolves
    exclusions but executes nothing, so ``repro-bench plan`` / ``run
    --dry-run`` can print it for free. :meth:`execute` dispatches every
    cell through one order-preserving mapper call and regroups results by
    ``(spec, platform)`` in repetition order.
    """

    def __init__(
        self,
        figure_id: str,
        seed: int,
        specs: Sequence[MeasurementSpec],
        cells: list[GridCell],
        exclusions: list[Exclusion],
    ) -> None:
        self.figure_id = figure_id
        self.seed = seed
        self.specs = list(specs)
        self.cells = cells
        self.exclusions = exclusions

    @property
    def width(self) -> int:
        """Total number of jobs in the grid."""
        return len(self.cells)

    def included_platforms(self, spec: MeasurementSpec) -> list[str]:
        """The spec's roster minus its exclusions, in declared order."""
        excluded = {e.platform for e in self.exclusions if e.spec_key == spec.key}
        return [name for name in spec.platforms if name not in excluded]

    def execute(self, mapper: Mapper = _serial_map) -> "GridOutcome":
        """Run every cell through one ``mapper`` dispatch and fold nothing.

        The scheduler passes the mapper its policy prescribes; the default
        is the in-process serial map. ``Executor.map``-style mappers
        preserve input order, and every cell's stream was pre-derived
        during lowering, so results are bit-identical across the
        serial/process/remote backends.
        """
        raw = list(mapper(run_rep_job, [cell.job for cell in self.cells])) \
            if self.cells else []
        results: dict[tuple[str, str], list[Any]] = {}
        platforms: dict[tuple[str, str], Platform] = {}
        for cell, value in zip(self.cells, raw):
            results.setdefault((cell.spec_key, cell.platform), []).append(value)
            platforms[(cell.spec_key, cell.platform)] = cell.job.platform
        return GridOutcome(self, results, platforms)

    def describe(
        self,
        *,
        backend: str = "serial",
        workers: int = 1,
        roster: Sequence[str] = (),
        fleet: str | None = None,
    ) -> str:
        """Human-readable grid summary for ``plan`` / ``--dry-run``.

        ``workers`` is the local pool width; for the remote backend the
        fleet ``roster``, or the ``fleet`` coordinator that resolves it at
        dispatch time, defines the parallelism instead, so it replaces
        the meaningless grid-jobs count in the header.
        """
        if roster:
            policy_note = f"backend={backend}, workers={', '.join(roster)}"
        elif fleet is not None:
            policy_note = f"backend={backend}, fleet={fleet}"
        else:
            policy_note = f"backend={backend}, grid-jobs={workers}"
        lines = [f"{self.figure_id}: {self.width} grid job(s) [{policy_note}]"]
        for spec in self.specs:
            included = self.included_platforms(spec)
            suffix = f" tag={spec.tag}" if spec.tag else ""
            lines.append(
                f"  {spec.key} [{spec.workload.name}]: "
                f"{len(included)} platform(s) x {spec.repetitions} rep(s) "
                f"= {len(included) * spec.repetitions} job(s){suffix}"
            )
            lines.append(f"    platforms: {', '.join(included) or '(none)'}")
        if self.exclusions:
            for exclusion in self.exclusions:
                lines.append(f"  excluded: {exclusion.note}")
        else:
            lines.append("  excluded: (none)")
        return "\n".join(lines)


class GridOutcome:
    """The executed grid: per-``(spec, platform)`` result lists."""

    def __init__(
        self,
        grid: LoweredGrid,
        results: dict[tuple[str, str], list[Any]],
        platforms: dict[tuple[str, str], Platform],
    ) -> None:
        self.grid = grid
        self._results = results
        self._platforms = platforms

    def runs(self, spec: MeasurementSpec, platform: str) -> list[Any]:
        """The platform's results for ``spec``, in repetition order."""
        return self._results[(spec.key, platform)]

    def items(self, spec: MeasurementSpec) -> Iterator[tuple[str, Platform, list[Any]]]:
        """Yield ``(platform_name, platform, per-rep results)`` for one
        spec, in declared platform order."""
        for name in self.grid.included_platforms(spec):
            yield name, self._platforms[(spec.key, name)], self.runs(spec, name)


@dataclass
class FigurePlan:
    """A figure's declaration: what to measure and how to fold it.

    A figure's builder (:mod:`repro.core.figures`) makes a plan with
    ``measure`` + ``fold_rows`` / ``fold_series`` / ``fold_with`` +
    ``note``; :meth:`run` lowers, executes and folds it, and everything
    about *where* the grid executes lives in the mapper handed to
    :meth:`LoweredGrid.execute` (the scheduler passes its policy's).
    ``scope`` names the RNG subtree and defaults to
    ``figure_id`` (Figure 6's huge-page variant keeps its historical
    distinct scope).
    """

    figure_id: str
    title: str
    unit: str
    scope: str = ""
    x_label: str = ""
    specs: list[MeasurementSpec] = field(default_factory=list)
    _folds: list[Fold] = field(default_factory=list)
    _notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.scope:
            self.scope = self.figure_id

    # --- declaration ---------------------------------------------------------------

    def measure(
        self,
        workload: Workload,
        platforms: Sequence[str],
        repetitions: int = 1,
        *,
        tag: str = "",
        split_reps: bool = True,
        guard_support: bool = False,
        key: str = "",
    ) -> MeasurementSpec:
        """Declare one measurement axis and return its spec handle."""
        spec = MeasurementSpec(
            key=key or f"m{len(self.specs)}",
            workload=workload,
            platforms=tuple(platforms),
            repetitions=repetitions,
            tag=tag,
            split_reps=split_reps,
            guard_support=guard_support,
        )
        if any(existing.key == spec.key for existing in self.specs):
            raise ConfigurationError(f"duplicate measurement key {spec.key!r}")
        self.specs.append(spec)
        return spec

    def note(self, text: str) -> None:
        """Append a static figure note (after any exclusion notes)."""
        self._notes.append(text)

    # --- folds ---------------------------------------------------------------------

    def fold_with(self, fold: Fold) -> None:
        """Register a custom fold step (runs in registration order)."""
        self._folds.append(fold)

    def fold_rows(
        self,
        spec: MeasurementSpec,
        metric: Callable[[Any], float],
        unit: str = "",
        extra: Callable[[list[Any], Summary], dict[str, float]] | None = None,
    ) -> None:
        """The common bar-figure fold: summarize ``metric`` per platform.

        ``extra`` may compute a row's auxiliary metrics from the raw runs
        and the already-computed summary (e.g. Figure 7's SSE2 columns).
        """
        row_unit = unit or self.unit

        def fold(result: FigureResult, outcome: GridOutcome) -> None:
            for name, platform, runs in outcome.items(spec):
                summary = summarize([float(metric(run)) for run in runs])
                result.rows.append(
                    ResultRow(
                        name,
                        platform.label,
                        summary,
                        row_unit,
                        extra=extra(runs, summary) if extra is not None else {},
                    )
                )

        self.fold_with(fold)

    def fold_series(
        self,
        spec: MeasurementSpec,
        points: Callable[[Any], Sequence[tuple[float, float]]],
        unit: str = "",
    ) -> None:
        """The common sweep fold: mean/std per x across repetitions.

        ``points`` maps one run to its ``(x, y)`` samples; x positions
        must agree across repetitions (they are grid parameters, not
        measurements).
        """
        series_unit = unit or self.unit

        def fold(result: FigureResult, outcome: GridOutcome) -> None:
            for name, platform, runs in outcome.items(spec):
                sampled = [list(points(run)) for run in runs]
                x_values = tuple(float(x) for x, _ in sampled[0])
                per_x = list(zip(*[[y for _, y in samples] for samples in sampled]))
                means = tuple(summarize(list(values)).mean for values in per_x)
                errs = tuple(summarize(list(values)).std for values in per_x)
                result.series.append(
                    SeriesRow(name, platform.label, x_values, means, errs,
                              unit=series_unit)
                )

        self.fold_with(fold)

    # --- lowering + execution ------------------------------------------------------

    def lower(self, seed: int) -> LoweredGrid:
        """Expand the plan into its flat ``(platform, rep)`` job grid.

        Every cell's stream descends from one ``RngStream(seed, scope)``
        root: split specs hand rep ``i`` the ``platform[/tag]/rep-i``
        child, whole-stream specs the bare ``platform[/tag]`` child. The
        path is keyed by the platform's own name, not the roster name
        (fig13's ``docker-oci`` is a platform named ``docker``). After
        the grid is built, every cell stream is seeded in one vectorized
        :func:`~repro.rng.materialize_streams` pass (a pure speed-up:
        seeding depends only on each stream's derived seed, never on
        batch order).
        """
        root = RngStream(seed, self.scope)
        cells: list[GridCell] = []
        exclusions: list[Exclusion] = []
        for spec in self.specs:
            for name in spec.platforms:
                platform = get_platform(name)
                if spec.guard_support:
                    try:
                        spec.workload.check_supported(platform)
                    except UnsupportedOperationError as exc:
                        exclusions.append(Exclusion(spec.key, name, str(exc)))
                        continue
                stream = root.child(
                    f"{platform.name}/{spec.tag}" if spec.tag else platform.name
                )
                streams = (
                    stream.children(f"rep-{index}" for index in range(spec.repetitions))
                    if spec.split_reps else [stream]
                )
                for index, cell_stream in enumerate(streams):
                    cells.append(
                        GridCell(spec.key, name, index,
                                 RepJob(spec.workload, platform, cell_stream,
                                        token=cell_token(spec.workload, name,
                                                         cell_stream)))
                    )
        materialize_streams([cell.job.stream for cell in cells])
        return LoweredGrid(self.figure_id, seed, self.specs, cells, exclusions)

    def assemble(self, outcome: GridOutcome) -> FigureResult:
        """Fold an executed grid into the final :class:`FigureResult`.

        Deterministic by construction: exclusion notes land first (in
        lowering order), folds run in registration order, static notes
        last — matching the historical imperative figures note-for-note.
        """
        result = FigureResult(
            figure_id=self.figure_id,
            title=self.title,
            unit=self.unit,
            x_label=self.x_label,
        )
        result.notes.extend(e.note for e in outcome.grid.exclusions)
        for fold in self._folds:
            fold(result, outcome)
        result.notes.extend(self._notes)
        return result

    def run(self, seed: int, mapper: Mapper = _serial_map) -> FigureResult:
        """Lower, execute through one ``mapper`` dispatch, and fold: the whole path."""
        return self.assemble(self.lower(seed).execute(mapper))
