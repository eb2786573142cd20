"""The user-facing benchmark suite.

:class:`BenchmarkSuite` is the library's front door: it runs individual
figure reproductions or the complete evaluation, renders reports, checks
the paper's findings, and archives everything as JSON.

Execution goes through the :class:`~repro.core.scheduler.ExperimentScheduler`
layer: results are read through an optional persistent
:class:`~repro.core.store.ResultStore` before any workload runs, and
each figure's lowered ``(platform, rep)`` grid can execute across one
shared worker pool (``grid_jobs=N``, see :mod:`repro.core.plan`) — with
bit-identical output to the serial default.

Example::

    from repro import BenchmarkSuite

    suite = BenchmarkSuite(seed=42, grid_jobs=2, cache_dir="results-cache")
    print(suite.run_figure("fig11").render())
    report = suite.findings_report()

A fleet of clients can share one store tier (``repro-bench store`` on
the server side; see :mod:`repro.core.storenet`)::

    shared = BenchmarkSuite(seed=42, store_url="cachehost:7078",
                            cache_dir="local-cache")
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.core.figures import FIGURES, figure
from repro.core.findings import FindingCheck, FindingsEvaluator
from repro.core.results import FigureResult
from repro.core.scheduler import (
    ExecutionPolicy,
    ExperimentScheduler,
    SchedulerReport,
)
from repro.core.store import ResultStore, StoreKey
from repro.core.storenet import RemoteStore, TieredStore
from repro.hardware.topology import paper_testbed

__all__ = ["BenchmarkSuite"]


class BenchmarkSuite:
    """Runs the paper's full evaluation against the simulated testbed."""

    def __init__(
        self,
        seed: int = 42,
        *,
        quick: bool = False,
        grid_jobs: int = 1,
        workers: tuple[str, ...] | list[str] = (),
        fleet_url: str | None = None,
        store_url: str | None = None,
        cache_dir: str | pathlib.Path | None = None,
        cache_max_bytes: int | None = None,
    ) -> None:
        self.seed = seed
        self.quick = quick
        self.machine = paper_testbed()
        self.policy = ExecutionPolicy(
            grid_jobs=grid_jobs,
            workers=tuple(workers),
            fleet_url=fleet_url,
            store_url=store_url,
        )
        store: ResultStore | TieredStore | None = (
            ResultStore(cache_dir, max_bytes=cache_max_bytes)
            if cache_dir is not None else None
        )
        if store_url is not None:
            # The shared tier sits behind the (optional) local LRU:
            # reads go local -> remote -> execute, writes back to both.
            store = TieredStore(store, RemoteStore(store_url))
        self.store = store
        self.scheduler = ExperimentScheduler(
            seed, quick=quick, policy=self.policy, store=self.store
        )
        # In-memory results, keyed by store digest so override variants
        # coexist with default runs instead of bypassing the cache.
        self._results: dict[str, FigureResult] = {}
        self._keys: dict[str, StoreKey] = {}
        # Digests of runs requested without caller overrides (archive naming).
        self._default_digests: set[str] = set()
        self._last_report: SchedulerReport | None = None

    # --- figure execution ---------------------------------------------------------

    def figure_ids(self) -> list[str]:
        """All reproducible figures/tables."""
        return list(FIGURES)

    def _key(self, figure_id: str, overrides: dict[str, Any]) -> StoreKey:
        # Delegate so in-memory keys match the scheduler/store addressing
        # (effective kwargs: quick defaults merged with overrides).
        return self.scheduler.key_for(figure_id, overrides)

    def _remember(
        self, key: StoreKey, result: FigureResult, *, default: bool
    ) -> FigureResult:
        self._results[key.digest] = result
        self._keys[key.digest] = key
        if default:
            self._default_digests.add(key.digest)
        return result

    def run_figure(self, figure_id: str, **overrides: Any) -> FigureResult:
        """Run (and cache) one figure reproduction.

        Results are keyed on ``(figure_id, seed, quick, overrides)`` — runs
        with overrides are cached too, under their own key, and a warm
        persistent store satisfies the call with zero workload executions.
        """
        figure(figure_id)  # an unknown id raises before any key is built
        key = self._key(figure_id, overrides)
        # "Default" is a property of the effective key, not the call
        # spelling: an explicit override equal to the quick defaults is the
        # default run and archives as <figure_id>.json.
        default = key.digest == self._key(figure_id, {}).digest
        cached = self._results.get(key.digest)
        if cached is not None:
            if default:
                self._default_digests.add(key.digest)
            return cached
        report = self.scheduler.run(
            [figure_id], overrides={figure_id: overrides} if overrides else None
        )
        self._last_report = report
        report.raise_for_errors()
        return self._remember(key, report.results[figure_id], default=default)

    def plan_figure(self, figure_id: str, **overrides: Any):
        """Lower one figure's plan without executing it (dry-run seam).

        Returns the :class:`~repro.core.plan.LoweredGrid` a
        :meth:`run_figure` call with the same overrides would dispatch —
        platforms × reps, exclusions, total width.
        """
        return self.scheduler.plan_for(figure_id, overrides or None)

    def run_all(self, figure_ids: list[str] | None = None) -> dict[str, FigureResult]:
        """Run every figure reproduction (or a subset) through the scheduler.

        Figures run one after another, each under the policy's grid
        mapper; summaries are bit-identical to the serial backend because
        every figure derives its own independent seed subtree.
        """
        selected = list(figure_ids) if figure_ids is not None else self.figure_ids()
        pending = [
            fid for fid in selected
            if self._key(fid, {}).digest not in self._results
        ]
        if pending:
            report = self.scheduler.run(pending)
            self._last_report = report
            report.raise_for_errors()
            for fid, result in report.results.items():
                self._remember(self._key(fid, {}), result, default=True)
        return {
            fid: self._results[self._key(fid, {}).digest] for fid in selected
        }

    @property
    def last_report(self) -> SchedulerReport | None:
        """Provenance of the most recent scheduler dispatch.

        In-memory cache hits return without dispatching, so this keeps
        describing the run that actually produced (or failed to produce)
        results — it is set even when that run raised, so per-job error
        records stay inspectable after ``raise_for_errors``.
        """
        return self._last_report

    # --- findings -------------------------------------------------------------------

    def check_findings(self) -> list[FindingCheck]:
        """Evaluate all 28 paper findings.

        The evaluator reads its figures through this suite, so anything in
        the in-memory or persistent store is reused instead of recomputed.
        """
        return FindingsEvaluator(self).evaluate()

    def findings_report(self) -> str:
        """Human-readable pass/fail report for the 28 findings."""
        checks = self.check_findings()
        passed = sum(1 for c in checks if c.passed)
        lines = [f"Findings reproduced: {passed}/{len(checks)}", ""]
        for check in checks:
            marker = "PASS" if check.passed else "FAIL"
            lines.append(f"[{marker}] Finding {check.finding_id:2d}: {check.statement}")
            lines.append(f"        {check.detail}")
        return "\n".join(lines)

    # --- reporting -------------------------------------------------------------------

    def describe(self) -> str:
        """Suite header: testbed, scope, and execution policy."""
        workers = (
            f"workers={','.join(self.policy.workers)} " if self.policy.workers else ""
        )
        fleet = (
            f"fleet={self.policy.fleet_url} "
            if self.policy.fleet_url is not None else ""
        )
        return (
            f"Isolation-platform benchmark suite (seed={self.seed})\n"
            f"Simulated testbed: {self.machine.describe()}\n"
            f"Execution: grid_backend={self.policy.grid_backend} "
            f"grid_jobs={self.policy.grid_jobs} "
            f"{workers}"
            f"{fleet}"
            f"store={self.store.describe() if self.store else 'none'}\n"
            f"Figures: {', '.join(FIGURES)}"
        )

    def save_results(self, directory: str | pathlib.Path) -> list[pathlib.Path]:
        """Archive all cached figure results as JSON files.

        Default runs land in ``<figure_id>.json``; override variants get a
        digest suffix so they never clobber each other. The manifest
        records per-figure provenance (backend, cache, wall time).
        """
        target = pathlib.Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        written: list[pathlib.Path] = []
        provenance: dict[str, Any] = {}
        for digest in sorted(
            self._results, key=lambda d: (self._keys[d].figure_id, d)
        ):
            key = self._keys[digest]
            result = self._results[digest]
            default = digest in self._default_digests
            name = key.figure_id if default else f"{key.figure_id}-{digest[:8]}"
            path = target / f"{name}.json"
            path.write_text(result.to_json())
            written.append(path)
            provenance[name] = result.provenance
        manifest = target / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "seed": self.seed,
                    "quick": self.quick,
                    "grid_backend": self.policy.grid_backend,
                    "grid_jobs": self.policy.grid_jobs,
                    "workers": list(self.policy.workers),
                    "fleet": self.policy.fleet_url,
                    "store": self.scheduler.store_address,
                    "machine": self.machine.describe(),
                    "figures": [p.name for p in written],
                    "provenance": provenance,
                    "experiments": {
                        key.figure_id: FIGURES[key.figure_id].paper_artifact
                        for key in self._keys.values()
                    },
                },
                indent=2,
            )
        )
        written.append(manifest)
        return written
