"""Tests for the experiment scheduler.

Covers job identity and provenance, determinism across seeds, cache
invalidation on seed/override change, record order over mixed store
hits and misses, and crash isolation when one job raises.
"""

import pytest

from repro.core.scheduler import (
    BACKEND_SERIAL,
    ExperimentScheduler,
    quick_overrides,
)
from repro.core.store import ResultStore
from repro.errors import ConfigurationError

#: Fast figures used throughout (quick mode keeps each under ~100 ms).
SUBSET = ["cpu-prime", "fig11", "fig12", "fig18"]


class TestJobs:
    def test_job_seed_derived_from_seed_tree(self):
        report = ExperimentScheduler(42, quick=True).run(["fig11", "fig12"])
        again = ExperimentScheduler(42, quick=True).run(["fig11"])
        other_seed = ExperimentScheduler(43, quick=True).run(["fig11"])
        job_seed = report.record_for("fig11").job_seed
        assert job_seed == again.record_for("fig11").job_seed
        assert job_seed != report.record_for("fig12").job_seed
        assert job_seed != other_seed.record_for("fig11").job_seed
        assert report.results["fig11"].provenance["job_seed"] == job_seed

    def test_quick_overrides_table(self):
        assert quick_overrides("fig13") == {"startups": 60}
        assert quick_overrides("fig18") == {}
        assert quick_overrides("fig11") == {"repetitions": 3}


class TestDeterminism:
    def test_different_seeds_differ(self):
        a = ExperimentScheduler(42, quick=True).run(["fig11"])
        b = ExperimentScheduler(43, quick=True).run(["fig11"])
        assert (
            a.results["fig11"].comparable_dict() != b.results["fig11"].comparable_dict()
        )

    def test_provenance_attached(self):
        report = ExperimentScheduler(42, quick=True).run(["fig11"])
        provenance = report.results["fig11"].provenance
        assert provenance["backend"] == BACKEND_SERIAL
        assert provenance["cache"] == "miss"
        assert provenance["seed"] == 42
        assert provenance["wall_time_s"] >= 0.0
        # Stored entries and --provenance lines read these keys, in order.
        assert list(provenance) == [
            "backend", "grid_backend", "grid_jobs", "grid_width", "workers",
            "chunk_size", "fleet", "dedupe", "cache", "store", "wall_time_s",
            "seed", "quick", "job_seed", "digest", "overrides",
        ]
        record = report.record_for("fig11").to_dict()
        for name in ("backend", "grid_backend", "grid_jobs", "grid_width",
                     "chunk_size", "cache", "job_seed", "digest"):
            assert provenance[name] == record[name], name


class TestStoreIntegration:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = ExperimentScheduler(42, quick=True, store=store).run(SUBSET)
        assert cold.executed == len(SUBSET)
        warm = ExperimentScheduler(42, quick=True, store=store).run(SUBSET)
        assert warm.executed == 0
        assert warm.cache_hits == len(SUBSET)
        for figure_id in SUBSET:
            assert (
                warm.results[figure_id].comparable_dict()
                == cold.results[figure_id].comparable_dict()
            )
            assert warm.record_for(figure_id).backend == "store"

    def test_seed_change_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        ExperimentScheduler(42, quick=True, store=store).run(["fig11"])
        other_seed = ExperimentScheduler(43, quick=True, store=store).run(["fig11"])
        assert other_seed.executed == 1 and other_seed.cache_hits == 0

    def test_quick_and_explicit_kwargs_share_entries(self, tmp_path):
        # `run --quick --cache D` then `findings --cache D` must reuse the
        # same entries: keys are built from effective kwargs, so a quick
        # default and the equivalent explicit override hash identically.
        store = ResultStore(tmp_path)
        quick = ExperimentScheduler(42, quick=True, store=store)
        quick.run(["fig13"])  # quick default: startups=60
        explicit = ExperimentScheduler(42, quick=False, store=store)
        warm = explicit.run(["fig13"], overrides={"fig13": {"startups": 60}})
        assert warm.executed == 0 and warm.cache_hits == 1

    def test_mixed_hits_and_misses_keep_selection_order(self, tmp_path):
        store = ResultStore(tmp_path)
        ExperimentScheduler(42, quick=True, store=store).run(["fig12"])
        report = ExperimentScheduler(42, quick=True, store=store).run(
            ["fig11", "fig12", "fig18"]
        )
        assert [r.figure_id for r in report.records] == ["fig11", "fig12", "fig18"]
        assert [r.cache for r in report.records] == ["miss", "hit-local", "miss"]
        assert list(report.results) == ["fig11", "fig12", "fig18"]

    def test_override_change_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = ExperimentScheduler(42, quick=True, store=store)
        scheduler.run(["fig11"])
        overridden = scheduler.run(["fig11"], overrides={"fig11": {"repetitions": 2}})
        assert overridden.executed == 1 and overridden.cache_hits == 0
        # ... and the override variant is itself cached under its own key.
        again = scheduler.run(["fig11"], overrides={"fig11": {"repetitions": 2}})
        assert again.executed == 0 and again.cache_hits == 1


class TestCrashIsolation:
    def test_serial_failure_does_not_stop_batch(self):
        scheduler = ExperimentScheduler(42, quick=True)
        report = scheduler.run(
            ["fig11", "fig12"], overrides={"fig11": {"bogus_kwarg": 1}}
        )
        assert "fig11" in report.errors
        assert "TypeError" in report.errors["fig11"]
        assert "fig12" in report.results
        with pytest.raises(ConfigurationError, match="fig11"):
            report.raise_for_errors()

    def test_unknown_figure_rejected_up_front(self):
        with pytest.raises(ConfigurationError, match="fig99"):
            ExperimentScheduler(42).run(["fig99"])
