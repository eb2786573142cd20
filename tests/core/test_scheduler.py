"""Tests for the experiment scheduler.

Covers job identity and provenance, determinism across seeds, cache
invalidation on seed/override change, record order over mixed store
hits and misses, and crash isolation when one job raises.
"""

import pytest

from repro.core.scheduler import BACKEND_SERIAL, ExperimentScheduler
from repro.core.store import ResultStore
from repro.errors import ConfigurationError
from repro.rng import derive_seed

#: Fast figures used throughout (quick mode keeps each under ~100 ms).
SUBSET = ["cpu-prime", "fig11", "fig12", "fig18"]


class TestJobs:
    def test_job_seed_derived_from_seed_tree(self):
        report = ExperimentScheduler(42, quick=True).run(["fig11", "fig12"])
        again = ExperimentScheduler(42, quick=True).run(["fig11"])
        other_seed = ExperimentScheduler(43, quick=True).run(["fig11"])
        fig11, fig12 = report.records
        job_seed = fig11.job_seed
        assert job_seed == derive_seed(42, "job/fig11")
        assert job_seed == again.records[0].job_seed
        assert job_seed != fig12.job_seed
        assert job_seed != other_seed.records[0].job_seed
        assert report.results["fig11"].provenance["job_seed"] == job_seed

    def test_quick_overrides_table(self):
        quick = ExperimentScheduler(42, quick=True)
        assert quick.effective_kwargs("fig13", None) == {"startups": 60}
        assert quick.effective_kwargs("fig18", None) == {}
        assert quick.effective_kwargs("fig11", None) == {"repetitions": 3}
        # Caller overrides win, and full mode adds nothing.
        assert quick.effective_kwargs("fig11", {"repetitions": 5}) == {"repetitions": 5}
        assert ExperimentScheduler(42).effective_kwargs("fig11", None) == {}


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
        record = report.records[0]
        for name in ("backend", "grid_backend", "grid_jobs", "grid_width",
                     "chunk_size", "cache", "job_seed", "digest"):
            assert provenance[name] == getattr(record, name), name


class TestStoreIntegration:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = ExperimentScheduler(42, quick=True, store=store).run(SUBSET)
        assert cold.executed == len(SUBSET)
        warm = ExperimentScheduler(42, quick=True, store=store).run(SUBSET)
        assert warm.executed == 0
        assert [r.cache_hit for r in warm.records] == [True] * len(SUBSET)
        assert [r.backend for r in warm.records] == ["store"] * len(SUBSET)
        for figure_id in SUBSET:
            assert (
                warm.results[figure_id].comparable_dict()
                == cold.results[figure_id].comparable_dict()
            )

    def test_seed_change_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        ExperimentScheduler(42, quick=True, store=store).run(["fig11"])
        other_seed = ExperimentScheduler(43, quick=True, store=store).run(["fig11"])
        assert other_seed.executed == 1 and not other_seed.records[0].cache_hit

    def test_quick_and_explicit_kwargs_share_entries(self, tmp_path):
        # `run --quick --cache D` then `findings --cache D` must reuse the
        # same entries: keys are built from effective kwargs, so a quick
        # default and the equivalent explicit override hash identically.
        store = ResultStore(tmp_path)
        quick = ExperimentScheduler(42, quick=True, store=store)
        quick.run(["fig13"])  # quick default: startups=60
        explicit = ExperimentScheduler(42, quick=False, store=store)
        warm = explicit.run(["fig13"], overrides={"fig13": {"startups": 60}})
        assert warm.executed == 0 and warm.records[0].cache_hit

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
        assert overridden.executed == 1 and not overridden.records[0].cache_hit
        # ... and the override variant is itself cached under its own key.
        again = scheduler.run(["fig11"], overrides={"fig11": {"repetitions": 2}})
        assert again.executed == 0 and again.records[0].cache_hit


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
        # The registry's one diagnosis, raised before fig11 runs.
        with pytest.raises(ConfigurationError, match="^unknown figure 'fig99'; known: fig05, "):
            ExperimentScheduler(42).run(["fig11", "fig99"])
