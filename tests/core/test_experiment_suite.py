"""Tests for the experiment registry, findings checker, and suite facade."""

import json

import pytest

from repro.core.experiment import EXPERIMENTS, get_experiment
from repro.core.findings import FindingsEvaluator
from repro.core.suite import BenchmarkSuite
from repro.errors import ConfigurationError


class TestExperimentRegistry:
    def test_all_figures_covered(self):
        expected = {f"fig{n:02d}" for n in range(5, 19)} | {"cpu-prime"}
        assert set(EXPERIMENTS) == expected

    def test_every_experiment_names_bench_target(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.bench_target.startswith("benchmarks/")
            assert experiment.modules
            assert experiment.paper_observation

    def test_lookup(self):
        assert get_experiment("fig11").workload.startswith("iperf3")
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_startup_experiments_use_300_reps(self):
        for figure_id in ("fig13", "fig14", "fig15"):
            assert get_experiment(figure_id).repetitions == 300


class TestFindings:
    @pytest.fixture(scope="class")
    def checks(self):
        return FindingsEvaluator(seed=42, quick=True).evaluate()

    def test_all_28_findings_evaluated(self, checks):
        assert [c.finding_id for c in checks] == list(range(1, 29))

    def test_all_findings_reproduce(self, checks):
        failed = [c for c in checks if not c.passed]
        assert not failed, "\n".join(f"F{c.finding_id}: {c.detail}" for c in failed)

    def test_details_are_informative(self, checks):
        for check in checks:
            assert check.detail
            assert check.statement


class TestSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return BenchmarkSuite(seed=42, quick=True)

    def test_describe_mentions_testbed(self, suite):
        assert "EPYC" in suite.describe()

    def test_figure_ids_complete(self, suite):
        assert "fig05" in suite.figure_ids()
        assert "fig18" in suite.figure_ids()

    def test_run_figure_caches(self, suite):
        first = suite.run_figure("fig11")
        second = suite.run_figure("fig11")
        assert first is second

    def test_unknown_figure_rejected(self, suite):
        with pytest.raises(ConfigurationError):
            suite.run_figure("fig99")

    def test_override_bypasses_cache(self, suite):
        default = suite.run_figure("fig12")
        overridden = suite.run_figure("fig12", repetitions=2)
        assert default is not overridden

    def test_override_runs_are_cached_under_their_own_key(self, suite):
        first = suite.run_figure("fig12", repetitions=2)
        second = suite.run_figure("fig12", repetitions=2)
        assert first is second
        assert suite.run_figure("fig12", repetitions=4) is not first

    def test_save_results_writes_json(self, suite, tmp_path):
        suite.run_figure("fig11")
        written = suite.save_results(tmp_path)
        names = {p.name for p in written}
        assert "fig11.json" in names
        assert "manifest.json" in names
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 42
        payload = json.loads((tmp_path / "fig11.json").read_text())
        assert payload["figure_id"] == "fig11"

    def test_experiment_index_lists_targets(self, suite):
        index = suite.experiment_index()
        assert "fig18" in index
        assert "benchmarks/" in index

    def test_describe_mentions_execution_policy(self, suite):
        assert "backend=serial" in suite.describe()


class TestSuiteExecutionLayer:
    """The suite's scheduler/store integration."""

    SUBSET = ["cpu-prime", "fig11", "fig18"]

    def test_run_all_process_pool_matches_serial(self):
        serial = BenchmarkSuite(seed=42, quick=True).run_all(self.SUBSET)
        parallel = BenchmarkSuite(seed=42, quick=True, grid_jobs=2).run_all(self.SUBSET)
        for figure_id in self.SUBSET:
            assert (
                serial[figure_id].comparable_dict()
                == parallel[figure_id].comparable_dict()
            ), figure_id

    def test_warm_persistent_store_executes_nothing(self, tmp_path):
        cold = BenchmarkSuite(seed=42, quick=True, cache_dir=tmp_path)
        cold.run_all(self.SUBSET)
        assert cold.last_report.executed == len(self.SUBSET)

        warm = BenchmarkSuite(seed=42, quick=True, cache_dir=tmp_path)
        results = warm.run_all(self.SUBSET)
        assert warm.last_report.executed == 0
        assert warm.last_report.cache_hits == len(self.SUBSET)
        for figure_id in self.SUBSET:
            assert results[figure_id].provenance["cache"] == "hit-local"

    def test_store_keys_respect_seed_and_quick(self, tmp_path):
        BenchmarkSuite(seed=42, quick=True, cache_dir=tmp_path).run_figure("fig11")
        other = BenchmarkSuite(seed=7, quick=True, cache_dir=tmp_path)
        other.run_figure("fig11")
        assert other.last_report.executed == 1  # different seed: no reuse

    def test_run_all_partial_then_full_reuses_memory(self):
        suite = BenchmarkSuite(seed=42, quick=True)
        first = suite.run_all(["fig11"])
        both = suite.run_all(["fig11", "fig12"])
        assert both["fig11"] is first["fig11"]

    def test_explicit_quick_kwargs_archive_as_default(self, tmp_path):
        # An override spelling out the quick defaults IS the default run:
        # it must land in fig12.json, even when run_all sees it cached.
        suite = BenchmarkSuite(seed=42, quick=True)
        suite.run_figure("fig12", repetitions=3)  # == quick default
        suite.run_all(["fig12"])
        names = {p.name for p in suite.save_results(tmp_path)}
        assert "fig12.json" in names
        assert not [n for n in names if n.startswith("fig12-")]

    def test_last_report_survives_job_failure(self):
        suite = BenchmarkSuite(seed=42, quick=True)
        with pytest.raises(ConfigurationError):
            suite.run_figure("fig12", bogus_kwarg=1)
        assert suite.last_report is not None
        assert "fig12" in suite.last_report.errors

    def test_save_results_records_provenance(self, tmp_path):
        suite = BenchmarkSuite(seed=42, quick=True)
        suite.run_figure("fig11")
        suite.run_figure("fig11", repetitions=2)
        written = {p.name for p in suite.save_results(tmp_path)}
        assert "fig11.json" in written
        variants = [n for n in written if n.startswith("fig11-")]
        assert len(variants) == 1  # override run saved under digest suffix
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["grid_backend"] == "serial"
        assert "backend" not in manifest and "jobs" not in manifest
        assert manifest["provenance"]["fig11"]["backend"] == "serial"
        assert manifest["provenance"]["fig11"]["cache"] == "miss"

    def test_findings_share_figures_through_suite(self):
        suite = BenchmarkSuite(seed=42, quick=True)
        checks = suite.check_findings()
        assert len(checks) == 28
        # The evaluator routed its figures through the suite cache.
        assert len(suite._results) >= 13


class TestRegistryConsistency:
    """The experiment registry, figure registry, and bench files must agree."""

    def test_every_experiment_has_a_figure_function(self):
        from repro.core.figures import FIGURES

        assert set(EXPERIMENTS) == set(FIGURES)

    def test_every_bench_target_exists_on_disk(self):
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        for experiment in EXPERIMENTS.values():
            assert (repo_root / experiment.bench_target).exists(), experiment.bench_target

    def test_every_module_reference_imports(self):
        import importlib

        for experiment in EXPERIMENTS.values():
            for module_name in experiment.modules:
                importlib.import_module(module_name)
