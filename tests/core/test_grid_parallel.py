"""Tests for grid-level parallelism (the unified (platform × rep) pool).

Covers the picklable RepJob worker (a closure-based dispatch would break
every process-pool mapper), the serial/process grid mappers, their
order preservation and their recovery after a pool worker dies, the
``execution_context`` plumbing from
ExecutionPolicy down to the plan layer, mapper lifetime under mid-grid
failures, and serial-vs-grid-pool bit-identity at every layer (lowered
grid, scheduler, suite).
"""

import os
import pickle
import time

import pytest

from repro.core.figures import lower_figure
from repro.core.runner import (
    GRID_BACKENDS,
    PoolMapper,
    RepJob,
    active_grid_mapper,
    execution_context,
    grid_mapper,
    run_rep_job,
)
from repro.core.scheduler import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    ExecutionPolicy,
    ExperimentScheduler,
)
from repro.core.store import ResultStore
from repro.core.suite import BenchmarkSuite
from repro.errors import ConfigurationError
from repro.platforms import get_platform
from repro.rng import RngStream
from repro.workloads.iperf import IperfWorkload

#: Representative figure subset: bar figures, a series figure, and the
#: deterministic HAP table — all fast in quick mode.
SUBSET = ["cpu-prime", "fig06", "fig11", "fig12", "fig18"]


def _sleepy_identity(item):
    """Completes out of submission order: earlier items sleep longer.

    Module-level so the process mapper can pickle it.
    """
    index, total = item
    time.sleep(0.02 * (total - index))
    return index


def _exit_on_three(value):
    """Kills its pool worker on item 3 (module-level, so it pickles)."""
    if value == 3:
        os._exit(1)
    return value + 1


def _grid_values(mapper=None) -> list:
    """Quick fig11's lowered grid (10 platforms x 3 reps), executed through
    ``mapper`` (None = the ambient one), flattened in declared order."""
    grid = lower_figure("fig11", 42, repetitions=3)
    outcome = grid.execute(mapper)
    return [
        value
        for spec in grid.specs
        for platform in grid.included_platforms(spec)
        for value in outcome.runs(spec, platform)
    ]


class TestRepJobPickling:
    """Regression: a closure-based dispatch would break pool mappers."""

    def test_rep_job_round_trips_through_pickle(self):
        platform = get_platform("docker")
        stream = RngStream(42, "fig11").child("docker").child("rep-1")
        job = RepJob(IperfWorkload(), platform, stream)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.stream.path == job.stream.path
        assert clone.stream.seed == job.stream.seed
        # The round-tripped job reproduces the exact same draw.
        assert clone.run().throughput_gbit_per_s == job.run().throughput_gbit_per_s

    def test_worker_function_round_trips_through_pickle(self):
        # Pool executors pickle the callable by reference; a module-level
        # function survives, a closure would not.
        assert pickle.loads(pickle.dumps(run_rep_job)) is run_rep_job

    def test_process_mapper_through_runner(self):
        # The runner's job entry point crosses the pool boundary by
        # reference and reproduces every serial draw.
        serial = _grid_values()
        with grid_mapper("process", 2) as mapper:
            assert _grid_values(mapper) == serial


class TestGridMappers:
    def test_serial_backend_and_width_one_collapse(self):
        assert grid_mapper("serial", 8)(lambda x: x + 1, [1, 2]) == [2, 3]
        assert not isinstance(grid_mapper("process", 1), PoolMapper)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="grid backend"):
            grid_mapper("gpu", 2)
        with pytest.raises(ConfigurationError, match="grid backend"):
            grid_mapper("thread", 2)

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            grid_mapper("process", 0)

    @pytest.mark.parametrize("backend", ["process"])
    def test_order_preserved_under_out_of_order_completion(self, backend):
        total = 4
        items = [(index, total) for index in range(total)]
        with grid_mapper(backend, total) as mapper:
            assert mapper(_sleepy_identity, items) == list(range(total))

    def test_pool_is_reused_across_batches(self):
        mapper = grid_mapper("process", 2)
        try:
            mapper(_sleepy_identity, [(0, 2), (1, 2)])
            first = mapper._executor
            assert first is not None
            mapper(_sleepy_identity, [(0, 2), (1, 2)])
            assert mapper._executor is first
        finally:
            mapper.close()
        assert mapper._executor is None

    def test_dead_worker_does_not_break_the_mapper_for_good(self):
        from concurrent.futures.process import BrokenProcessPool

        with grid_mapper("process", 2, chunk_size=1) as mapper:
            with pytest.raises(BrokenProcessPool):
                mapper(_exit_on_three, range(6))
            # The next call forks a fresh pool instead of reusing the
            # broken one.
            assert mapper(_plus_one, range(6)) == [1, 2, 3, 4, 5, 6]

    def test_single_item_skips_the_pool(self):
        mapper = grid_mapper("process", 4)
        try:
            assert mapper(_sleepy_identity, [(0, 1)]) == [0]
            assert mapper._executor is None  # never forked a worker
        finally:
            mapper.close()


class TestExecutionContext:
    def test_runner_picks_up_ambient_mapper(self):
        seen = []

        def recording_map(fn, items):
            items = list(items)
            seen.append(len(items))
            return [fn(item) for item in items]

        with execution_context(recording_map):
            _grid_values()
        assert seen == [30]  # the whole grid, in one dispatch

    def test_context_resets_on_exit(self):
        assert active_grid_mapper() is None
        with execution_context(lambda fn, items: [fn(i) for i in items]):
            assert active_grid_mapper() is not None
        assert active_grid_mapper() is None

    def test_explicit_mapper_wins_over_context(self):
        explicit, ambient = [], []

        def explicit_map(fn, items):
            explicit.append(True)
            return [fn(item) for item in items]

        def ambient_map(fn, items):
            ambient.append(True)
            return [fn(item) for item in items]

        with execution_context(ambient_map):
            _grid_values(explicit_map)
        assert explicit and not ambient

    def test_rep_streams_order_is_by_index(self):
        def docker_streams():
            grid = lower_figure("fig11", 42, repetitions=4)
            return [c.job.stream for c in grid.cells if c.platform == "docker"]

        streams = docker_streams()
        assert [s.path.rsplit("/", 1)[-1] for s in streams] == [
            "rep-0", "rep-1", "rep-2", "rep-3"
        ]
        # Reordered dispatch cannot change what each rep draws: streams are
        # pre-derived from the index, not from execution order.
        assert [s.seed for s in streams] == [s.seed for s in docker_streams()]


class TestPolicyGridDimension:
    def test_defaults_stay_serial(self):
        policy = ExecutionPolicy()
        assert policy.grid_jobs == 1
        assert policy.resolved_grid_backend == BACKEND_SERIAL
        assert not isinstance(policy.mapper(), PoolMapper)

    def test_grid_jobs_opt_into_pool(self):
        policy = ExecutionPolicy(grid_jobs=3)
        assert policy.resolved_grid_backend == BACKEND_PROCESS
        mapper = policy.mapper()
        assert isinstance(mapper, PoolMapper)
        assert mapper.jobs == 3

    def test_explicit_grid_backend_wins(self):
        # One slot auto-selects serial; naming the pool overrides that.
        policy = ExecutionPolicy(grid_jobs=1, grid_backend=BACKEND_PROCESS)
        assert policy.resolved_grid_backend == BACKEND_PROCESS

    def test_invalid_grid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(grid_jobs=0)
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(grid_backend="gpu")
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(grid_backend="thread")

    def test_serial_classmethod_pins_both_levels(self):
        policy = ExecutionPolicy.serial()
        assert policy.grid_backend == BACKEND_SERIAL
        assert policy.resolved_grid_backend == BACKEND_SERIAL
        assert not isinstance(policy.mapper(), PoolMapper)

    def test_grid_backends_constant_matches_scheduler_names(self):
        from repro.core.scheduler import BACKEND_REMOTE

        assert set(GRID_BACKENDS) == {BACKEND_SERIAL, BACKEND_PROCESS, BACKEND_REMOTE}


class TestMapperLifetime:
    """The scheduler's per-figure step owns the grid pool, even on failure."""

    @pytest.fixture
    def tracked_pools(self, monkeypatch):
        from repro.core import scheduler as scheduler_module

        created = []
        real_grid_mapper = scheduler_module.grid_mapper

        def tracking_grid_mapper(
            backend, jobs, workers=None, chunk_size=None,
            fleet_url=None, store_url=None,
        ):
            mapper = real_grid_mapper(
                backend, jobs, workers=workers, chunk_size=chunk_size,
                fleet_url=fleet_url, store_url=store_url,
            )
            if isinstance(mapper, PoolMapper):
                created.append(mapper)
            return mapper

        monkeypatch.setattr(scheduler_module, "grid_mapper", tracking_grid_mapper)
        return created

    def test_raising_figure_still_closes_the_pool(self, tracked_pools):
        policy = ExecutionPolicy(grid_jobs=2, grid_backend=BACKEND_PROCESS)
        report = ExperimentScheduler(42, quick=True, policy=policy).run(
            ["fig11"], overrides={"fig11": {"bogus_kwarg": 1}}
        )
        assert "fig11" in report.errors  # the figure raised mid-job
        assert len(tracked_pools) == 1
        assert tracked_pools[0]._executor is None  # ExitStack released the pool

    def test_successful_job_closes_the_pool_too(self, tracked_pools):
        policy = ExecutionPolicy(grid_jobs=2, grid_backend=BACKEND_PROCESS)
        report = ExperimentScheduler(42, quick=True, policy=policy).run(["fig11"])
        assert not report.errors
        assert len(tracked_pools) == 1
        assert tracked_pools[0]._executor is None


class TestGridLevelDeterminism:
    """Every grid backend (including remote-loopback) is bit-identical.

    Parametrized over the shared ``grid_backend`` fixture rather than
    per-backend test copies.
    """

    @pytest.fixture(scope="class")
    def serial_report(self):
        return ExperimentScheduler(42, quick=True).run(SUBSET)

    def test_grid_backends_bit_identical_to_serial(self, serial_report, grid_backend):
        report = ExperimentScheduler(
            42, quick=True, policy=grid_backend.policy()
        ).run(SUBSET)
        for figure_id in SUBSET:
            assert (
                report.results[figure_id].comparable_dict()
                == serial_report.results[figure_id].comparable_dict()
            ), figure_id

    def test_grid_backend_recorded_in_provenance(self):
        policy = ExecutionPolicy(grid_jobs=2, grid_backend=BACKEND_PROCESS)
        report = ExperimentScheduler(42, quick=True, policy=policy).run(["fig11"])
        provenance = report.results["fig11"].provenance
        assert provenance["grid_backend"] == BACKEND_PROCESS
        assert provenance["grid_jobs"] == 2
        # Quick fig11 lowers to 10 platforms x 3 reps, all in one dispatch.
        assert provenance["grid_width"] == 30
        record = report.records[0]
        assert record.grid_backend == BACKEND_PROCESS
        assert record.grid_jobs == 2
        assert record.grid_width == 30
        assert record.to_dict()["grid_backend"] == BACKEND_PROCESS
        assert record.to_dict()["grid_width"] == 30

    def test_cache_hits_have_no_grid_backend(self, tmp_path):
        store = ResultStore(tmp_path)
        policy = ExecutionPolicy(grid_jobs=2, grid_backend=BACKEND_PROCESS)
        ExperimentScheduler(42, quick=True, policy=policy, store=store).run(["fig11"])
        warm = ExperimentScheduler(42, quick=True, policy=policy, store=store).run(
            ["fig11"]
        )
        record = warm.records[0]
        assert record.cache_hit
        assert record.grid_backend is None
        assert record.grid_width is None
        # ... and a store hit is bit-identical to a grid-parallel execution.
        cold = ExperimentScheduler(42, quick=True).run(["fig11"])
        assert (
            warm.results["fig11"].comparable_dict()
            == cold.results["fig11"].comparable_dict()
        )

    def test_suite_grid_jobs_bit_identical(self):
        serial = BenchmarkSuite(seed=42, quick=True).run_figure("fig12")
        parallel = BenchmarkSuite(seed=42, quick=True, grid_jobs=2).run_figure("fig12")
        assert parallel.comparable_dict() == serial.comparable_dict()
        assert parallel.provenance["grid_backend"] == BACKEND_PROCESS

    def test_suite_describe_shows_grid_policy(self):
        suite = BenchmarkSuite(seed=42, grid_jobs=2)
        assert "grid_backend=process" in suite.describe()
        assert "grid_jobs=2" in suite.describe()

    def test_suite_manifest_records_grid_policy(self, tmp_path):
        suite = BenchmarkSuite(seed=42, quick=True, grid_jobs=2)
        suite.run_figure("fig11")
        suite.save_results(tmp_path)
        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["grid_backend"] == BACKEND_PROCESS
        assert manifest["grid_jobs"] == 2


def _plus_one(value):
    """Module-level so the process mapper can pickle it."""
    return value + 1


class TestChunkedGridPolicy:
    """chunk_size as deployment policy: mapper, scheduler, provenance."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 30, 45])
    def test_pool_mapper_bit_identical_across_chunk_sizes(self, chunk_size):
        # Non-dividing, unit, exact-width, and wider-than-grid sizes all
        # flatten back to the serial result order.
        items = list(range(30))
        with grid_mapper("process", 2, chunk_size=chunk_size) as mapper:
            assert mapper(_plus_one, items) == [item + 1 for item in items]
            assert mapper.last_chunk_size == chunk_size

    def test_process_mapper_chunked_matches_serial(self):
        with grid_mapper("process", 2, chunk_size=7) as mapper:
            assert mapper(_plus_one, list(range(30))) == list(range(1, 31))
            assert mapper.last_chunk_size == 7

    def test_chunked_order_preserved_under_out_of_order_completion(self):
        total = 6
        items = [(index, total) for index in range(total)]
        with grid_mapper("process", 3, chunk_size=2) as mapper:
            assert mapper(_sleepy_identity, items) == list(range(total))

    def test_auto_chunk_size_recorded_after_dispatch(self):
        with grid_mapper("process", 2) as mapper:
            mapper(_plus_one, list(range(30)))
            assert mapper.last_chunk_size == 4  # ceil(30 / (4 * 2))

    def test_serial_backend_ignores_chunk_size(self):
        mapper = grid_mapper("serial", 1, chunk_size=5)
        assert mapper(_plus_one, [1, 2]) == [2, 3]

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            grid_mapper("process", 2, chunk_size=0)
        with pytest.raises(ConfigurationError, match="chunk_size must be >= 1"):
            ExecutionPolicy(chunk_size=0)

    def test_policy_threads_chunk_size_to_the_mapper(self):
        policy = ExecutionPolicy(grid_jobs=2, chunk_size=5)
        mapper = policy.mapper()
        assert isinstance(mapper, PoolMapper)
        assert mapper.chunk_size == 5


class TestChunkedSchedulerProvenance:
    def test_explicit_chunk_size_recorded(self):
        policy = ExecutionPolicy(
            grid_jobs=2, grid_backend=BACKEND_PROCESS, chunk_size=4
        )
        report = ExperimentScheduler(42, quick=True, policy=policy).run(["fig11"])
        assert report.results["fig11"].provenance["chunk_size"] == 4
        record = report.records[0]
        assert record.chunk_size == 4
        assert record.to_dict()["chunk_size"] == 4

    def test_auto_resolution_is_what_gets_recorded(self):
        # The knob was unset; provenance records the slab size that
        # actually ran: ceil(30 / (4 * 2)) = 4.
        policy = ExecutionPolicy(grid_jobs=2, grid_backend=BACKEND_PROCESS)
        report = ExperimentScheduler(42, quick=True, policy=policy).run(["fig11"])
        assert report.results["fig11"].provenance["chunk_size"] == 4
        assert report.records[0].chunk_size == 4

    def test_serial_run_records_no_chunk_size(self):
        report = ExperimentScheduler(42, quick=True).run(["fig11"])
        assert report.results["fig11"].provenance["chunk_size"] is None
        assert report.records[0].chunk_size is None

    def test_chunked_backends_bit_identical_to_serial(self, grid_backend):
        serial = ExperimentScheduler(42, quick=True).run(["fig11"])
        report = ExperimentScheduler(
            42, quick=True, policy=grid_backend.policy(chunk_size=7)
        ).run(["fig11"])
        assert (
            report.results["fig11"].comparable_dict()
            == serial.results["fig11"].comparable_dict()
        )

    def test_suite_chunk_size_bit_identical_and_recorded(self, tmp_path):
        serial = BenchmarkSuite(seed=42, quick=True).run_figure("fig12")
        suite = BenchmarkSuite(seed=42, quick=True, grid_jobs=2, chunk_size=3)
        assert suite.run_figure("fig12").comparable_dict() == serial.comparable_dict()
        assert "chunk_size=3" in suite.describe()
        suite.save_results(tmp_path)
        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["chunk_size"] == 3
