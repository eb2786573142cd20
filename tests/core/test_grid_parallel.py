"""Tests for grid-level parallelism (the unified (platform × rep) pool).

Covers the picklable RepJob worker (a closure-based dispatch would break
every process-pool mapper), the serial/process grid mappers, their
order preservation and their recovery after a pool worker dies, the
mapper a lowered grid is executed with (one dispatch per grid), mapper
lifetime under mid-grid failures, and serial-vs-grid-pool bit-identity
at every layer (lowered grid, scheduler, suite).
"""

import dataclasses
import os
import pickle
import time

import pytest

from repro.core.figures import lower_figure
from repro.core.runner import PoolMapper, RepJob, _serial_map, run_rep_job
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


def _grid_values(mapper=_serial_map) -> list:
    """Quick fig11's lowered grid (10 platforms x 3 reps), executed through
    ``mapper``, flattened in declared order."""
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
        with PoolMapper(2) as mapper:
            assert _grid_values(mapper) == serial


class TestGridMappers:
    def test_serial_backend_and_width_one_collapse(self):
        # One slot derives the serial backend: the one in-process map.
        mapper = ExecutionPolicy(grid_jobs=1).mapper()
        assert mapper is ExecutionPolicy.serial().mapper()
        assert mapper(_plus_one, [1, 2]) == [2, 3]

    def test_invalid_width_rejected(self):
        for grid_jobs in (0, -2):
            with pytest.raises(ConfigurationError, match=">= 1"):
                ExecutionPolicy(grid_jobs=grid_jobs)

    @pytest.mark.parametrize("backend", ["process"])
    def test_order_preserved_under_out_of_order_completion(self, backend):
        total = 4
        items = [(index, total) for index in range(total)]
        policy = ExecutionPolicy(grid_jobs=total)
        assert policy.grid_backend == backend
        with policy.mapper() as mapper:
            assert mapper(_sleepy_identity, items) == list(range(total))

    def test_pool_is_reused_across_batches(self):
        mapper = PoolMapper(2)
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

        with PoolMapper(2) as mapper:
            with pytest.raises(BrokenProcessPool):
                mapper(_exit_on_three, range(6))
            # The next call forks a fresh pool instead of reusing the
            # broken one.
            assert mapper(_plus_one, range(6)) == [1, 2, 3, 4, 5, 6]

    def test_single_item_skips_the_pool(self):
        mapper = PoolMapper(4)
        try:
            assert mapper(_sleepy_identity, [(0, 1)]) == [0]
            assert mapper._executor is None  # never forked a worker
        finally:
            mapper.close()


class TestExecutionContext:
    def test_runner_picks_up_ambient_mapper(self):
        # The grid runs through the mapper it is handed, in one dispatch.
        seen = []

        def recording_map(fn, items):
            items = list(items)
            seen.append(len(items))
            return [fn(item) for item in items]

        assert _grid_values(recording_map) == _grid_values()
        assert seen == [30]  # the whole grid, in one dispatch

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
        assert policy.grid_backend == BACKEND_SERIAL
        assert not isinstance(policy.mapper(), PoolMapper)

    def test_grid_jobs_opt_into_pool(self):
        policy = ExecutionPolicy(grid_jobs=3)
        assert policy.grid_backend == BACKEND_PROCESS
        mapper = policy.mapper()
        assert isinstance(mapper, PoolMapper)
        assert mapper.jobs == 3

    def test_invalid_grid_policy_rejected(self):
        # Four deployment settings; the backend and the slab size are
        # derived, so neither can be set.
        assert [f.name for f in dataclasses.fields(ExecutionPolicy)] == [
            "grid_jobs", "workers", "fleet_url", "store_url",
        ]
        for knob in ({"grid_backend": BACKEND_PROCESS}, {"chunk_size": 4}):
            with pytest.raises(TypeError):
                ExecutionPolicy(**knob)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPolicy().grid_jobs = 2

    def test_serial_classmethod_pins_both_levels(self):
        policy = ExecutionPolicy.serial()
        assert policy == ExecutionPolicy()
        assert policy.grid_backend == BACKEND_SERIAL
        assert not isinstance(policy.mapper(), PoolMapper)


class TestMapperLifetime:
    """The scheduler's per-figure step owns the grid pool, even on failure."""

    @pytest.fixture
    def tracked_pools(self, monkeypatch):
        created = []
        real_mapper = ExecutionPolicy.mapper

        def tracking_mapper(policy):
            mapper = real_mapper(policy)
            if isinstance(mapper, PoolMapper):
                created.append(mapper)
            return mapper

        monkeypatch.setattr(ExecutionPolicy, "mapper", tracking_mapper)
        return created

    def test_raising_figure_still_closes_the_pool(self, tracked_pools):
        policy = ExecutionPolicy(grid_jobs=2)
        report = ExperimentScheduler(42, quick=True, policy=policy).run(
            ["fig11"], overrides={"fig11": {"bogus_kwarg": 1}}
        )
        assert "fig11" in report.errors  # the figure raised mid-job
        assert len(tracked_pools) == 1
        assert tracked_pools[0]._executor is None  # ExitStack released the pool

    def test_successful_job_closes_the_pool_too(self, tracked_pools):
        policy = ExecutionPolicy(grid_jobs=2)
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
        policy = ExecutionPolicy(grid_jobs=2)
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

    def test_cache_hits_have_no_grid_backend(self, tmp_path):
        store = ResultStore(tmp_path)
        policy = ExecutionPolicy(grid_jobs=2)
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
    """Dispatch slabs follow from the grid width and the parallelism."""

    @pytest.mark.parametrize(
        "chunk_size, width",
        [
            pytest.param(1, 7, id="1"),
            pytest.param(3, 23, id="3"),
            pytest.param(7, 55, id="7"),
            pytest.param(30, 239, id="30"),
            pytest.param(45, 359, id="45"),
            pytest.param(64, 600, id="64"),
        ],
    )
    def test_pool_mapper_bit_identical_across_chunk_sizes(self, chunk_size, width):
        # A 2-wide pool slabs a grid into ceil(width / 8) cells, capped at
        # 64: unit slabs, slabs ending on a one-short tail, and the cap
        # (600 cells, a 24-cell tail) all flatten back to the serial order.
        items = list(range(width))
        with PoolMapper(2) as mapper:
            assert mapper(_plus_one, items) == [item + 1 for item in items]
            assert mapper.last_chunk_size == chunk_size

    def test_process_mapper_chunked_matches_serial(self):
        # fig11's 30-cell grid crosses a 2-wide pool as 4-cell slabs (the
        # last one 2 cells) and still reproduces every serial draw.
        serial = _grid_values()
        with PoolMapper(2) as mapper:
            assert _grid_values(mapper) == serial
            assert mapper.last_chunk_size == 4

    def test_chunked_order_preserved_under_out_of_order_completion(self):
        # 10 cells over 2 slots: 2-cell slabs, earlier ones sleeping longer.
        total = 10
        items = [(index, total) for index in range(total)]
        with PoolMapper(2) as mapper:
            assert mapper(_sleepy_identity, items) == list(range(total))
            assert mapper.last_chunk_size == 2

    def test_auto_chunk_size_recorded_after_dispatch(self):
        with PoolMapper(2) as mapper:
            mapper(_plus_one, list(range(30)))
            assert mapper.last_chunk_size == 4  # ceil(30 / (4 * 2))


class TestChunkedSchedulerProvenance:
    def test_auto_resolution_is_what_gets_recorded(self):
        # Provenance records the slab size that actually ran:
        # ceil(30 / (4 * 2)) = 4.
        policy = ExecutionPolicy(grid_jobs=2)
        report = ExperimentScheduler(42, quick=True, policy=policy).run(["fig11"])
        assert report.results["fig11"].provenance["chunk_size"] == 4
        record = report.records[0]
        assert record.chunk_size == 4

    def test_serial_run_records_no_chunk_size(self):
        report = ExperimentScheduler(42, quick=True).run(["fig11"])
        assert report.results["fig11"].provenance["chunk_size"] is None
        assert report.records[0].chunk_size is None
