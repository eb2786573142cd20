"""Tests for the declarative plan layer and (platform × rep) lowering.

The tentpole guarantees: every figure's lowered grid covers exactly its
platform roster × repetitions (minus recorded exclusions), the whole grid
goes through ONE mapper dispatch, stream derivation matches the
historical per-platform loops, and execution is bit-identical across
every grid backend (serial/process/remote) at the runner,
scheduler, and suite layers.

Lowering invariants are property-based (hypothesis): random rosters ×
repetition counts × exclusion sets, not hand-picked examples.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.figures import FIGURES, lower_figure, run_figure
from repro.core.plan import FigurePlan, MeasurementSpec
from repro.core.scheduler import ExperimentScheduler
from repro.core.suite import BenchmarkSuite
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.platforms import PLATFORM_SETS, platform_names
from repro.platforms.base import Platform
from repro.rng import RngStream
from repro.workloads.base import Workload
from repro.workloads.iperf import IperfWorkload

SEED = 42

#: Expected roster per figure (the declared platform set, pre-exclusion).
FIGURE_ROSTERS = {
    "fig05": "cpu",
    "cpu-prime": "cpu",
    "fig06": "memory",
    "fig07": "memory",
    "fig08": "memory",
    "fig09": "io_throughput",
    "fig10": "io_latency",
    "fig11": "network",
    "fig12": "network",
    "fig13": "container_boot",
    "fig14": "hypervisor_boot",
    "fig15": "osv_boot",
    "fig16": "applications",
    "fig17": "applications",
    "fig18": "security",
}


class TestRegistry:
    def test_every_figure_has_a_plan_builder(self):
        assert all(callable(declared.build) for declared in FIGURES.values())
        assert set(FIGURE_ROSTERS) == set(FIGURES)

    def test_build_plan_returns_unexecuted_declaration(self):
        plan = FIGURES["fig11"].build(repetitions=2)
        assert isinstance(plan, FigurePlan)
        assert plan.figure_id == "fig11"
        assert all(isinstance(spec, MeasurementSpec) for spec in plan.specs)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown figure 'fig99'"):
            lower_figure("fig99", SEED)


class TestLoweringCoverage:
    """Each grid covers exactly platform-set × repetitions."""

    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_grid_covers_roster_times_reps(self, figure_id):
        grid = lower_figure(figure_id, SEED, **FIGURES[figure_id].quick)
        declared = list(PLATFORM_SETS[FIGURE_ROSTERS[figure_id]])
        for spec in grid.specs:
            assert list(spec.platforms) == declared
            included = grid.included_platforms(spec)
            excluded = [
                e.platform for e in grid.exclusions if e.spec_key == spec.key
            ]
            # Exclusions + included == the declared roster, nothing dropped.
            assert sorted(included + excluded) == sorted(declared)
            cells = [c for c in grid.cells if c.spec_key == spec.key]
            assert [(c.platform, c.rep_index) for c in cells] == [
                (name, rep)
                for name in included
                for rep in range(spec.repetitions)
            ]
        assert grid.width == sum(
            len(grid.included_platforms(spec)) * spec.repetitions
            for spec in grid.specs
        )

    def test_known_exclusions_are_recorded(self):
        # Paper-specific regression (Section 3: Kata has no hugepages) —
        # the general exclusion invariants are property-based below.
        grid = lower_figure("fig06", SEED, repetitions=2, huge_pages=True)
        assert "kata" in [e.platform for e in grid.exclusions]
        assert "kata" not in [c.platform for c in grid.cells]

    def test_multi_method_startup_figure_has_one_spec_per_method(self):
        grid = lower_figure("fig15", SEED, startups=10)
        assert [spec.key for spec in grid.specs] == ["end-to-end", "stdout-grep"]
        assert grid.width == 2 * len(PLATFORM_SETS["osv_boot"])


class TestLoweringStreams:
    """Cell streams descend from one ``RngStream(seed, scope)`` root."""

    def test_whole_stream_spec_matches_runner_stream_for(self):
        grid = lower_figure("fig13", SEED, startups=10)
        root = RngStream(SEED, "fig13")
        for cell in grid.cells:
            expected = root.child(f"{cell.job.platform.name}/end-to-end")
            assert cell.job.stream.path == expected.path
            assert cell.job.stream.seed == expected.seed
        # Keyed by the platform's own name, not the roster name: the
        # "docker-oci" roster entry is a platform named "docker".
        paths = {cell.platform: cell.job.stream.path for cell in grid.cells}
        assert paths["docker-oci"] == paths["docker"] == "fig13/docker/end-to-end"

    def test_split_reps_false_requires_single_repetition(self):
        with pytest.raises(ConfigurationError, match="split_reps"):
            MeasurementSpec(
                key="m0",
                workload=IperfWorkload(),
                platforms=("docker",),
                repetitions=2,
                split_reps=False,
            )


@dataclasses.dataclass(frozen=True)
class ProbeWorkload(Workload):
    """Synthetic grid payload with a declared exclusion set.

    ``run`` returns the first draw of the cell's stream, so equal streams
    — and only equal streams — produce equal results: exactly the
    property the lowering pass must preserve.
    """

    name: str = "probe"
    unsupported: frozenset = frozenset()
    tag_salt: str = ""

    def check_supported(self, platform: Platform) -> None:
        if platform.name in self.unsupported:
            raise UnsupportedOperationError(f"probe declines {platform.name}")

    def run(self, platform: Platform, rng: RngStream) -> float:
        return rng.uniform()


def _probe_plan(
    roster: list[str],
    repetitions: int,
    unsupported: frozenset,
    note: str = "",
) -> tuple[FigurePlan, MeasurementSpec]:
    plan = FigurePlan(figure_id="prop-fig", title="property probe", unit="u")
    spec = plan.measure(
        ProbeWorkload(unsupported=unsupported),
        roster,
        repetitions,
        guard_support=True,
    )
    plan.fold_rows(spec, lambda value: value)
    if note:
        plan.note(note)
    return plan, spec


#: Drawing from the real registry keeps the property anchored to actual
#: Platform objects (labels, families) rather than synthetic stand-ins.
_ROSTERS = st.lists(
    st.sampled_from(sorted(platform_names())), min_size=1, max_size=6, unique=True
)
_REPS = st.integers(min_value=1, max_value=4)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def _roster_cases(draw):
    """(roster, repetitions, unsupported-subset) triples.

    ``unsupported`` holds *resolved* platform names (``Platform.name``),
    because ``check_supported`` sees the platform object, not the roster
    key — registry aliases like ``docker-oci`` resolve to ``docker``.
    """
    from repro.platforms import get_platform

    roster = draw(_ROSTERS)
    repetitions = draw(_REPS)
    mask = draw(st.lists(st.booleans(), min_size=len(roster), max_size=len(roster)))
    unsupported = frozenset(
        get_platform(name).name for name, excluded in zip(roster, mask) if excluded
    )
    return roster, repetitions, unsupported


def _split_roster(roster: list[str], unsupported: frozenset) -> tuple[list, list]:
    """The roster keys lowering will include vs exclude, in order."""
    from repro.platforms import get_platform

    included = [n for n in roster if get_platform(n).name not in unsupported]
    excluded = [n for n in roster if get_platform(n).name in unsupported]
    return included, excluded


class TestLoweringProperties:
    """Hypothesis invariants: hold for *any* roster × reps × exclusions."""

    @settings(max_examples=40, deadline=None)
    @given(case=_roster_cases(), seed=_SEEDS)
    def test_grid_size_and_cell_order(self, case, seed):
        roster, repetitions, unsupported = case
        plan, spec = _probe_plan(roster, repetitions, unsupported)
        grid = plan.lower(seed)
        included, excluded = _split_roster(roster, unsupported)
        # Size: exactly (roster - exclusions) x repetitions, nothing lost.
        assert grid.width == len(included) * repetitions
        assert grid.included_platforms(spec) == included
        assert [e.platform for e in grid.exclusions] == excluded
        # Order: cells enumerate platforms in declared order, reps inside.
        assert [(c.platform, c.rep_index) for c in grid.cells] == [
            (name, rep) for name in included for rep in range(repetitions)
        ]

    @settings(max_examples=40, deadline=None)
    @given(case=_roster_cases(), seed=_SEEDS)
    def test_stream_derivation_is_deterministic_and_runner_equal(self, case, seed):
        roster, repetitions, unsupported = case
        plan, _spec = _probe_plan(roster, repetitions, unsupported)
        once = plan.lower(seed)
        again = plan.lower(seed)
        # Determinism: two lowerings derive identical streams...
        assert [(c.spec_key, c.platform, c.rep_index, c.job.stream.seed,
                 c.job.stream.path) for c in once.cells] == \
               [(c.spec_key, c.platform, c.rep_index, c.job.stream.seed,
                 c.job.stream.path) for c in again.cells]
        # ...and each equals the scalar seed-tree derivation of its cell.
        root = RngStream(seed, plan.scope)
        for cell in once.cells:
            expected = root.child(cell.job.platform.name).child(f"rep-{cell.rep_index}")
            assert cell.job.stream.path == expected.path
            assert cell.job.stream.seed == expected.seed

    @settings(max_examples=40, deadline=None)
    @given(case=_roster_cases(), seed=_SEEDS)
    def test_execution_and_fold_ordering(self, case, seed):
        roster, repetitions, unsupported = case
        plan, _spec = _probe_plan(
            roster, repetitions, unsupported, note="static trailer"
        )
        result = plan.run(seed)
        included, excluded = _split_roster(roster, unsupported)
        # Fold ordering: one row per included platform, in declared order.
        assert [row.platform for row in result.rows] == included
        # Note ordering: exclusion notes first, static notes last.
        assert result.notes[-1] == "static trailer"
        exclusion_notes = result.notes[:-1]
        assert all("excluded" in note for note in exclusion_notes)
        assert len(exclusion_notes) == len(excluded)
        # Rows summarize the cells' own streams: recompute serially.
        expected = plan.run(seed)
        assert result.comparable_dict() == expected.comparable_dict()


class TestFlatDispatch:
    """The tentpole: one mapper call covers the whole grid."""

    @pytest.mark.parametrize("figure_id", ["fig05", "fig09", "fig15", "fig18"])
    def test_figure_dispatches_grid_in_one_call(self, figure_id):
        calls = []

        def recording_map(fn, items):
            items = list(items)
            calls.append(len(items))
            return [fn(item) for item in items]

        kwargs = FIGURES[figure_id].quick
        expected = lower_figure(figure_id, SEED, **kwargs).width
        FIGURES[figure_id].build(**kwargs).run(SEED, recording_map)
        assert calls == [expected]

    def test_no_per_platform_loops_remain_in_figures(self):
        # The acceptance criterion, enforced structurally: figure code
        # calls no per-platform dispatch helpers.
        import inspect

        from repro.core import figures

        source = inspect.getsource(figures)
        for legacy in ("runner.repeat(", "runner.collect(", "runner.collect_results("):
            assert legacy not in source


class TestBitIdentity:
    """All grid backends agree bit-for-bit at every layer.

    One test per layer, parametrized over the shared ``grid_backend``
    fixture — serial, process, and remote-loopback all run the
    same assertions instead of per-backend copies.
    """

    @pytest.mark.parametrize("figure_id", ["fig05", "fig06", "fig13", "fig18"])
    def test_runner_layer_plan_run(self, grid_backend, figure_id):
        declared = FIGURES[figure_id]
        serial = declared.build(**declared.quick).run(SEED)
        with grid_backend.open_mapper(2) as mapper:
            pooled = declared.build(**declared.quick).run(SEED, mapper)
        assert pooled.comparable_dict() == serial.comparable_dict()

    def test_scheduler_layer(self, grid_backend):
        serial = ExperimentScheduler(SEED, quick=True).run(["fig05"])
        pooled = ExperimentScheduler(
            SEED, quick=True, policy=grid_backend.policy()
        ).run(["fig05"])
        assert (
            pooled.results["fig05"].comparable_dict()
            == serial.results["fig05"].comparable_dict()
        )

    def test_suite_layer(self, grid_backend):
        serial = BenchmarkSuite(seed=SEED, quick=True).run_figure("fig05")
        policy = grid_backend.policy()
        suite = BenchmarkSuite(
            seed=SEED, quick=True, grid_jobs=policy.grid_jobs, workers=policy.workers
        )
        assert suite.policy == policy
        assert suite.run_figure("fig05").comparable_dict() == serial.comparable_dict()


class TestGridOutcomeFolding:
    def test_exclusion_notes_precede_static_notes(self):
        result = run_figure("fig09", SEED, repetitions=2)
        # Roster-level exclusions live in the trailing static note; a
        # custom roster forces a lowering-time exclusion, which must come
        # before it.
        roster = list(PLATFORM_SETS["io_throughput"]) + ["firecracker"]
        result = run_figure("fig09", SEED, repetitions=2, platforms=roster)
        excluded_idx = [i for i, n in enumerate(result.notes) if "firecracker" in n]
        static_idx = [
            i for i, n in enumerate(result.notes)
            if n == "Firecracker and OSv excluded (Section 3.3)."
        ]
        assert excluded_idx and static_idx
        assert max(excluded_idx) < min(static_idx)

    def test_describe_mentions_platforms_and_shape(self):
        grid = lower_figure("fig11", SEED, repetitions=3)
        text = grid.describe(backend="process", workers=4)
        assert "fig11" in text
        assert "grid-jobs=4" in text
        assert "3 rep(s)" in text
        assert "gvisor" in text

    def test_duplicate_measurement_keys_rejected(self):
        plan = FigurePlan(figure_id="figX", title="t", unit="u")
        plan.measure(IperfWorkload(), ["docker"], 1, key="m")
        with pytest.raises(ConfigurationError, match="duplicate"):
            plan.measure(IperfWorkload(), ["docker"], 1, key="m")

    def test_suite_plan_figure_matches_direct_lowering(self):
        suite = BenchmarkSuite(seed=SEED, quick=True)
        grid = suite.plan_figure("fig11")
        assert grid.width == lower_figure("fig11", SEED, repetitions=3).width
        with pytest.raises(ConfigurationError, match="unknown figure"):
            suite.plan_figure("fig99")
