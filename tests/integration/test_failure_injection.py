"""Failure-injection and robustness tests.

The suite must fail loudly and precisely when driven outside its envelope:
excluded platforms, impossible configurations, misused tracing sessions,
deadlocked simulations, and serialization of every figure.
"""

import json

import pytest

from repro.core.figures import run_figure
from repro.core.suite import BenchmarkSuite
from repro.errors import (
    ConfigurationError,
    SimulationError,
    TraceError,
    UnsupportedOperationError,
)
from repro.kernel.ftrace import Ftrace
from repro.kernel.functions import KernelFunctionCatalog
from repro.platforms import get_platform
from repro.simcore.engine import Simulator, Wait
from repro.simcore.event import Event
from repro.workloads.fio import FioLatencyWorkload, FioThroughputWorkload
from repro.workloads.tinymembench import TinymembenchLatencyWorkload


class TestExclusionSurfacing:
    """The paper's exclusions must surface as typed errors, not wrong data."""

    def test_fio_on_firecracker_raises(self, rng):
        with pytest.raises(UnsupportedOperationError, match="attach_extra_drives"):
            FioThroughputWorkload().run(get_platform("firecracker"), rng)

    def test_fio_on_osv_raises(self, rng):
        with pytest.raises(UnsupportedOperationError, match="libaio"):
            FioThroughputWorkload().run(get_platform("osv"), rng)

    def test_fio_latency_on_gvisor_raises(self, rng):
        with pytest.raises(UnsupportedOperationError, match="cached"):
            FioLatencyWorkload().run(get_platform("gvisor"), rng)

    def test_hugepages_on_kata_raises(self, rng):
        with pytest.raises(UnsupportedOperationError, match="hugepages"):
            TinymembenchLatencyWorkload(huge_pages=True).run(get_platform("kata"), rng)

    def test_figure_records_exclusions_when_forced(self):
        """Explicitly listing an excluded platform yields a note, not a row."""
        figure = run_figure(
            "fig09", 1, repetitions=2, platforms=["native", "firecracker"]
        )
        assert "firecracker" not in [row.platform for row in figure.rows]
        assert any("firecracker" in note for note in figure.notes)


class TestSimulationFailureModes:
    def test_deadlock_reported_not_hung(self):
        sim = Simulator()

        def stuck():
            yield Wait(Event("never-triggered"))

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(stuck())

    def test_process_crash_is_contained(self):
        """One crashing process must not corrupt the simulator."""
        sim = Simulator()

        def crasher():
            yield from ()
            raise RuntimeError("injected")

        def survivor():
            yield from ()
            return "alive"

        crashed = sim.spawn(crasher())
        alive = sim.spawn(survivor())
        sim.run()
        assert alive.result == "alive"
        with pytest.raises(RuntimeError, match="injected"):
            _ = crashed.result

    def test_runaway_event_loop_is_caught(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=1_000)


class TestTraceMisuse:
    def test_tracing_session_protocol_enforced(self):
        tracer = Ftrace(KernelFunctionCatalog(scale=0.1))
        with pytest.raises(TraceError):
            tracer.stop()
        tracer.start()
        with pytest.raises(TraceError):
            tracer.start()

    def test_unknown_platform_hap_profile_rejected(self):
        from repro.security.profiles import trace_platform

        platform = get_platform("docker")
        platform.hap_profile_name = lambda: "unknown-platform"  # type: ignore[method-assign]
        with pytest.raises(ConfigurationError):
            trace_platform(platform, KernelFunctionCatalog(scale=0.1))


class TestSerializationRoundTrips:
    @pytest.mark.parametrize(
        "figure_id", ["fig05", "fig06", "fig11", "fig13", "fig17", "fig18"]
    )
    def test_every_figure_shape_serializes(self, figure_id):
        kwargs = {"startups": 15} if figure_id == "fig13" else {}
        if figure_id not in ("fig18", "fig13"):
            kwargs["repetitions"] = 2
        figure = run_figure(figure_id, 3, **kwargs)
        payload = json.loads(figure.to_json())
        assert payload["figure_id"] == figure.figure_id
        assert len(payload["rows"]) == len(figure.rows)
        assert len(payload["series"]) == len(figure.series)

    def test_suite_archive_is_valid_json(self, tmp_path):
        suite = BenchmarkSuite(seed=5, quick=True)
        suite.run_figure("fig12")
        for path in suite.save_results(tmp_path):
            json.loads(path.read_text())
