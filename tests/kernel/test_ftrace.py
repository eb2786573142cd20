"""Tests for the ftrace model."""

import pytest

from repro.errors import TraceError
from repro.kernel.ftrace import Ftrace
from repro.kernel.functions import KernelFunctionCatalog, Subsystem


@pytest.fixture(scope="module")
def catalog() -> KernelFunctionCatalog:
    return KernelFunctionCatalog(scale=0.3)


class TestFtraceLifecycle:
    def test_start_stop_cycle(self, catalog):
        tracer = Ftrace(catalog)
        tracer.start()
        tracer.record_breadth(Subsystem.SCHED, 0.0)  # inside the session
        report = tracer.stop()
        with pytest.raises(TraceError):  # the session is closed
            tracer.record_breadth(Subsystem.SCHED, 0.5)
        assert report.unique_functions == 0

    def test_double_start_rejected(self, catalog):
        tracer = Ftrace(catalog)
        tracer.start()
        with pytest.raises(TraceError):
            tracer.start()

    def test_stop_without_start_rejected(self, catalog):
        with pytest.raises(TraceError):
            Ftrace(catalog).stop()

    def test_record_outside_session_rejected(self, catalog):
        tracer = Ftrace(catalog)
        with pytest.raises(TraceError):
            tracer.record_breadth(Subsystem.SCHED, 0.5)

    def test_restart_clears_previous_hits(self, catalog):
        tracer = Ftrace(catalog)
        tracer.start()
        tracer.record_breadth(Subsystem.SCHED, 0.5)
        tracer.stop()
        tracer.start()
        report = tracer.stop()
        assert report.unique_functions == 0


class TestRecording:
    def test_record_breadth_selects_prefix(self, catalog):
        tracer = Ftrace(catalog)
        tracer.start()
        tracer.record_breadth(Subsystem.SCHED, 0.5)
        report = tracer.stop()
        expected = len(catalog.select_breadth(Subsystem.SCHED, 0.5))
        assert report.unique_functions == expected

    def test_record_breadth_zero_is_noop(self, catalog):
        tracer = Ftrace(catalog)
        tracer.start()
        tracer.record_breadth(Subsystem.SCHED, 0.0)
        assert tracer.stop().unique_functions == 0

    def test_hit_counts_decay_with_rank(self, catalog):
        def hits_per_function(breadth):
            tracer = Ftrace(catalog)
            tracer.start()
            tracer.record_breadth(Subsystem.SCHED, breadth, invocations_per_function=1000)
            report = tracer.stop()
            return report.total_invocations / report.unique_functions

        # The first function alone out-hits the average over the whole subsystem.
        assert hits_per_function(1e-9) > hits_per_function(1.0)


class TestReport:
    def test_by_subsystem_groups(self, catalog):
        tracer = Ftrace(catalog)
        tracer.start()
        tracer.record_breadth(Subsystem.SCHED, 0.2)
        tracer.record_breadth(Subsystem.MM, 0.1)
        report = tracer.stop()
        groups = report.by_subsystem()
        assert set(groups) == {Subsystem.SCHED, Subsystem.MM}

    def test_merge_unions_functions(self, catalog):
        tracer = Ftrace(catalog)
        tracer.start()
        tracer.record_breadth(Subsystem.SCHED, 0.2)
        first = tracer.stop()
        tracer.start()
        tracer.record_breadth(Subsystem.MM, 0.2)
        second = tracer.stop()
        merged = first.merge(second)
        assert merged.unique_functions == first.unique_functions + second.unique_functions
        assert merged.total_invocations == first.total_invocations + second.total_invocations

    def test_merge_overlapping_adds_counts(self, catalog):
        tracer = Ftrace(catalog)
        tracer.start()
        tracer.record_breadth(Subsystem.SCHED, 0.2)
        first = tracer.stop()
        tracer.start()
        tracer.record_breadth(Subsystem.SCHED, 0.2, invocations_per_function=3)
        second = tracer.stop()
        merged = first.merge(second)
        assert merged.unique_functions == first.unique_functions
        assert merged.total_invocations == first.total_invocations + second.total_invocations

    def test_functions_returned_in_catalog_order(self, catalog):
        tracer = Ftrace(catalog)
        tracer.start()
        tracer.record_breadth(Subsystem.MM, 0.05)
        tracer.record_breadth(Subsystem.SCHED, 0.05)
        functions = tracer.stop().functions()
        keys = [(fn.subsystem.value, fn.rank) for fn in functions]
        assert keys == sorted(keys)
