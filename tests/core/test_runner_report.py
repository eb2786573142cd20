"""Tests for per-repetition stream derivation and report rendering."""

import pytest

from repro.core.report import render_figure, render_rows, render_series
from repro.core.results import FigureResult, ResultRow, SeriesRow
from repro.core.plan import FigurePlan
from repro.core.stats import summarize
from repro.errors import ConfigurationError
from repro.workloads.iperf import IperfWorkload


def _plan(scope: str) -> FigurePlan:
    return FigurePlan(figure_id="probe", title="probe", unit="Gbit/s", scope=scope)


def _throughputs(scope: str, repetitions: int, seed: int = 7) -> list[float]:
    """One platform's repetitions run from the streams lowering derives."""
    plan = _plan(scope)
    plan.measure(IperfWorkload(), ["docker"], repetitions)
    return [cell.job.run().throughput_gbit_per_s for cell in plan.lower(seed).cells]


class TestRunner:
    """Each repetition draws from its own stream under ``(seed, scope)``."""

    def test_deterministic_given_seed_and_scope(self):
        assert _throughputs("scope", 3) == _throughputs("scope", 3)

    def test_different_scopes_differ(self):
        assert _throughputs("a", 3) != _throughputs("b", 3)

    def test_repetitions_are_independent_draws(self):
        assert len(set(_throughputs("scope", 5))) > 1

    def test_invalid_repetitions_rejected(self):
        with pytest.raises(ConfigurationError):
            _plan("scope").measure(IperfWorkload(), ["native"], 0)


class TestReport:
    def test_render_rows_alignment_and_bars(self):
        rows = [
            ResultRow("a", "Fast", summarize([100.0]), "ms"),
            ResultRow("b", "Slow", summarize([200.0]), "ms"),
        ]
        text = render_rows(rows, "ms")
        assert "Fast" in text and "Slow" in text
        assert "#" in text
        fast_line = next(line for line in text.splitlines() if "Fast" in line)
        slow_line = next(line for line in text.splitlines() if "Slow" in line)
        assert slow_line.count("#") > fast_line.count("#")

    def test_render_rows_includes_extras(self):
        rows = [ResultRow("a", "A", summarize([1.0]), "ms", extra={"max": 2.0})]
        assert "max" in render_rows(rows, "ms")

    def test_render_empty_rows(self):
        assert render_rows([], "ms") == "(no rows)"

    def test_render_sweep_series(self):
        series = [SeriesRow("a", "A", (10.0, 20.0), (1.0, 2.0))]
        text = render_series(series, "tps", "threads")
        assert "threads" in text
        assert "10" in text and "20" in text

    def test_render_cdf_series_as_percentiles(self):
        values = tuple(float(v) for v in range(1, 101))
        probabilities = tuple(v / 100.0 for v in range(1, 101))
        series = [SeriesRow("a", "A", values, probabilities)]
        text = render_series(series, "ms", "ms")
        assert "p50" in text and "p99" in text

    def test_render_figure_includes_notes(self):
        figure = FigureResult("f", "T", "ms", notes=["important caveat"])
        figure.rows.append(ResultRow("a", "A", summarize([1.0]), "ms"))
        assert "important caveat" in render_figure(figure)
