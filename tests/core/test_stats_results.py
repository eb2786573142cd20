"""Tests for statistics and result containers."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import FigureResult, ResultRow, SeriesRow
from repro.core.stats import percentile, summarize
from repro.errors import ConfigurationError


class TestSummarize:
    def test_single_value(self):
        summary = summarize([5.0])
        assert summary.mean == 5.0
        assert summary.std == 0.0
        assert summary.p50 == 5.0

    def test_known_values(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.count == 4

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])


class TestPercentile:
    def test_bounds(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == pytest.approx(5.0)

    def test_invalid_q_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_percentile_within_data_range(self, values):
        # One ulp of slack: a*(1-w)+b*w can exceed max(a, b) at the last bit.
        tolerance = 1e-9 * max(abs(v) for v in values) + 1e-12
        for q in (0, 25, 50, 75, 90, 100):
            result = percentile(values, q)
            assert min(values) - tolerance <= result <= max(values) + tolerance

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=50))
    @settings(max_examples=50)
    def test_percentiles_monotone_in_q(self, values):
        # Allow one ulp of slack: linear interpolation can wobble at the
        # last bit when neighbouring samples are (nearly) equal.
        tolerance = 1e-9 * max(values) + 1e-12
        assert percentile(values, 10) <= percentile(values, 50) + tolerance
        assert percentile(values, 50) <= percentile(values, 90) + tolerance


class TestSeriesRow:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SeriesRow("p", "P", (1.0, 2.0), (1.0,))

    def test_mismatched_err_rejected(self):
        with pytest.raises(ValueError):
            SeriesRow("p", "P", (1.0,), (1.0,), y_err=(1.0, 2.0))


class TestFigureResult:
    def _figure(self) -> FigureResult:
        figure = FigureResult("figX", "Test figure", "ms")
        figure.rows.append(ResultRow("a", "A", summarize([1.0, 2.0]), "ms"))
        figure.rows.append(ResultRow("b", "B", summarize([5.0, 6.0]), "ms"))
        figure.series.append(SeriesRow("a", "A", (1.0, 2.0), (10.0, 20.0)))
        return figure

    def test_row_lookup(self):
        figure = self._figure()
        assert figure.row("a").label == "A"
        with pytest.raises(KeyError):
            figure.row("missing")

    def test_series_lookup(self):
        figure = self._figure()
        assert figure.series_for("a").y_values == (10.0, 20.0)
        with pytest.raises(KeyError):
            figure.series_for("missing")

    def test_ranking(self):
        figure = self._figure()
        assert figure.ranking(ascending=True) == ["a", "b"]
        assert figure.ranking(ascending=False) == ["b", "a"]

    def test_json_round_trip(self):
        figure = self._figure()
        data = json.loads(figure.to_json())
        assert data["figure_id"] == "figX"
        assert len(data["rows"]) == 2
        assert data["rows"][0]["summary"]["mean"] == pytest.approx(1.5)

    def test_render_contains_labels(self):
        text = self._figure().render()
        assert "figX" in text
        assert "A" in text and "B" in text
