"""The figure-result codec: ``FigureResult.to_dict`` against ``dataclasses.asdict``.

``to_dict`` encodes rows, series and summaries field by field. The store
server pickles that form onto the wire, and the store files and the
digests are JSON of it, so it must be exactly what ``dataclasses.asdict``
would give. These tests check every figure of the seed-42 quick run:
the same pickle bytes, a lossless round trip through ``from_dict``, and
every field of each class as a key, in declaration order, so a new field
cannot be dropped silently.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.figures import FIGURES
from repro.core.results import FigureResult, ResultRow, SeriesRow
from repro.core.scheduler import ExperimentScheduler
from repro.core.stats import Summary


@pytest.fixture(scope="module")
def results() -> dict[str, FigureResult]:
    report = ExperimentScheduler(seed=42, quick=True).run()
    report.raise_for_errors()
    return report.results


def _field_names(cls: type) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("figure_id", list(FIGURES))
class TestFigureCodec:
    def test_pickles_like_asdict(self, results, figure_id):
        result = results[figure_id]
        expected = result.to_dict()
        expected["rows"] = [dataclasses.asdict(row) for row in result.rows]
        expected["series"] = [dataclasses.asdict(series) for series in result.series]
        assert pickle.dumps(result.to_dict()) == pickle.dumps(expected)

    def test_round_trips_through_from_dict(self, results, figure_id):
        payload = results[figure_id].to_dict()
        assert FigureResult.from_dict(payload).to_dict() == payload

    def test_keys_are_every_field_in_order(self, results, figure_id):
        payload = results[figure_id].to_dict()
        assert payload["rows"] or payload["series"]
        for row in payload["rows"]:
            assert list(row) == _field_names(ResultRow)
            assert list(row["summary"]) == _field_names(Summary)
        for series in payload["series"]:
            assert list(series) == _field_names(SeriesRow)
