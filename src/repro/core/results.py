"""Result containers for reproduced figures and tables.

A :class:`FigureResult` holds either bar-style rows (one summary per
platform), series rows (x/y sweeps, e.g. latency vs. buffer size or TPS
vs. threads), or both. Results serialize to JSON for archival and render
to aligned ASCII tables for the console (see :mod:`repro.core.report`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.stats import Summary

__all__ = ["ResultRow", "SeriesRow", "FigureResult"]


def _summary_to_dict(summary: Summary) -> dict[str, Any]:
    """A summary's plain-dict form, in its field order."""
    return {
        "count": summary.count,
        "mean": summary.mean,
        "std": summary.std,
        "minimum": summary.minimum,
        "maximum": summary.maximum,
        "p50": summary.p50,
        "p90": summary.p90,
        "p99": summary.p99,
    }


@dataclass(frozen=True)
class ResultRow:
    """One platform's summarized metric in a bar-style figure."""

    platform: str
    label: str
    summary: Summary
    unit: str
    extra: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form: the keys, order and types of
        :func:`dataclasses.asdict`, without its per-value deep copy."""
        return {
            "platform": self.platform,
            "label": self.label,
            "summary": _summary_to_dict(self.summary),
            "unit": self.unit,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ResultRow":
        """Rebuild a row from its :meth:`to_dict` form."""
        return cls(
            platform=payload["platform"],
            label=payload["label"],
            summary=Summary(**payload["summary"]),
            unit=payload["unit"],
            extra=dict(payload.get("extra", {})),
        )


@dataclass(frozen=True)
class SeriesRow:
    """One platform's (x, y) sweep in a line-style figure."""

    platform: str
    label: str
    x_values: tuple[float, ...]
    y_values: tuple[float, ...]
    y_err: tuple[float, ...] = ()
    unit: str = ""

    def __post_init__(self) -> None:
        if len(self.x_values) != len(self.y_values):
            raise ValueError("x and y lengths differ")
        if self.y_err and len(self.y_err) != len(self.y_values):
            raise ValueError("y_err length differs from y")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, as :meth:`ResultRow.to_dict`; the tuples are
        immutable and go out as they are."""
        return {
            "platform": self.platform,
            "label": self.label,
            "x_values": self.x_values,
            "y_values": self.y_values,
            "y_err": self.y_err,
            "unit": self.unit,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SeriesRow":
        """Rebuild a series from its :meth:`to_dict` form."""
        return cls(
            platform=payload["platform"],
            label=payload["label"],
            x_values=tuple(payload["x_values"]),
            y_values=tuple(payload["y_values"]),
            y_err=tuple(payload.get("y_err", ())),
            unit=payload.get("unit", ""),
        )


@dataclass
class FigureResult:
    """A reproduced paper artefact (figure or table)."""

    figure_id: str
    title: str
    unit: str
    rows: list[ResultRow] = field(default_factory=list)
    series: list[SeriesRow] = field(default_factory=list)
    x_label: str = ""
    notes: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    # --- access helpers ----------------------------------------------------------

    def row(self, platform: str) -> ResultRow:
        """Find a bar row by platform name."""
        for candidate in self.rows:
            if candidate.platform == platform:
                return candidate
        raise KeyError(f"{self.figure_id}: no row for platform {platform!r}")

    def series_for(self, platform: str) -> SeriesRow:
        """Find a series by platform name."""
        for candidate in self.series:
            if candidate.platform == platform:
                return candidate
        raise KeyError(f"{self.figure_id}: no series for platform {platform!r}")

    def ranking(self, *, ascending: bool = True) -> list[str]:
        """Platforms ordered by mean metric (bar figures only)."""
        ordered = sorted(self.rows, key=lambda r: r.summary.mean, reverse=not ascending)
        return [r.platform for r in ordered]

    # --- serialization -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "unit": self.unit,
            "x_label": self.x_label,
            "notes": list(self.notes),
            "metadata": dict(self.metadata),
            "rows": [row.to_dict() for row in self.rows],
            "series": [series.to_dict() for series in self.series],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FigureResult":
        """Rebuild a result from :meth:`to_dict` output (store round-trip)."""
        return cls(
            figure_id=payload["figure_id"],
            title=payload["title"],
            unit=payload["unit"],
            rows=[ResultRow.from_dict(row) for row in payload.get("rows", [])],
            series=[SeriesRow.from_dict(s) for s in payload.get("series", [])],
            x_label=payload.get("x_label", ""),
            notes=list(payload.get("notes", [])),
            metadata=dict(payload.get("metadata", {})),
        )

    def to_json(self, indent: int = 2) -> str:
        """JSON text form."""
        return json.dumps(self.to_dict(), indent=indent)

    # --- provenance ---------------------------------------------------------------

    @property
    def provenance(self) -> dict[str, Any]:
        """Execution provenance recorded by the scheduler (empty if none)."""
        return dict(self.metadata.get("provenance", {}))

    def comparable_dict(self) -> dict[str, Any]:
        """The dict form minus provenance — equal across backends/caches."""
        payload = self.to_dict()
        payload.get("metadata", {}).pop("provenance", None)
        return payload

    def render(self) -> str:
        """ASCII rendering (delegates to :mod:`repro.core.report`)."""
        from repro.core.report import render_figure

        return render_figure(self)
