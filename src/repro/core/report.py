"""ASCII rendering of reproduced figures.

Bar figures render as aligned tables with a proportional bar column;
series figures render one row per x-value (or a compact summary for CDF
data). The output is what ``examples/quickstart.py`` and the benchmark
harness print.
"""

from __future__ import annotations

from repro.core.results import FigureResult, ResultRow, SeriesRow
from repro.core.stats import percentile

__all__ = ["render_figure", "render_rows", "render_series"]

_BAR_WIDTH = 32


def _bar(value: float, maximum: float) -> str:
    if maximum <= 0:
        return ""
    filled = int(round(_BAR_WIDTH * value / maximum))
    return "#" * max(0, min(_BAR_WIDTH, filled))


def render_rows(rows: list[ResultRow], unit: str) -> str:
    """Aligned table of bar-style results."""
    if not rows:
        return "(no rows)"
    label_width = max(len(r.label) for r in rows)
    maximum = max(r.summary.mean for r in rows)
    lines = []
    header = f"{'platform':<{label_width}}  {'mean':>12}  {'std':>10}  bar"
    lines.append(header)
    lines.append("-" * len(header.rstrip()) + "-" * _BAR_WIDTH)
    for row in rows:
        mean = row.summary.mean
        lines.append(
            f"{row.label:<{label_width}}  {mean:>12,.1f}  {row.summary.std:>10,.1f}  "
            f"{_bar(mean, maximum)}"
        )
        for key, value in row.extra.items():
            lines.append(f"{'':<{label_width}}    {key}: {value:,.2f}")
    lines.append(f"(unit: {unit})")
    return "\n".join(lines)


def _is_cdf(series: SeriesRow) -> bool:
    return bool(series.y_values) and max(series.y_values) <= 1.0 + 1e-9


def render_series(series: list[SeriesRow], unit: str, x_label: str) -> str:
    """Render sweeps; CDF series render as percentile summaries."""
    if not series:
        return "(no series)"
    lines: list[str] = []
    if all(_is_cdf(s) for s in series):
        label_width = max(len(s.label) for s in series)
        header = f"{'platform':<{label_width}}  {'p10':>10}  {'p50':>10}  {'p90':>10}  {'p99':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in series:
            values = list(row.x_values)
            lines.append(
                f"{row.label:<{label_width}}  "
                f"{percentile(values, 10):>10,.1f}  {percentile(values, 50):>10,.1f}  "
                f"{percentile(values, 90):>10,.1f}  {percentile(values, 99):>10,.1f}"
            )
        lines.append(f"(CDF summary; unit: {unit})")
        return "\n".join(lines)

    label_width = max(len(s.label) for s in series)
    x_values = series[0].x_values
    header = f"{x_label or 'x':>12}  " + "  ".join(
        f"{s.label:>{max(10, len(s.label))}}" for s in series
    )
    lines.append(header)
    lines.append("-" * len(header))
    for index, x in enumerate(x_values):
        cells = []
        for s in series:
            value = s.y_values[index] if index < len(s.y_values) else float("nan")
            cells.append(f"{value:>{max(10, len(s.label))},.1f}")
        lines.append(f"{x:>12,.0f}  " + "  ".join(cells))
    lines.append(f"(unit: {unit})")
    return "\n".join(lines)


def render_figure(figure: FigureResult) -> str:
    """Full ASCII rendering of a figure result."""
    parts = [f"== {figure.figure_id}: {figure.title} =="]
    if figure.rows:
        parts.append(render_rows(figure.rows, figure.unit))
    if figure.series:
        parts.append(render_series(figure.series, figure.unit, figure.x_label))
    for note in figure.notes:
        parts.append(f"note: {note}")
    return "\n".join(parts)
