"""Summary statistics for benchmark repetitions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.units import left_sum

__all__ = ["Summary", "summarize", "percentile"]


@dataclass(frozen=True)
class Summary:
    """Mean/std/extrema of one metric across repetitions."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100])."""
    if not values:
        raise ConfigurationError("cannot take a percentile of no data")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def summarize(values: Sequence[float]) -> Summary:
    """Full summary of a repetition set."""
    if not values:
        raise ConfigurationError("cannot summarize no data")
    count = len(values)
    mean = left_sum(values) / count
    variance = left_sum((v - mean) ** 2 for v in values) / count if count > 1 else 0.0
    return Summary(
        count=count,
        mean=mean,
        std=math.sqrt(variance),
        minimum=min(values),
        maximum=max(values),
        p50=percentile(values, 50),
        p90=percentile(values, 90),
        p99=percentile(values, 99),
    )
