"""Shared helpers for the benchmark harness.

Each ``benchmarks/test_figNN_*.py`` regenerates one paper artefact and
prints the same rows/series the paper reports, so ``pytest benchmarks/
--benchmark-only`` reproduces the entire evaluation section. Benchmarks
run their figure once per round (pedantic mode) — the interesting output
is the figure content, not the wall-clock of the simulator itself.
"""

from __future__ import annotations

import pytest

SEED = 42


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function(*args, **kwargs)`` under pytest-benchmark, one round."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def seed() -> int:
    """The default reproduction seed."""
    return SEED
