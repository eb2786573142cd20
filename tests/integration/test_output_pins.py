"""Output pins: every figure's quick-mode result at seed 42, byte for byte.

The golden values (``test_golden_values.py``) hold a few headline numbers
within a tolerance, and the backend matrix compares each backend with
serial *at the same commit*. Neither notices a change that moves a
figure's output everywhere at once. This test does: it runs all 15
figures through ``ExperimentScheduler(seed=42, quick=True)`` — the
``run all --quick`` path — and compares a sha256 of each figure's
canonical ``comparable_dict()`` JSON with ``output_pins.json``.

numpy does not promise ``Generator`` streams across versions, so the
fixture records the numpy it was made with; on another numpy a mismatch
names both versions.

CPython 3.12 sums floats with compensated summation, where 3.10 and 3.11
add left to right, and CI runs all three. The second test checks the
pins with ``builtins.sum`` replaced by a pure-Python copy of 3.12's
(``py312_sum.py``), so a figure that folds floats with the built-in
``sum`` fails on any interpreter; such folds use
:func:`repro.units.left_sum`.

Regenerate the fixture with ``python tests/integration/make_output_pins.py``,
and only when a change is meant to move a figure: say in CHANGES.md
which figure moved and why. Never regenerate to make a failure go away.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from py312_sum import py312_sum

from repro.core.figures import FIGURES
from repro.core.scheduler import ExperimentScheduler

PINS_FILE = pathlib.Path(__file__).with_name("output_pins.json")
SEED = 42


def digest(result) -> str:
    """sha256 of a figure's backend- and cache-independent content."""
    payload = json.dumps(result.comparable_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def quick_digests(seed: int = SEED) -> dict[str, str]:
    """Digest of every figure of a serial ``run all --quick`` at ``seed``."""
    report = ExperimentScheduler(seed=seed, quick=True).run()
    report.raise_for_errors()
    return {figure_id: digest(report.results[figure_id]) for figure_id in FIGURES}


def pins_payload(seed: int = SEED) -> dict:
    """The fixture's content for the running numpy."""
    return {"numpy": np.__version__, "seed": seed, "quick": True,
            "figures": quick_digests(seed)}


def test_quick_outputs_match_pins():
    pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))
    actual = quick_digests(pins["seed"])
    expected = pins["figures"]
    moved = sorted(
        figure_id
        for figure_id in set(expected) | set(actual)
        if expected.get(figure_id) != actual.get(figure_id)
    )
    if not moved:
        return
    message = f"{len(moved)} figure(s) moved from their output pins: {', '.join(moved)}."
    if pins["numpy"] != np.__version__:
        message += (
            f" The pins were made with numpy {pins['numpy']} and this is numpy"
            f" {np.__version__}; numpy does not promise Generator streams across"
            " versions."
        )
    raise AssertionError(message)


def test_quick_outputs_match_pins_under_py312_sum(monkeypatch):
    """The pins hold when ``sum`` adds floats as CPython 3.12 does."""
    monkeypatch.setattr(builtins, "sum", py312_sum)
    test_quick_outputs_match_pins()


@pytest.mark.parametrize(
    "values, start, expected",
    [
        ([0.1] * 10, 0, 1.0),
        ([1.0, 1e100, 1.0, -1e100], 0, 2.0),
        ([0.1, 0.2, 0.3], 0, 0.6),
        ([1e-16] * 10, 1.0, 1.000000000000001),
    ],
)
def test_py312_sum_compensates(values, start, expected):
    """Results CPython 3.12.1's ``sum`` gives; 3.11's differs on each."""
    assert py312_sum(values, start) == expected


@pytest.mark.skipif(sys.version_info < (3, 12), reason="compares with CPython 3.12's sum")
@given(st.lists(st.one_of(st.floats(), st.integers(-(2**80), 2**80), st.booleans())),
       st.sampled_from([0, 0.0, -0.0, 5]))
def test_py312_sum_equals_the_builtin(values, start):
    expected, actual = sum(values, start), py312_sum(values, start)
    assert type(actual) is type(expected)
    assert repr(actual) == repr(expected)
