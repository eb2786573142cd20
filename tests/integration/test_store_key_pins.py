"""Address pins: where every figure's results are filed, at seed 42.

The output pins (``test_output_pins.py``) hold *what* each figure
computes. These hold *where* it is filed and how it is cut into cells,
so a change to the figure registry, the quick scales or the lowering
cannot move an address unnoticed. For all 15 figures, in quick and in
full mode, ``store_key_pins.json`` records:

* ``store_keys`` — the ``StoreKey.digest`` of
  ``ExperimentScheduler.key_for(id)``, the key ``run --cache`` stores
  under;
* ``findings_keys`` — the digest of ``key_for(id,
  FindingsEvaluator(BenchmarkSuite(seed, quick=q)).overrides_for(id))``,
  the key ``findings --cache`` stores under;
* ``cells`` — a sha256 over the figure's lowered cells'
  ``(spec_key, platform, rep_index, token, stream.seed, stream.path)``.

A moved store key leaves every existing cache cold, and a moved cell
address forks the fleet-wide cell dedupe. Regenerate the fixture with
``python tests/integration/make_output_pins.py`` only when a change is
meant to move an address, and say in CHANGES.md which moved and why.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.core.figures import FIGURES
from repro.core.findings import FindingsEvaluator
from repro.core.plan import LoweredGrid
from repro.core.suite import BenchmarkSuite

ADDRESS_PINS_FILE = pathlib.Path(__file__).with_name("store_key_pins.json")
SEED = 42
MODES = {"quick": True, "full": False}


def cells_digest(grid: LoweredGrid) -> str:
    """sha256 over every lowered cell's coordinates, token and stream."""
    rows = [
        [cell.spec_key, cell.platform, cell.rep_index, cell.job.token,
         cell.job.stream.seed, cell.job.stream.path]
        for cell in grid.cells
    ]
    payload = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def addresses(seed: int = SEED) -> dict:
    """Every pinned address of every figure, per mode."""
    payload: dict = {"seed": seed}
    for mode, quick in MODES.items():
        suite = BenchmarkSuite(seed, quick=quick)
        scheduler, findings = suite.scheduler, FindingsEvaluator(suite)
        payload[mode] = {
            "store_keys": {fid: scheduler.key_for(fid).digest for fid in FIGURES},
            "findings_keys": {
                fid: scheduler.key_for(fid, findings.overrides_for(fid)).digest
                for fid in FIGURES
            },
            "cells": {fid: cells_digest(scheduler.plan_for(fid)) for fid in FIGURES},
        }
    return payload


def test_addresses_match_pins():
    pins = json.loads(ADDRESS_PINS_FILE.read_text(encoding="utf-8"))
    actual = addresses(pins["seed"])
    moved = [
        f"{mode}/{kind}/{figure_id}"
        for mode in MODES
        for kind in pins[mode]
        for figure_id in sorted(set(pins[mode][kind]) | set(actual[mode][kind]))
        if pins[mode][kind].get(figure_id) != actual[mode][kind].get(figure_id)
    ]
    assert not moved, (
        f"{len(moved)} address(es) moved from their pins: {', '.join(moved)}. "
        "A store key or cell address moves only on purpose (ROADMAP item J "
        "moves them once, to add the model to every address): a moved key "
        "leaves every existing cache cold. If the move is meant, regenerate "
        "with `python tests/integration/make_output_pins.py` and say in "
        "CHANGES.md which addresses moved and why."
    )
