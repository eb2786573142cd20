"""Regenerate ``output_pins.json`` and ``store_key_pins.json``.

Run from the repository root::

    python tests/integration/make_output_pins.py

``output_pins.json`` holds what each figure computes
(``test_output_pins.py``); ``store_key_pins.json`` holds where it is
filed (``test_store_key_pins.py``). Regenerate only when a change is
meant to move a figure's output or address, and say in CHANGES.md which
figure moved and why.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from test_output_pins import PINS_FILE, pins_payload  # noqa: E402
from test_store_key_pins import ADDRESS_PINS_FILE, addresses  # noqa: E402


def write(path: pathlib.Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    payload = pins_payload()
    write(PINS_FILE, payload)
    print(f"{PINS_FILE}: {len(payload['figures'])} figures, numpy {payload['numpy']}")
    write(ADDRESS_PINS_FILE, addresses())
    print(f"{ADDRESS_PINS_FILE}: quick and full addresses at seed {payload['seed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
