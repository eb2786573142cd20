"""Regenerate ``output_pins.json`` for ``test_output_pins.py``.

Run from the repository root::

    python tests/integration/make_output_pins.py

Regenerate only when a change is meant to move a figure's output, and
say in CHANGES.md which figure moved and why.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from test_output_pins import PINS_FILE, pins_payload  # noqa: E402


def main() -> int:
    payload = pins_payload()
    PINS_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{PINS_FILE}: {len(payload['figures'])} figures, numpy {payload['numpy']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
