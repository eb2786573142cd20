"""Regenerate ``references.json``: the paper-serial reference digests.

Run from the repository root (about ten seconds per seed on a 2-core VM)::

    python3 perfbench/make_references.py

Each pass seed in ``bench.REFERENCE_SEEDS`` gets the digest of every
figure of a serial, in-process, paper-scale run. Regenerate only when a
change is meant to alter figure results; the benchmark reports any
digest it cannot match as a failed delivery.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import PAPER_FIGURES, REFERENCE_FILE, REFERENCE_SEEDS, serial_digests

    seeds = {}
    for seed in REFERENCE_SEEDS:
        seeds[str(seed)] = serial_digests(seed, PAPER_FIGURES)
        print(f"seed {seed}: {len(seeds[str(seed)])} figures", flush=True)
    REFERENCE_FILE.write_text(json.dumps({"seeds": seeds}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
