"""Output gate: every figure's paper-scale digest at every perfbench pool seed.

For each pass seed in ``perfbench.bench.REFERENCE_SEEDS`` (the 16 seeds
``paper-serial`` and ``warm-rerun`` draw from), runs all 15 figures
serially, in-process and at paper scale, and compares each result's
digest with the kept one in ``perfbench/references.json``. A kernel
change that must move no output can move one figure at one seed; the
quick-mode output pins at seed 42 cannot see that, and this check can.

Prints one line per mismatch (seed, figure, both digests) and exits 1,
or prints a one-line summary and exits 0. Writes nothing; about 35 s on
a 2-core VM::

    python benchmarks/check_references.py
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import (
        PAPER_FIGURES,
        REFERENCE_SEEDS,
        load_references,
        serial_digests,
    )

    references = load_references()
    mismatches = 0
    for seed in REFERENCE_SEEDS:
        expected = references.get(seed, {})
        for figure_id, actual in serial_digests(seed, PAPER_FIGURES).items():
            if actual != expected.get(figure_id):
                mismatches += 1
                print(
                    f"seed {seed} {figure_id}: digest {actual}, "
                    f"reference {expected.get(figure_id)}"
                )
    checked = len(REFERENCE_SEEDS) * len(PAPER_FIGURES)
    if mismatches:
        print(f"{mismatches} of {checked} paper-scale digests differ from the references")
        return 1
    print(
        f"all {checked} paper-scale digests ({len(REFERENCE_SEEDS)} seeds x "
        f"{len(PAPER_FIGURES)} figures) equal the references"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
