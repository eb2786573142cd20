"""A pure-Python copy of CPython 3.12's built-in ``sum``.

CPython 3.12 sums floats with compensated (Neumaier) summation, while
3.10 and 3.11 add left to right, so the same list can sum to different
floats on different interpreters. ``test_output_pins.py`` installs this
copy as ``builtins.sum`` on any interpreter, to check that no figure's
output depends on which ``sum`` runs.

It follows ``builtin_sum_impl`` in CPython 3.12's ``Python/bltinmodule.c``
branch for branch: a C-long fast path while the items are exact ints or
bools, a compensated C-double fast path while they are exact floats (an
int that fits a C long is added uncompensated), and plain ``+`` for
everything else, including numpy scalars.
"""

from __future__ import annotations

import math

_LONG_MIN = -(2**63)
_LONG_MAX = 2**63 - 1


def _fits_long(value: int) -> bool:
    return _LONG_MIN <= value <= _LONG_MAX


def py312_sum(iterable, /, start=0):
    """``sum(iterable, start)`` as CPython 3.12 computes it.

    A ``str``, ``bytes`` or ``bytearray`` start, which the built-in
    rejects, is not checked.
    """
    items = iter(iterable)
    result = start

    if type(result) is int and _fits_long(result):
        total = result
        for item in items:
            if type(item) in (int, bool) and _fits_long(item) and _fits_long(total + item):
                total += item
                continue
            result = total + item
            break
        else:
            return total

    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                added = total + item
                if abs(total) >= abs(item):
                    compensation += (total - added) + item
                else:
                    compensation += (item - added) + total
                total = added
                continue
            if isinstance(item, int) and _fits_long(item):
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total

    for item in items:
        result = result + item
    return result
