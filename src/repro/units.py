"""Unit helpers and conversions used throughout the library.

The simulation keeps a single canonical unit per dimension to avoid the
classic source of bugs in performance models:

* time        — **seconds** (floats)
* data size   — **bytes** (ints where possible)
* bandwidth   — **bytes per second**
* frequency   — **hertz**

This module provides named constants and conversion helpers so call sites
read like the quantities in the paper (``128 * KIB``, ``gbit_per_s(37.28)``).
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable

# --- data sizes -----------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

PAGE_SIZE = 4 * KIB
HUGE_PAGE_SIZE = 2 * MIB

# --- time -----------------------------------------------------------------

USEC = 1e-6
MSEC = 1e-3
NSEC = 1e-9


def seconds_to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return seconds * 1e3


def seconds_to_us(seconds: float) -> float:
    """Convert seconds to microseconds."""
    return seconds * 1e6


def seconds_to_ns(seconds: float) -> float:
    """Convert seconds to nanoseconds."""
    return seconds * 1e9


def ms(value: float) -> float:
    """Express a duration given in milliseconds in canonical seconds."""
    return value * MSEC


def us(value: float) -> float:
    """Express a duration given in microseconds in canonical seconds."""
    return value * USEC


def ns(value: float) -> float:
    """Express a duration given in nanoseconds in canonical seconds."""
    return value * NSEC


# --- sums -----------------------------------------------------------------


def left_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, starting from the int 0.

    This is what the built-in ``sum`` computes on Python 3.10 and 3.11.
    From 3.12 on, ``sum`` adds floats with compensated (Neumaier)
    summation, which can round differently in the last bit; a figure
    that sums through this helper gives the same output on every
    interpreter.
    """
    return functools.reduce(operator.add, values, 0)


# --- bandwidth ------------------------------------------------------------


def gbit_per_s(value: float) -> float:
    """Convert gigabits per second to canonical bytes per second."""
    return value * 1e9 / 8.0


def to_gbit_per_s(bytes_per_second: float) -> float:
    """Convert canonical bytes per second to gigabits per second."""
    return bytes_per_second * 8.0 / 1e9


def to_mib_per_s(bytes_per_second: float) -> float:
    """Convert canonical bytes per second to MiB/s."""
    return bytes_per_second / MIB


def to_mb_per_s(bytes_per_second: float) -> float:
    """Convert canonical bytes per second to decimal MB/s (fio convention)."""
    return bytes_per_second / MB


# --- frequency ------------------------------------------------------------

GHZ = 1e9
