"""The workload base class."""

from __future__ import annotations

import abc
from typing import Any

from repro.platforms.base import Platform
from repro.rng import RngStream

__all__ = ["Workload"]


class Workload(abc.ABC):
    """Base class for all benchmark workloads.

    Subclasses implement :meth:`run`, which draws any run-to-run variation
    from the supplied :class:`~repro.rng.RngStream` so that repetitions and
    error bars are reproducible.
    """

    #: Registry key and figure label.
    name: str = "workload"

    def check_supported(self, platform: Platform) -> None:
        """Raise :class:`UnsupportedOperationError` when the platform
        cannot run this workload (overridden where the paper excludes
        platforms)."""

    @abc.abstractmethod
    def run(self, platform: Platform, rng: RngStream) -> Any:
        """Execute one repetition and return the workload's result type."""
