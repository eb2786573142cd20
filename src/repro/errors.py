"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class PlatformError(ReproError):
    """An isolation platform refused or failed an operation."""


class UnsupportedOperationError(PlatformError):
    """The platform does not support the requested operation.

    This mirrors the real-world incompatibilities the paper reports: e.g.
    Firecracker cannot attach extra block devices, OSv has no ``libaio``
    engine and no ``fork()``/``exec()``, and Kata containers do not support
    hugepages.
    """


class TraceError(ReproError):
    """ftrace-style tracing was misused (e.g. stopped before started)."""
