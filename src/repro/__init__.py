"""repro — a simulated reproduction of "A Fresh Look at the Architecture
and Performance of Contemporary Isolation Platforms" (Middleware '21).

Public API tour:

* :func:`repro.platforms.get_platform` — construct any studied platform;
* :mod:`repro.workloads` — the benchmark programs (ffmpeg, fio, iperf3...);
* :mod:`repro.core` — the benchmark suite: experiments, runner, figures;
* :mod:`repro.security` — HAP / EPSS isolation measurement.

Quickstart::

    from repro import BenchmarkSuite
    suite = BenchmarkSuite(seed=42)
    result = suite.run_figure("fig11")
    print(result.render())
"""

from repro.errors import (
    ConfigurationError,
    PlatformError,
    ReproError,
    SimulationError,
    TraceError,
    UnsupportedOperationError,
)
from repro.rng import RngStream

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "SimulationError",
    "ConfigurationError",
    "PlatformError",
    "UnsupportedOperationError",
    "TraceError",
    "RngStream",
    "__version__",
    "BenchmarkSuite",
    "ExecutionPolicy",
    "ExperimentScheduler",
    "ResultStore",
    "StoreServer",
    "RemoteStore",
    "TieredStore",
]

_LAZY_EXPORTS = {
    "BenchmarkSuite": ("repro.core.suite", "BenchmarkSuite"),
    "ExecutionPolicy": ("repro.core.scheduler", "ExecutionPolicy"),
    "ExperimentScheduler": ("repro.core.scheduler", "ExperimentScheduler"),
    "ResultStore": ("repro.core.store", "ResultStore"),
    "StoreServer": ("repro.core.storenet", "StoreServer"),
    "RemoteStore": ("repro.core.storenet", "RemoteStore"),
    "TieredStore": ("repro.core.storenet", "TieredStore"),
}


def __getattr__(name: str):
    # Lazy import: keep `import repro` light while exposing the execution
    # layer (suite, scheduler, store) at top level.
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
