"""The benchmark suite — the paper's primary contribution, as a library.

* :mod:`repro.core.stats`      — summary statistics, percentiles, CDFs
* :mod:`repro.core.results`    — figure/table result containers + JSON
* :mod:`repro.core.experiment` — the experiment registry (per-figure metadata)
* :mod:`repro.core.runner`     — repetition engine with seed management
* :mod:`repro.core.plan`       — declarative figure plans + grid lowering
* :mod:`repro.core.figures`    — one reproduction plan per paper figure
* :mod:`repro.core.report`     — ASCII rendering of tables and figures
* :mod:`repro.core.findings`   — automated checks of the paper's findings
* :mod:`repro.core.scheduler`  — experiment scheduler + execution policy
* :mod:`repro.core.service`    — the TCP service skeleton (server + client bases)
* :mod:`repro.core.remote`     — remote grid backend (worker fleet over TCP)
* :mod:`repro.core.store`      — persistent content-addressed result store
* :mod:`repro.core.storenet`   — shared (network) result store tier
* :mod:`repro.core.suite`      — the user-facing BenchmarkSuite facade
"""

from repro.core.stats import Summary, summarize, percentile, cdf_points
from repro.core.results import FigureResult, ResultRow, SeriesRow
from repro.core.experiment import Experiment, EXPERIMENTS, get_experiment
from repro.core.runner import (
    PoolMapper,
    RepJob,
    Runner,
    active_grid_mapper,
    execution_context,
    grid_mapper,
    run_rep_job,
)
from repro.core.plan import (
    FigurePlan,
    GridOutcome,
    LoweredGrid,
    MeasurementSpec,
)
from repro.core.remote import (
    RemoteDispatchError,
    RemoteError,
    RemoteJobError,
    RemoteMapper,
    RemoteProtocolError,
    WorkerServer,
)
from repro.core.scheduler import (
    ExecutionPolicy,
    ExperimentScheduler,
    JobRecord,
    SchedulerReport,
)
from repro.core.store import ResultStore, StoreKey
from repro.core.storenet import RemoteStore, RemoteStoreError, StoreServer, TieredStore
from repro.core.suite import BenchmarkSuite
from repro.core.findings import FindingCheck, check_all_findings
from repro.core.density import DensityModel, GuestFootprint
from repro.core.advisor import PlatformAdvisor, WorkloadNeeds, Recommendation
from repro.core.sensitivity import (
    SensitivityResult,
    sweep_clh_net_maturity,
    sweep_ninep_amplification,
    sweep_ninep_vs_virtiofs_crossover,
)

__all__ = [
    "SensitivityResult",
    "sweep_ninep_amplification",
    "sweep_clh_net_maturity",
    "sweep_ninep_vs_virtiofs_crossover",
    "Summary",
    "summarize",
    "percentile",
    "cdf_points",
    "FigureResult",
    "ResultRow",
    "SeriesRow",
    "Experiment",
    "EXPERIMENTS",
    "get_experiment",
    "Runner",
    "RepJob",
    "run_rep_job",
    "grid_mapper",
    "PoolMapper",
    "execution_context",
    "active_grid_mapper",
    "FigurePlan",
    "MeasurementSpec",
    "LoweredGrid",
    "GridOutcome",
    "WorkerServer",
    "RemoteMapper",
    "RemoteError",
    "RemoteProtocolError",
    "RemoteDispatchError",
    "RemoteJobError",
    "ExecutionPolicy",
    "ExperimentScheduler",
    "JobRecord",
    "SchedulerReport",
    "ResultStore",
    "StoreKey",
    "StoreServer",
    "RemoteStore",
    "RemoteStoreError",
    "TieredStore",
    "BenchmarkSuite",
    "FindingCheck",
    "check_all_findings",
    "DensityModel",
    "GuestFootprint",
    "PlatformAdvisor",
    "WorkloadNeeds",
    "Recommendation",
]
