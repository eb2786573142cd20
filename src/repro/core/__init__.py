"""The benchmark suite — the paper's primary contribution, as a library.

* :mod:`repro.core.stats`      — summary statistics and percentiles
* :mod:`repro.core.results`    — figure/table result containers + JSON
* :mod:`repro.core.runner`     — grid jobs and the grid mappers
* :mod:`repro.core.plan`       — declarative figure plans + grid lowering
* :mod:`repro.core.figures`    — the figure registry: one declaration per artefact
* :mod:`repro.core.report`     — ASCII rendering of tables and figures
* :mod:`repro.core.findings`   — automated checks of the paper's findings
* :mod:`repro.core.scheduler`  — experiment scheduler + execution policy
* :mod:`repro.core.service`    — the TCP service skeleton (server + client bases)
* :mod:`repro.core.remote`     — remote grid backend (worker fleet over TCP)
* :mod:`repro.core.store`      — persistent content-addressed result store
* :mod:`repro.core.storenet`   — shared (network) result store tier
* :mod:`repro.core.suite`      — the user-facing BenchmarkSuite facade
"""

from repro.core.stats import Summary, summarize, percentile
from repro.core.results import FigureResult, ResultRow, SeriesRow
from repro.core.runner import PoolMapper, RepJob, run_rep_job
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
from repro.core.findings import FindingCheck
from repro.core.density import DensityModel, GuestFootprint
from repro.core.advisor import PlatformAdvisor, WorkloadNeeds, Recommendation

__all__ = [
    "Summary",
    "summarize",
    "percentile",
    "FigureResult",
    "ResultRow",
    "SeriesRow",
    "RepJob",
    "run_rep_job",
    "PoolMapper",
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
    "DensityModel",
    "GuestFootprint",
    "PlatformAdvisor",
    "WorkloadNeeds",
    "Recommendation",
]
