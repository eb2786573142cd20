"""The three closed-loop workloads, their correctness checks and metrics.

One client keeps one figure in flight at a time: a *pass* requests every
figure of the workload in order through ``ExperimentScheduler.run``, and
the next request starts only when the previous figure was delivered.

* ``paper-serial`` — all 15 figures at paper scale, serially in this
  process, no store: the ``repro-bench run all`` path. Cell execution and
  the discrete-event engine (fig16) dominate.
* ``fleet-cold`` — the ten cheap-cell figures at paper scale through one
  ``repro-bench worker`` and one ``repro-bench store``. Every figure lookup
  misses and every cell claims a lease, runs and publishes: dispatch, wire
  and lease RPCs show, while the DES does little.
* ``warm-rerun`` — all 15 figures read back through ``TieredStore(None,
  RemoteStore)`` from a store filled during set-up. Nothing executes: the
  read side of the store that ``fleet-cold`` writes.

Every pass uses a fresh seed derived from the benchmark's seed argument,
so a run with the same seed repeats identical work. Every delivered figure
is checked against a serial reference by a digest of
``FigureResult.comparable_dict()``.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import heapq
import json
import math
import os
import pathlib
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.figures import FIGURES
from repro.core.remote import RemoteMapper
from repro.core.scheduler import ExecutionPolicy, ExperimentScheduler
from repro.core.storenet import RemoteStore, TieredStore

from perfbench import tracing
from perfbench.services import ServiceSet

#: All figures, in registry order (the paper-serial and warm-rerun pass).
PAPER_FIGURES = tuple(FIGURES)

#: Figures whose cells are cheap: no startup CDFs (fig13-15), no
#: memcached DES (fig16), no HAP table (fig18).
CHEAP_FIGURES = (
    "fig05", "cpu-prime", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12", "fig17",
)

#: Pass seeds of paper-serial (and the seed warm-rerun fills its store
#: with) come from this pool, so each has reference digests kept in
#: ``references.json``; the seed argument picks their order.
REFERENCE_SEEDS = tuple(range(1001, 1017))
REFERENCE_FILE = pathlib.Path(__file__).resolve().parent / "references.json"

#: Passes a run makes at least, whatever its ``--seconds``.
MIN_PASSES = 3

#: A figure request that takes longer than this counts as hung.
REQUEST_TIMEOUT_S = 120.0

#: Service start-ups per run; set-up reports their median.
SETUP_ROUNDS = 3

#: The host's speed drifts by up to ~1.6x for stretches of seconds (shared
#: cores). A fixed unit of the benchmark's own pure-Python work is timed
#: every CALIBRATE_EVERY_S of wall time, from a timer signal, and every
#: end-to-end time is reported as if that unit took KERNEL_REF_S of CPU
#: ("reference seconds").
KERNEL_REF_S = 0.002
CALIBRATE_EVERY_S = 0.25

#: Samples this close to a request's ends count as taken during it: every
#: request is preceded by one, since the timer alone leaves a request
#: shorter than its period up to 125 ms from the nearest sample.
ADJACENT_S = 0.01


class _Entry:
    __slots__ = ("rank", "value")

    def __init__(self, rank: int, value: int) -> None:
        self.rank = rank
        self.value = value


def calibration_kernel() -> float:
    """CPU seconds that one fixed unit of heap, object and dict work takes.

    The benchmark's own code, so no change to the program can move it.
    The collector is off, so the program's heap size cannot either, and
    thread CPU time leaves out other processes sharing the CPU.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        heap: list = []
        table: dict = {}
        total = 0
        for index in range(2000):
            entry = _Entry((index * 7919) % 1009, index)
            heapq.heappush(heap, (entry.rank, index, entry))
            table[index & 255] = entry
            if len(heap) > 64:
                total += heapq.heappop(heap)[2].value
        return time.thread_time() - started
    finally:
        if enabled:
            gc.enable()


class RequestTimeout(Exception):
    """A figure request outlived :data:`REQUEST_TIMEOUT_S`."""


class HostClock:
    """Samples the host's speed on a timer and converts raw seconds.

    While entered, SIGALRM fires every :data:`CALIBRATE_EVERY_S`; the
    handler (on the main thread, between bytecodes) times the calibration
    kernel, adds its wall time to :attr:`paused` so callers can leave it
    out of their timings, and raises :class:`RequestTimeout` once a
    request outlives :attr:`deadline`.
    """

    def __init__(self) -> None:
        #: (perf_counter when taken, CPU seconds the kernel took)
        self.samples: list[tuple[float, float]] = []
        #: Wall seconds spent in the handler so far.
        self.paused = 0.0
        #: perf_counter after which the current request counts as hung.
        self.deadline: float | None = None
        self._previous: Any = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        self.samples.append((started, calibration_kernel()))
        self.paused += time.perf_counter() - started
        if self.deadline is not None and started > self.deadline:
            self.deadline = None
            raise RequestTimeout(f"no delivery within {REQUEST_TIMEOUT_S:.0f} s")

    def sample(self) -> None:
        """Take one sample now, with the timer's held off meanwhile."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.samples.append((time.perf_counter(), calibration_kernel()))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per raw second over ``[start, end]``: the mean
        over the samples during it, else the nearest sample's."""
        inside = [took for at, took in self.samples
                  if start - ADJACENT_S <= at <= end + ADJACENT_S]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.fmean(KERNEL_REF_S / took for took in inside)


def digest(result: Any) -> str:
    """Digest of a figure's backend- and cache-independent content."""
    payload = json.dumps(result.comparable_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def warmup_kwargs(figure_id: str) -> dict[str, Any]:
    """Reduced-scale arguments that touch every code path of a figure."""
    if figure_id in ("fig13", "fig14", "fig15"):
        return {"startups": 10}
    if figure_id == "fig18":
        return {}
    return {"repetitions": 1}


def load_references(path: pathlib.Path = REFERENCE_FILE) -> dict[int, dict[str, str]]:
    """Kept reference digests: pass seed -> figure id -> digest."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    return {int(seed): dict(figures) for seed, figures in payload["seeds"].items()}


def serial_digests(seed: int, figures: tuple[str, ...], store: Any = None) -> dict[str, str]:
    """Digests of a serial in-process run of ``figures`` (optionally
    writing each result to ``store``)."""
    scheduler = ExperimentScheduler(seed=seed, policy=ExecutionPolicy.serial(), store=store)
    digests = {}
    for figure_id in figures:
        report = scheduler.run([figure_id])
        report.raise_for_errors()
        digests[figure_id] = digest(report.results[figure_id])
    return digests


@dataclass
class Delivery:
    """One figure request of a timed pass and what came back."""

    figure_id: str
    latency_s: float
    start: float
    cells: int
    #: perf_counter when the request returned (start + latency + paused).
    end: float = 0.0
    #: The latency in reference seconds (see :class:`HostClock`).
    norm_s: float = 0.0
    cache: str | None = None
    digest: str | None = None
    #: Why the delivery failed (None = delivered as expected so far).
    failure: str | None = None
    #: True when no reference exists to compare the digest with.
    unchecked: bool = False


@dataclass
class Pass:
    """One timed pass: every figure of the workload, once."""

    index: int
    seed: int
    traced: bool
    #: Sum of the pass's request latencies, raw and in reference seconds.
    wall_s: float = 0.0
    norm_s: float = 0.0
    deliveries: list[Delivery] = field(default_factory=list)
    #: Store-server cell-tier counters gained during the pass.
    lease_claims: int = 0
    lease_hits: int = 0
    #: Why the pass stopped early (a hung request), else None.
    aborted: str | None = None

    def sample(self) -> dict[str, Any]:
        """The raw record written to ``samples.jsonl``."""
        return {
            "pass": self.index,
            "seed": self.seed,
            "traced": self.traced,
            "wall_s": self.wall_s,
            "norm_s": self.norm_s,
            "lease_claims": self.lease_claims,
            "lease_hits": self.lease_hits,
            "figures": [
                {"id": d.figure_id, "latency_s": d.latency_s, "norm_s": d.norm_s,
                 "start": d.start, "cells": d.cells,
                 "cache": d.cache, "digest": d.digest, "failure": d.failure,
                 "unchecked": d.unchecked}
                for d in self.deliveries
            ],
        }


class Workload:
    """One benchmark workload: its set-up, its passes and its checks."""

    name = ""
    figures: tuple[str, ...] = ()
    uses_services = False

    def __init__(self, seed: int, trace: bool, service_root: pathlib.Path,
                 clock: HostClock | None = None) -> None:
        self.seed = seed
        self.trace = trace
        self.clock = clock or HostClock()
        self.rng = random.Random(f"{self.name}/{seed}")
        self.warmup_rng = random.Random(f"{self.name}/{seed}/warm-up")
        self.services = ServiceSet(service_root)
        #: Set-up steps that went wrong; each counts as a failed operation.
        self.problems: list[str] = []
        self.setup: dict[str, float] = {}
        self.widths: dict[str, int] = {}
        self.store: TieredStore | None = None
        self.worker_address: str | None = None
        self.traced_worker: Any = None
        self.references: dict[int, dict[str, str]] = {}

    # --- set-up ------------------------------------------------------------------

    def start_services(self) -> None:
        """Start store and worker :data:`SETUP_ROUNDS` times, keeping the last."""
        rounds = []
        for round_index in range(SETUP_ROUNDS):
            started = time.perf_counter()
            store = self.services.launch("store")
            worker = self.services.launch("worker")
            store_address, worker_address = store.wait_ready(), worker.wait_ready()
            listening = time.perf_counter()
            remote = RemoteStore(store_address)
            remote.supports("get")  # connect + hello
            with RemoteMapper([worker_address]) as mapper:
                mapper.connect()
            connected = time.perf_counter()
            rounds.append((listening - started, connected - listening))
            if round_index < SETUP_ROUNDS - 1:
                remote.close()
                self.services.stop(worker)
                self.services.stop(store)
        middle = sorted(rounds, key=sum)[len(rounds) // 2]
        self.setup["services_s"], self.setup["connect_s"] = middle
        self.store = TieredStore(None, remote)
        self.worker_address = worker_address

    def populate(self) -> None:
        """Fill the store before timing starts (only warm-rerun does)."""

    def warm_up(self) -> None:
        """One untimed reduced-scale pass over every figure, on each worker."""
        for traced in (False, True) if self.traced_worker is not None else (False,):
            scheduler = self.scheduler(self.warmup_rng.randrange(1, 2**31), traced)
            for figure_id in self.figures:
                scheduler.run([figure_id], overrides={figure_id: warmup_kwargs(figure_id)})

    def prepare(self) -> None:
        """Everything between the imports and the first timed pass.

        ``setup["factor"]`` converts it to reference seconds: the host
        clock's factor over the whole of it."""
        started_setup = time.perf_counter()
        if self.uses_services:
            self.start_services()
            if self.trace:
                # Spans from the worker side come from a second worker run
                # by the benchmark's traced launcher; the untraced passes
                # keep using the plain one.
                self.traced_worker = self.services.launch("worker", traced=True)
                self.traced_worker.wait_ready()
        started = time.perf_counter()
        self.populate()
        self.setup["populate_s"] = time.perf_counter() - started
        started = time.perf_counter()
        lowering = ExperimentScheduler(seed=self.seed)
        self.widths = {fid: lowering.plan_for(fid).width for fid in self.figures}
        self.warm_up()
        self.setup["warmup_s"] = time.perf_counter() - started
        self.setup["factor"] = self.clock.factor(started_setup, time.perf_counter())

    # --- passes ------------------------------------------------------------------

    def pass_seed(self, index: int) -> int:
        return self.rng.randrange(1, 2**31)

    def scheduler(self, seed: int, traced: bool) -> ExperimentScheduler:
        return ExperimentScheduler(seed=seed, policy=ExecutionPolicy.serial())

    def reference(self, seed: int) -> dict[str, str] | None:
        """Reference digests for one pass seed (None = no reference)."""
        return self.references.get(seed)

    def disposition_problem(self, record: Any) -> str | None:
        """Why a job record's cache disposition is wrong (None = right)."""
        if record.cache != "miss":
            return f"cache={record.cache}, expected miss"
        return None

    def lease_counters(self) -> tuple[int, int]:
        """(claims, hits) of the store's cell tier so far."""
        if self.store is None:
            return 0, 0
        cells = self.store.remote.server_stats()["cells"]
        return int(cells["claims"]), int(cells["hits"])

    def put_repeats(self) -> int:
        if self.store is None:
            return 0
        return int(self.store.remote.server_stats()["cells"]["put_repeats"])

    def worker_spans(self) -> list:
        """Stop the traced worker and read the spans it wrote on exit."""
        if self.traced_worker is None:
            return []
        self.services.stop(self.traced_worker)
        try:
            return json.loads(self.traced_worker.spans_file.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.services.failures.append("the traced worker wrote no spans")
            return []

    def close(self) -> list[str]:
        """Stop every service; return what went wrong doing so."""
        if self.store is not None:
            self.store.close()
        self.services.close()
        return self.services.failures


class PaperSerial(Workload):
    name = "paper-serial"
    figures = PAPER_FIGURES

    def prepare(self) -> None:
        self.references = load_references()
        order = list(REFERENCE_SEEDS)
        self.rng.shuffle(order)
        self._order = order
        super().prepare()

    def pass_seed(self, index: int) -> int:
        return self._order[index % len(self._order)]


class FleetCold(Workload):
    name = "fleet-cold"
    figures = CHEAP_FIGURES
    uses_services = True

    def scheduler(self, seed: int, traced: bool) -> ExperimentScheduler:
        worker = self.traced_worker.address if traced else self.worker_address
        policy = ExecutionPolicy(workers=(worker,), store_url=self.store.url)
        return ExperimentScheduler(seed=seed, policy=policy, store=self.store)

    def reference(self, seed: int) -> dict[str, str]:
        # A serial in-process run of the same pass, made between passes.
        return serial_digests(seed, self.figures)

    def disposition_problem(self, record: Any) -> str | None:
        if record.cache != "miss":
            return f"cache={record.cache}, expected miss"
        expected = {"executed": record.grid_width, "store_hits": 0}
        if record.dedupe != expected:
            return f"dedupe={record.dedupe}, expected {expected}"
        return None


class WarmRerun(Workload):
    name = "warm-rerun"
    figures = PAPER_FIGURES
    uses_services = True

    def populate(self) -> None:
        # A first client computes every figure serially and writes it to
        # the store; the timed client then only reads. The population is
        # also the reference, and is itself checked against the kept
        # digests of its seed.
        self.populated_seed = self.rng.choice(REFERENCE_SEEDS)
        with TieredStore(None, RemoteStore(self.store.url)) as writer:
            self.population = serial_digests(self.populated_seed, self.figures, writer)
        self.references = {self.populated_seed: self.population}
        kept = load_references().get(self.populated_seed)
        if kept is not None and kept != self.population:
            self.problems.append(
                f"population of seed {self.populated_seed} differs from the kept digests")

    def warm_up(self) -> None:
        scheduler = self.scheduler(self.populated_seed, False)
        for figure_id in self.figures:
            scheduler.run([figure_id])

    def pass_seed(self, index: int) -> int:
        return self.populated_seed

    def scheduler(self, seed: int, traced: bool) -> ExperimentScheduler:
        return ExperimentScheduler(seed=seed, store=self.store)

    def disposition_problem(self, record: Any) -> str | None:
        if record.cache != "hit-remote":
            return f"cache={record.cache}, expected hit-remote"
        return None


WORKLOAD_CLASSES = {cls.name: cls for cls in (PaperSerial, FleetCold, WarmRerun)}


# --- the timed loop ------------------------------------------------------------------


def run_pass(workload: Workload, index: int, traced: bool,
             tracer: tracing.Tracer | None, clock: HostClock) -> Pass:
    """Time one pass; check its deliveries afterwards, outside the timing.

    Time the host clock's handler took is left out of each latency."""
    seed = workload.pass_seed(index)
    record = Pass(index, seed, traced)
    scheduler = workload.scheduler(seed, traced)
    claims_before = workload.lease_counters() if workload.uses_services else (0, 0)
    results: dict[str, Any] = {}
    records: dict[str, Any] = {}
    gc.collect()
    patches = tracing.install(tracer, "client") if traced else None
    try:
        for figure_id in workload.figures:
            if tracer is not None:
                tracer.tag = (index, figure_id)
            clock.sample()
            delivery = Delivery(figure_id, 0.0, time.perf_counter(),
                                workload.widths[figure_id])
            paused = clock.paused
            clock.deadline = delivery.start + REQUEST_TIMEOUT_S
            try:
                report = scheduler.run([figure_id])
            except Exception as exc:
                delivery.failure = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, RequestTimeout):
                    # A hung service: later requests would hang too.
                    record.aborted = delivery.failure
            else:
                results[figure_id] = report.results.get(figure_id)
                records[figure_id] = report.records[0]
            finally:
                clock.deadline = None
                delivery.end = time.perf_counter()
                delivery.latency_s = delivery.end - delivery.start - (clock.paused - paused)
            record.deliveries.append(delivery)
            if record.aborted:
                break
    finally:
        if patches is not None:
            patches.restore()
        if tracer is not None:
            tracer.tag = None
    record.wall_s = sum(d.latency_s for d in record.deliveries)
    if workload.uses_services:
        claims, hits = workload.lease_counters()
        record.lease_claims = claims - claims_before[0]
        record.lease_hits = hits - claims_before[1]
    check_pass(workload, record, results, records)
    return record


def check_pass(workload: Workload, record: Pass, results: dict[str, Any],
               records: dict[str, Any]) -> None:
    """Mark each delivery failed, unchecked, or (by default) correct."""
    reference = workload.reference(record.seed)
    for delivery in record.deliveries:
        if delivery.failure is not None:
            continue
        job = records[delivery.figure_id]
        result = results[delivery.figure_id]
        delivery.cache = job.cache
        if job.error or result is None:
            delivery.failure = f"job raised: {job.error}"
            continue
        delivery.digest = digest(result)
        problem = workload.disposition_problem(job)
        expected = (reference or {}).get(delivery.figure_id)
        if problem is not None:
            delivery.failure = problem
        elif expected is None:
            delivery.unchecked = True
        elif expected != delivery.digest:
            delivery.failure = f"digest {delivery.digest} != reference {expected}"


def measure(workload: Workload, seconds: float, tracer: tracing.Tracer | None,
            clock: HostClock) -> list[Pass]:
    """Run passes for about ``seconds``: another pass starts while the
    elapsed time plus half a typical pass is below the budget, or while
    fewer than :data:`MIN_PASSES` ran (a median needs three). Traced runs
    alternate traced and untraced passes, traced first. A hung request
    ends the loop. Latencies are then converted to reference seconds."""
    passes: list[Pass] = []
    started = time.perf_counter()
    while not (passes and passes[-1].aborted):
        if len(passes) >= MIN_PASSES:
            typical = statistics.median(p.wall_s for p in passes)
            if time.perf_counter() - started + typical / 2 >= seconds:
                break
        traced = tracer is not None and len(passes) % 2 == 0
        passes.append(run_pass(workload, len(passes), traced, tracer, clock))
    for record in passes:
        for delivery in record.deliveries:
            delivery.norm_s = delivery.latency_s * clock.factor(delivery.start, delivery.end)
        record.norm_s = sum(d.norm_s for d in record.deliveries)
    return passes


# --- metrics -------------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (exclusive method; the median for 50)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="exclusive")[q - 1]


def end_to_end(passes: list[Pass], setup: dict[str, float], peak_mib: float) -> dict:
    """The user-visible metrics of the untraced passes, with sample counts.
    Times are in reference seconds (see :class:`HostClock`)."""
    timed = [p for p in passes if not p.traced]
    walls = [p.norm_s for p in timed]
    latencies = [d.norm_s * 1000 for p in timed for d in p.deliveries]
    cells = sum(d.cells for p in timed for d in p.deliveries if d.failure is None)
    raw = statistics.median(p.wall_s for p in timed)
    by_figure: dict[str, list[float]] = {}
    for record in timed:
        for delivery in record.deliveries:
            by_figure.setdefault(delivery.figure_id, []).append(delivery.norm_s * 1000)
    return {
        "pass_s": (statistics.median(walls), "s",
                   f"median of {len(walls)} passes (raw {raw:.4g} s)"),
        "cells_per_s": (cells / sum(walls), "cells/s",
                        f"{cells} cells delivered in {sum(walls):.1f} s"),
        # Figures differ in cost by up to 1000x, so a pooled median lands
        # on the boundary between two figures and flips between them; the
        # geometric mean of per-figure medians moves with every figure.
        "figure_geomean_ms": (statistics.geometric_mean(
            statistics.median(values) for values in by_figure.values()), "ms",
            f"geometric mean of {len(by_figure)} figures' medians over {len(timed)} passes"),
        "figure_p95_ms": (percentile(latencies, 95), "ms",
                          f"{len(latencies) // 20} of {len(latencies)} beyond it"),
        "setup_s": (setup_seconds(setup) * setup["factor"], "s",
                    f"raw {setup_seconds(setup):.4g} s; "
                    + (f"median of {SETUP_ROUNDS} service start-ups" if "services_s" in setup
                       else "imports + warm-up")),
        "peak_rss_mb": (peak_mib, "MiB", "client and services, highest VmHWM"),
    }


def setup_seconds(setup: dict[str, float]) -> float:
    return (setup["import_s"] + setup.get("services_s", 0.0) + setup.get("connect_s", 0.0)
            + setup["populate_s"] + setup["warmup_s"])


def _attribute(spans: list, windows: list[tuple[float, float, int]]) -> list[tuple]:
    """Tag worker-process spans with the pass whose request window holds
    their start (the clocks are shared); drop the rest (warm-up)."""
    windows = sorted(windows)
    starts = [lo for lo, _hi, _index in windows]
    tagged = []
    for span in spans:
        at = bisect.bisect_right(starts, span[3]) - 1
        if at >= 0 and span[3] <= windows[at][1]:
            tagged.append(tuple(span[:5]) + ((windows[at][2], None), span[6]))
    return tagged


LAYER_UNITS = {
    "scheduler.self_s": "s", "plan.lower_s": "s", "plan.cell_token_s": "s",
    "plan.token_use_frac": "fraction", "plan.fold_s": "s", "rng.materialize_s": "s",
    "workloads.execute_s": "s", "workloads.cells": "count",
    "simcore.run_s": "s", "simcore.events": "count", "simcore.events_per_s": "1/s",
    "remote.dispatch_s": "s", "remote.send_s": "s", "remote.wait_s": "s",
    "remote.chunks": "count", "remote.chunk_cells": "cells/chunk",
    "remote.bytes_per_cell": "B/cell",
    "worker.execute_s": "s", "worker.lease_s": "s", "worker.lease_rpcs": "count",
    "storenet.lease_hit_frac": "fraction", "storenet.put_repeats": "count",
    "store.get_s": "s", "store.hit_frac": "fraction", "store.put_s": "s",
    "store.bytes_per_lookup": "B/lookup",
    "results.decode_s": "s", "results.encode_s": "s",
    "setup.import_s": "s", "setup.services_s": "s", "setup.connect_s": "s",
    "setup.populate_s": "s", "setup.warmup_s": "s",
    "trace.overhead_frac": "fraction",
    **{f"figure.{fid}.s": "s" for fid in PAPER_FIGURES},
}

#: What the wrappers cannot separate from outside the program.
UNMEASURED = (
    "the store process is not traced: store.get_s, store.put_s and "
    "worker.lease_s include its service time as the caller sees it",
    "remote.wait_s includes the worker's execution and lease RPCs, which "
    "worker.execute_s and worker.lease_s report separately",
)

#: Span names whose metric is inclusive time; every other ``*_s`` is self time.
_INCLUSIVE = {"workloads.execute", "worker.execute"}


def per_layer(passes: list[Pass], client_spans: list, worker_spans: list,
              setup: dict[str, float], put_repeats: int) -> dict[str, float]:
    """Per-pass medians of each layer's numbers over the traced passes."""
    traced = [p for p in passes if p.traced]
    windows = [(d.start, d.end, p.index) for p in traced for d in p.deliveries]
    totals: dict[int, dict[str, dict[str, float]]] = {p.index: {} for p in traced}
    for spans in (client_spans, _attribute(worker_spans, windows)):
        for span, self_s in tracing.self_times(spans):
            tag = span[5]
            if tag is None or tag[0] not in totals:
                continue
            name, info = span[2], span[6] or {}
            entry = totals[tag[0]].setdefault(name, {"s": 0.0, "incl": 0.0, "calls": 0})
            entry["s"] += self_s
            entry["incl"] += span[4] - span[3]
            entry["calls"] += 1
            for key in ("events", "bytes", "cells"):
                entry[key] = entry.get(key, 0) + info.get(key, 0)
            if info.get("chunk_size"):
                entry["chunks"] = entry.get("chunks", 0) + math.ceil(
                    info["cells"] / info["chunk_size"])

    def med(fn: Any) -> float:
        return statistics.median(fn(p, totals[p.index]) for p in traced) if traced else 0.0

    def get(t: dict, name: str, key: str = "s") -> float:
        if key == "s" and name in _INCLUSIVE:
            key = "incl"
        return t.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    untraced = [p.norm_s for p in passes if not p.traced]
    metrics = {
        "scheduler.self_s": med(lambda p, t: get(t, "scheduler")),
        "plan.lower_s": med(lambda p, t: get(t, "plan.lower")),
        "plan.cell_token_s": med(lambda p, t: get(t, "plan.cell_token")),
        "plan.token_use_frac": med(
            lambda p, t: ratio(p.lease_claims, get(t, "plan.cell_token", "calls"))),
        "plan.fold_s": med(lambda p, t: get(t, "plan.fold")),
        "rng.materialize_s": med(lambda p, t: get(t, "rng.materialize")),
        "workloads.execute_s": med(lambda p, t: get(t, "workloads.execute")),
        "workloads.cells": med(lambda p, t: get(t, "workloads.execute", "calls")
                               + get(t, "worker.execute", "calls")),
        "simcore.run_s": med(lambda p, t: get(t, "simcore.run")),
        "simcore.events": med(lambda p, t: get(t, "simcore.run", "events")),
        "simcore.events_per_s": med(lambda p, t: ratio(
            get(t, "simcore.run", "events"), get(t, "simcore.run", "incl"))),
        "remote.dispatch_s": med(lambda p, t: get(t, "remote.dispatch")),
        "remote.send_s": med(lambda p, t: get(t, "remote.send")),
        "remote.wait_s": med(lambda p, t: get(t, "remote.wait")),
        "remote.chunks": med(lambda p, t: get(t, "remote.dispatch", "chunks")),
        "remote.chunk_cells": med(lambda p, t: ratio(
            get(t, "remote.dispatch", "cells"), get(t, "remote.dispatch", "chunks"))),
        "remote.bytes_per_cell": med(lambda p, t: ratio(
            get(t, "remote.dispatch", "bytes"), get(t, "remote.dispatch", "cells"))),
        "worker.execute_s": med(lambda p, t: get(t, "worker.execute")),
        "worker.lease_s": med(lambda p, t: get(t, "worker.lease")),
        "worker.lease_rpcs": med(lambda p, t: get(t, "worker.lease", "calls")),
        "storenet.lease_hit_frac": med(lambda p, t: ratio(p.lease_hits, p.lease_claims)),
        "storenet.put_repeats": float(put_repeats),
        "store.get_s": med(lambda p, t: get(t, "store.get")),
        "store.hit_frac": med(lambda p, t: ratio(
            sum(1 for d in p.deliveries if (d.cache or "").startswith("hit")),
            get(t, "store.get", "calls"))),
        "store.put_s": med(lambda p, t: get(t, "store.put")),
        "store.bytes_per_lookup": med(lambda p, t: ratio(
            get(t, "store.get", "bytes"), get(t, "store.get", "calls"))),
        "results.decode_s": med(lambda p, t: get(t, "results.decode")),
        "results.encode_s": med(lambda p, t: get(t, "results.encode")),
        "setup.import_s": setup["import_s"],
        "setup.services_s": setup.get("services_s", 0.0),
        "setup.connect_s": setup.get("connect_s", 0.0),
        "setup.populate_s": setup["populate_s"],
        "setup.warmup_s": setup["warmup_s"],
        "trace.overhead_frac": (
            statistics.median(p.norm_s for p in traced) / statistics.median(untraced) - 1
            if traced and untraced else 0.0),
    }
    for figure_id in PAPER_FIGURES:
        latencies = [d.latency_s for p in traced for d in p.deliveries
                     if d.figure_id == figure_id]
        metrics[f"figure.{figure_id}.s"] = statistics.median(latencies) if latencies else 0.0
    return metrics


def purpose_checks(name: str, metrics: dict[str, float], traced_wall_s: float,
                   cheap_cells: int) -> list:
    """What the traced run must confirm each workload is for."""
    checks = [("storenet.put_repeats is 0", metrics["storenet.put_repeats"] == 0)]
    if name == "paper-serial":
        share = metrics["workloads.execute_s"] / traced_wall_s
        checks.append((f"workloads.execute_s is {share:.0%} of the pass (>= 80%)",
                       share >= 0.8))
    elif name == "fleet-cold":
        share = sum(metrics[k] for k in (
            "worker.lease_s", "remote.send_s", "store.put_s", "plan.lower_s")) / traced_wall_s
        checks.append((f"lease + send + put + lower are {share:.0%} of the pass (>= 25%)",
                       share >= 0.25))
        cells = metrics["workloads.cells"]
        checks.append((f"{cells:.0f} cells per pass, the ten cheap grids only "
                       f"(no fig13-16 cell runs)", cells == cheap_cells))
    else:
        checks.append(("zero cells execute", metrics["workloads.cells"] == 0))
    return checks


def pin_to_one_cpu() -> int:
    """Pin this process (and the services it starts) to one allowed CPU.

    The client and its services run in lockstep, so one CPU costs no
    parallelism; it removes the run-to-run variation of where the OS puts
    them, and the host clock then samples the CPU the work runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
