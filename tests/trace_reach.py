"""Run every entry point under a profile hook; fail on a def that never runs.

Usage, from the repository root::

    python tests/trace_reach.py

``tests/test_module_reach.py`` checks that an entry point *names* each def
under ``src/repro``, so a dead def that shares its name with a live one
passes it. This script checks that each def *runs*. It writes a
``sitecustomize`` hook into a temporary directory and puts that directory
on every child's ``PYTHONPATH``. The hook records each code object under
``src/repro`` that is called (``sys.setprofile`` and
``threading.setprofile``) and writes the set out when the process exits;
a process-pool child writes it from a ``multiprocessing`` finalizer,
because it leaves through ``os._exit`` and skips ``atexit``. The entry
points are:

* the CLI commands, and the analyzer in every output mode, with
  ``--jobs 2``, ``--update-baseline`` on a copy of the baseline, as the
  ``repro-lint`` module and on CI's two seeded regressions;
* a store, a fleet coordinator, an inline worker and a two-process worker
  registered with the coordinator, each on an ephemeral port, driven by
  ``benchmarks/ci_smoke.py`` with all its legs, a run on a roster of both
  workers, a fleet-plus-store run and a store run cold and warm, then
  stopped with SIGTERM (each must log ``drained``);
* every example, ``pytest benchmarks --benchmark-disable`` and the three
  perfbench workloads with ``--trace 1``. perfbench sets its own
  services' ``PYTHONPATH``, so only its client process is traced.

Every def that never ran needs an :data:`ALLOWLIST` entry; dunders and
``abc.abstractmethod`` bodies are exempt. The script exits 1 on an unrun
def without an entry and on an entry that names no def, and 2 when an
entry point fails, because the trace is then incomplete. An allowlisted
def that ran is no failure. It reads no clock, and it writes only under a
temporary directory and the gitignored ``perfbench-results/``.

pytest does not collect this file, and ``tests/`` is no root of the name
guards, so nothing here keeps a def alive.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: Why a def may never run in the trace. Each :data:`ALLOWLIST` reason
#: starts with one of these and a colon.
KINDS = {
    "fault": "an error or recovery path no entry point drives",
    "pool-child": "runs only where the hook cannot record it",
    "oracle": "a reference model the tests compare against (ROADMAP item L)",
    "by-name": "reached through a visitor or a verb table by its name",
    "api": "reached only through a public Python call that no root makes",
    "planned": "read by the open ROADMAP item the reason names",
    "timing": "ran in some traces and not in others",
}

#: ``"<path under src/repro>:<qualname>": "<kind>: <reason>"``.
ALLOWLIST: dict[str, str] = {
    "analysis/concurrency.py:_MethodWalker._visit_AsyncFunctionDef":
        "by-name: the walker dispatches on the node type; src/repro has no async def",
    "analysis/concurrency.py:_MethodWalker._visit_AsyncWith":
        "by-name: the walker dispatches on the node type; src/repro has no async with",
    "analysis/framework.py:Rule.check_class":
        "api: the hook's default; every registered rule overrides the hook it runs on",
    "analysis/framework.py:Rule.check_module":
        "api: the hook's default; every registered rule overrides the hook it runs on",
    "analysis/framework.py:Rule.check_project":
        "api: the hook's default; every registered rule overrides the hook it runs on",
    "analysis/framework.py:_failure_finding":
        "fault: reports a file the analyzer cannot read or a rule that raised (RB000)",
    "analysis/rules_concurrency.py:LeakedThreadRule._binding_phrase":
        "fault: words an RB204 finding; no analyzed file leaks a thread",
    "analysis/rules_concurrency.py:LockOrderRule._find_path":
        "fault: looks for an RB203 cycle; no analyzed class nests two locks",
    "analysis/rules_concurrency.py:LockOrderRule._is_reentrant":
        "fault: vets an RB203 re-acquisition; no analyzed class nests two locks",
    "analysis/rules_concurrency.py:LockOrderRule.check_class.<locals>.note_edge":
        "fault: records an RB203 edge; no analyzed class nests two locks",
    "core/fleet.py:FleetCoordinator._stats":
        "planned: D; the fleet's stats verb, which the status command will read",
    "core/remote.py:_DispatchState.fail": "fault: a chunk raised on a worker",
    "core/remote.py:_DispatchState.requeue":
        "fault: a worker died mid-dispatch, so its chunks go to the survivors",
    "core/remote.py:_disable_cell_client":
        "fault: the store failed mid-chunk, so the worker stops deduping through it",
    "core/store.py:ResultStore.describe":
        "api: BenchmarkSuite.describe() names its store; no root describes a suite "
        "that has one",
    "core/store.py:ResultStore.stats":
        "by-name: read by the store's stats verb, served only by perfbench's untraced store",
    "core/store.py:ResultStore.usage":
        "by-name: read by the store's stats verb, served only by perfbench's untraced store",
    "core/storenet.py:RemoteStore.describe":
        "api: BenchmarkSuite.describe() names its store; no root describes a suite "
        "that has one",
    "core/storenet.py:RemoteStore.stats":
        "planned: D; the client's hit and miss counters, for run --provenance",
    "core/storenet.py:StoreServer._stats":
        "by-name: the store's stats verb, served only by perfbench's untraced store",
    "core/storenet.py:StoreServer.cell_stats":
        "by-name: read by the store's stats verb, served only by perfbench's untraced store",
    "core/storenet.py:TieredStore.describe":
        "api: BenchmarkSuite.describe() names its store; no root describes a suite "
        "that has one",
    "core/storenet.py:TieredStore.stats":
        "planned: D; the tiers' counters and failed warm-backs, for run --provenance",
    "platforms/base.py:Platform.isolation_mechanisms":
        "api: the default for a platform without barriers; all nine platforms declare theirs",
    "platforms/native.py:NativePlatform.boot_phases":
        "api: the startup workload on native; no startup figure's roster has native",
    "simcore/engine.py:Process._wait_on":
        "oracle: a process waiting on an event, as the oracles' resources do",
    "simcore/engine.py:Process._wait_on.<locals>._on_trigger":
        "oracle: a process waiting on an event, as the oracles' resources do",
    "simcore/engine.py:Simulator.event":
        "oracle: engine API only the engine's tests call; item L prunes it with the engine",
    "simcore/engine.py:Simulator.schedule":
        "oracle: engine API only the engine's tests call; item L prunes it with the engine",
    "simcore/event.py:Event.fail": "fault: a simulated process raised",
    "simcore/resources.py:Resource.acquire": "oracle: the memcached engine model's servers",
    "simcore/resources.py:Resource.release": "oracle: the memcached engine model's servers",
    "simcore/resources.py:Store.get": "oracle: the iperf packet model's queue",
    "simcore/resources.py:Store.put": "oracle: the iperf packet model's queue",
    "simcore/resources.py:TokenBucket.reserve": "oracle: the iperf packet model's link",
    "simcore/resources.py:TokenBucket.transfer": "oracle: the iperf packet model's link",
    "workloads/base.py:Workload.check_supported":
        "api: the default for a workload every platform runs; each guarded workload "
        "overrides it",
    "workloads/iperf.py:IperfWorkload.run_simulated":
        "oracle: the packet-level model the iperf tests compare against",
    "workloads/iperf.py:IperfWorkload.run_simulated.<locals>.sender":
        "oracle: the packet-level model the iperf tests compare against",
    "workloads/iperf.py:IperfWorkload.run_simulated.<locals>.transmitter":
        "oracle: the packet-level model the iperf tests compare against",
}

HOOK = '''\
import atexit
import os
import sys
import threading
from multiprocessing import util

_SRC = os.path.join(os.environ["TRACE_REACH_SRC"], "")
_OUT = os.environ["TRACE_REACH_OUT"]
_seen = set()


def _hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(_SRC):
        code = frame.f_code
        _seen.add((code.co_filename, code.co_firstlineno, code.co_name))


def _dump():
    with open(os.path.join(_OUT, f"{os.getpid()}.tsv"), "a", encoding="utf-8") as out:
        out.writelines(f"{path}\\t{line}\\t{name}\\n" for path, line, name in _seen)


def _after_fork(_obj):
    # A multiprocessing child exits through os._exit, which skips atexit;
    # its exit function runs the finalizers registered after the fork.
    util.Finalize(None, _dump, exitpriority=0)


sys.setprofile(_hook)
threading.setprofile(_hook)
atexit.register(_dump)
util.register_after_fork(_hook, _after_fork)
'''

#: CI's seeded regressions: the analyzer must exit 1 and name the rule.
SEEDED = {
    "RB101": '''\
from dataclasses import dataclass

COSTS = {"pid": 0.12, "net": 3.5, "mnt": 0.7}


@dataclass(frozen=True)
class NamespaceSet:
    kinds: frozenset[str]

    def creation_cost(self) -> float:
        return sum(COSTS[kind] for kind in self.kinds)
''',
    "RB201": '''\
import threading


class FleetCoordinator:
    def __init__(self):
        self._lock = threading.Lock()
        self._members = {}
        self._accept_thread = None

    def start(self):
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self):
        self._members["worker"] = object()

    def members(self):
        with self._lock:
            return dict(self._members)
''',
}

#: Seconds any one entry point may take under the hook.
STEP_TIMEOUT_S = 900


class TraceError(Exception):
    """An entry point failed, so the trace is incomplete."""


# --- the defs under src/repro ------------------------------------------------------


def _is_abstract(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(
        (decorator.attr if isinstance(decorator, ast.Attribute)
         else getattr(decorator, "id", None)) == "abstractmethod"
        for decorator in node.decorator_list
    )


def src_defs(src: pathlib.Path) -> dict[tuple[str, int, str], str]:
    """``(file, first line, name)`` -> ``path:qualname`` of every def that
    must run: functions and methods, less dunders and abstract methods.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    defs = {}

    def walk(parent: ast.AST, path: pathlib.Path, prefix: str) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ClassDef):
                walk(node, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and not _is_abstract(node):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    key = (str(path), first, node.name)
                    defs[key] = f"{path.relative_to(src)}:{prefix}{node.name}"
                walk(node, path, f"{prefix}{node.name}.<locals>.")
            else:
                walk(node, path, prefix)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path, "")
    return defs


def executed(out: pathlib.Path) -> set[tuple[str, int, str]]:
    """Every ``(file, first line, name)`` a traced process called."""
    seen = set()
    for dump in out.glob("*.tsv"):
        for row in dump.read_text(encoding="utf-8").splitlines():
            path, line, name = row.split("\t")
            seen.add((path, int(line), name))
    return seen


def unrun_report(
    defs: dict[tuple[str, int, str], str],
    seen: set[tuple[str, int, str]],
    allowlist: dict[str, str],
) -> tuple[list[str], list[str]]:
    """(unrun defs without an entry, entries that name no def), sorted."""
    names = set(defs.values())
    missing = sorted(name for key, name in defs.items()
                     if key not in seen and name not in allowlist)
    stale = sorted(entry for entry in allowlist if entry not in names)
    return missing, stale


# --- driving the entry points ------------------------------------------------------


class Service:
    """One ``repro-bench`` service on an ephemeral port."""

    def __init__(self, proc: subprocess.Popen, label: str, address: str) -> None:
        self.proc = proc
        self.label = label
        self.address = address


class Tracer:
    """Runs entry points with the hook loaded; logs each under ``tmp``."""

    def __init__(self, tmp: pathlib.Path) -> None:
        self.tmp = tmp
        self.out = tmp / "trace"
        self.logs = tmp / "logs"
        hook = tmp / "hook"
        for directory in (self.out, self.logs, hook):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        paths = [str(REPO / "src"), str(hook), os.environ.get("PYTHONPATH", "")]
        self.env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(path for path in paths if path),
            "PYTHONDONTWRITEBYTECODE": "1",
            "TRACE_REACH_SRC": str(SRC),
            "TRACE_REACH_OUT": str(self.out),
        }
        self.services: list[Service] = []
        self._steps = 0

    def _log(self, label: str) -> pathlib.Path:
        self._steps += 1
        slug = "".join(c if c.isalnum() else "-" for c in label)[:60]
        return self.logs / f"{self._steps:03d}-{slug}.log"

    def run(self, label: str, *argv: str, cwd: pathlib.Path | None = None,
            expect: int = 0, needs: str | None = None) -> str:
        """Run ``python *argv``; raise unless it exits ``expect`` (and its
        output contains ``needs``)."""
        print(f"trace: {label}", flush=True)
        log = self._log(label)
        with open(log, "w", encoding="utf-8") as sink:
            try:
                status = subprocess.run(
                    [sys.executable, *argv], cwd=cwd or REPO, env=self.env,
                    stdin=subprocess.DEVNULL, stdout=sink, stderr=subprocess.STDOUT,
                    timeout=STEP_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                status = None
        text = log.read_text(encoding="utf-8")
        if status != expect or (needs is not None and needs not in text):
            tail = "\n".join(text.splitlines()[-20:])
            raise TraceError(f"{label}: exit {status}, expected {expect}"
                             f"{f' and {needs!r}' if needs else ''}\n{tail}")
        return text

    def cli(self, label: str, *argv: str, **kwargs) -> str:
        return self.run(label, "-m", "repro.cli", *argv, **kwargs)

    def start(self, label: str, *argv: str) -> Service:
        """Start ``repro-bench <argv>`` and wait for its listening line."""
        print(f"trace: start {label}", flush=True)
        with open(self._log(label), "w", encoding="utf-8") as errors:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv, "--port", "0"],
                cwd=self.tmp, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=errors, text=True,
            )
        for line in iter(proc.stdout.readline, ""):
            if " listening on " in line:
                service = Service(proc, label, line.split(" listening on ")[1].split()[0])
                self.services.append(service)
                return service
        proc.wait()
        raise TraceError(f"{label}: exited {proc.returncode} before listening")

    def stop(self, service: Service) -> None:
        """SIGTERM one service; it must exit 0 and log ``drained``."""
        print(f"trace: stop {service.label}", flush=True)
        self.services.remove(service)
        service.proc.send_signal(signal.SIGTERM)
        try:
            status = service.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            service.proc.kill()
            service.proc.wait()
            raise TraceError(f"{service.label}: did not stop on SIGTERM") from None
        rest = service.proc.stdout.read()
        service.proc.stdout.close()
        if status != 0 or "drained" not in rest:
            raise TraceError(f"{service.label}: exit {status} without draining")

    def kill_all(self) -> None:
        """Last resort after a failure: no service outlives the script."""
        for service in self.services:
            service.proc.kill()
            service.proc.wait()
            service.proc.stdout.close()
        self.services.clear()


def drive(trace: Tracer) -> None:
    """Run every entry point once, under the hook."""
    tmp = trace.tmp
    for command in ("list", "platforms", "hap", "advise"):
        trace.cli(command, command)
    trace.cli("run all --quick", "run", "all", "--quick")
    trace.cli("run all", "run", "all")
    trace.cli("run all --quick --grid-jobs 2", "run", "all", "--quick", "--grid-jobs", "2",
              "--provenance")
    trace.cli("run all --quick --dry-run", "run", "all", "--quick", "--dry-run")
    trace.cli("plan", "plan", "fig15", "--quick")
    for _ in range(2):
        trace.cli("run --cache", "run", "fig11", "--quick", "--cache", str(tmp / "cache"),
                  "--provenance")
    trace.cli("run --cache-max-mb", "run", "all", "--quick", "--cache", str(tmp / "bounded"),
              "--cache-max-mb", "1")
    trace.cli("run --json", "run", "fig11", "--json", str(tmp / "json"))
    trace.cli("findings", "findings")

    trace.cli("lint", "lint", "src")
    trace.cli("lint --jobs 2 --format=json", "lint", "src", "--jobs", "2", "--format=json")
    trace.cli("lint --list-rules", "lint", "--list-rules")
    trace.cli("lint RB2xx report", "lint", "src", "--select", "RB101,RB201,RB202,RB203,RB204",
              "--no-baseline", "--warn-only", "--format=json")
    trace.cli("lint full tree", "lint", "src", "tests", "benchmarks", "--warn-only")
    baseline = tmp / "analysis-baseline.json"
    shutil.copyfile(REPO / "analysis-baseline.json", baseline)
    trace.cli("lint --update-baseline", "lint", "src", "tests", "benchmarks",
              "--baseline", str(baseline), "--update-baseline")
    trace.run("repro-lint module", "-m", "repro.analysis.cli", "src")
    for code, text in SEEDED.items():
        seeded = tmp / f"seeded-{code}"
        seeded.mkdir()
        (seeded / "regression.py").write_text(text)
        trace.cli(f"lint seeded {code}", "lint", str(seeded), "--no-baseline",
                  expect=1, needs=code)

    store = trace.start("store", "store", "--dir", str(tmp / "shared-store"))
    fleet = trace.start("fleet", "fleet")
    inline = trace.start("inline worker", "worker")
    member = trace.start("fleet worker", "worker", "--workers", "2",
                         "--fleet", fleet.address)
    trace.run("ci_smoke", "benchmarks/ci_smoke.py", "--out", str(tmp / "smoke"),
              "--grid-jobs", "2", "--remote-workers", inline.address,
              "--fleet-url", fleet.address, "--store-url", store.address)
    trace.cli("roster run", "run", "all", "--quick", "--workers",
              f"{inline.address},{member.address}", "--provenance")
    # Seeds the runs above did not use, so these miss the shared store.
    trace.cli("fleet-plus-store run", "--seed", "7", "run", "all", "--quick",
              "--fleet", fleet.address, "--store", store.address, "--provenance")
    trace.cli("store run, cold", "--seed", "11", "run", "all", "--quick",
              "--store", store.address, "--cache", str(tmp / "local-tier"))
    trace.cli("store run, warm", "--seed", "11", "run", "all", "--quick",
              "--store", store.address, "--provenance", needs="cache=hit-remote")
    for service in (member, inline, fleet, store):
        trace.stop(service)

    for example in sorted((REPO / "examples").glob("*.py")):
        cwd = tmp / "examples" / example.stem
        cwd.mkdir(parents=True)
        trace.run(example.name, str(example), cwd=cwd)
    trace.run("pytest benchmarks", "-m", "pytest", "benchmarks", "--benchmark-disable",
              "-q", "-p", "no:cacheprovider")
    for workload in ("paper-serial", "fleet-cold", "warm-rerun"):
        trace.run(f"perfbench {workload}", "perfbench/run.py", "--workload", workload,
                  "--seed", "1", "--seconds", "1", "--trace", "1", needs='"correct": true')


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="trace-reach-") as tmp:
        trace = Tracer(pathlib.Path(tmp))
        try:
            drive(trace)
        except TraceError as exc:
            print(f"trace_reach: an entry point failed, so the trace is incomplete:\n{exc}",
                  file=sys.stderr)
            return 2
        finally:
            trace.kill_all()
        seen = executed(trace.out)
    defs = src_defs(SRC)
    missing, stale = unrun_report(defs, seen, ALLOWLIST)
    ran = sum(1 for key in defs if key in seen)
    print(f"trace_reach: {ran} of {len(defs)} defs ran; {len(ALLOWLIST)} allowlisted")
    if missing:
        print("these defs never ran; drive them from an entry point, delete them, or "
              "give each an ALLOWLIST entry:\n" + "\n".join(missing))
    if stale:
        print("these ALLOWLIST entries name no def:\n" + "\n".join(stale))
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
