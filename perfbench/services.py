"""``repro-bench worker`` / ``repro-bench store`` subprocesses for the benchmark.

Each service is a real CLI process on ``--port 0`` in its own temporary
directory. Start-up waits for its ``listening on`` line, and stop sends
SIGTERM and checks for its ``drained, exiting`` line. Every wait has a
timeout: a service that hangs is killed and reported, never waited on.
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

#: Seconds a service may take to print its listening line, or to exit
#: after SIGTERM, before it counts as hung.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

#: The CLI installs its SIGTERM handler before it prints the listening
#: line but drains only once its serve loop has started; a SIGTERM in
#: between kills it with a traceback. A service is therefore never
#: stopped sooner than this after it reported listening.
MIN_UPTIME_S = 0.5

_LISTENING = re.compile(r"repro-bench (\w+) listening on (\S+)")

PERFBENCH = pathlib.Path(__file__).resolve().parent
ROOT = PERFBENCH.parent


class ServiceError(RuntimeError):
    """A service did not start, answer, or stop as expected."""


class Service:
    """One CLI service subprocess and the lines it printed."""

    def __init__(self, kind: str, args: list[str], *, workdir: pathlib.Path,
                 spans_file: pathlib.Path | None = None) -> None:
        self.kind = kind
        self.workdir = workdir
        #: Where a traced worker writes its spans when it exits (None = untraced).
        self.spans_file = spans_file
        if spans_file is None:
            self.argv = [sys.executable, "-m", "repro.cli", kind, *args]
        else:
            self.argv = [sys.executable, str(PERFBENCH / "traced_service.py"),
                         "--spans", str(spans_file), kind, *args]
        self.lines: list[str] = []
        self.address: str | None = None
        self.ready_at: float | None = None
        self.proc: subprocess.Popen | None = None
        self._ready = threading.Event()
        self._reader: threading.Thread | None = None

    def start(self) -> None:
        """Launch the process; :meth:`wait_ready` waits for its address."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.proc = subprocess.Popen(
            self.argv, cwd=self.workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(
            target=self._read, name=f"perfbench-{self.kind}-stdout", daemon=True
        )
        self._reader.start()

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            self.lines.append(line)
            match = _LISTENING.match(line)
            if match and match.group(1) == self.kind:
                self.address = match.group(2)
                self.ready_at = time.perf_counter()
                self._ready.set()
        self._ready.set()  # EOF: wake a waiter, which sees no address

    def wait_ready(self, timeout: float = START_TIMEOUT_S) -> str:
        if not self._ready.wait(timeout) or self.address is None:
            raise ServiceError(
                f"{self.kind} printed no 'listening on' line within {timeout:.0f} s; "
                f"output: {self.lines[-5:]}"
            )
        return self.address

    def peak_rss_mib(self) -> float:
        """The process's peak resident set (VmHWM), or 0 once it has exited."""
        if self.proc is None:
            return 0.0
        return peak_rss_mib(self.proc.pid)

    def stop(self, timeout: float = STOP_TIMEOUT_S) -> bool:
        """SIGTERM, then wait; True when it drained and said so."""
        if self.proc is None:
            return True
        if self.ready_at is not None:
            time.sleep(max(0.0, self.ready_at + MIN_UPTIME_S - time.perf_counter()))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout)
        if self._reader is not None:
            self._reader.join(timeout)
        return f"repro-bench {self.kind} drained, exiting" in self.lines


def peak_rss_mib(pid: int | str = "self") -> float:
    """VmHWM of ``pid`` in MiB (0 when the process is gone)."""
    try:
        status = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class ServiceSet:
    """The services of one benchmark run, each in its own temp directory.

    :meth:`close` stops every service and removes every directory, and
    reports services that hung or did not drain in :attr:`failures`.
    """

    def __init__(self, service_root: pathlib.Path) -> None:
        self.service_root = service_root
        self.services: list[Service] = []
        self.failures: list[str] = []
        self._dirs: list[pathlib.Path] = []

    def _workdir(self, kind: str) -> pathlib.Path:
        path = pathlib.Path(tempfile.mkdtemp(prefix=f"{kind}-", dir=self.service_root))
        self._dirs.append(path)
        return path

    def launch(self, kind: str, *, traced: bool = False) -> Service:
        """Start one service (not waiting for it)."""
        workdir = self._workdir(kind)
        args = ["--host", "127.0.0.1", "--port", "0"]
        if kind == "store":
            args += ["--dir", str(workdir / "store")]
        else:
            args += ["--workers", "1"]
        spans = workdir / "spans.json" if traced else None
        service = Service(kind, args, workdir=workdir, spans_file=spans)
        self.services.append(service)
        service.start()
        return service

    def peak_rss_mib(self) -> float:
        return max((service.peak_rss_mib() for service in self.services), default=0.0)

    def stop(self, service: Service) -> None:
        if not service.stop():
            self.failures.append(
                f"{service.kind} did not drain on SIGTERM; output: {service.lines[-3:]}"
            )
        self.services.remove(service)

    def close(self) -> None:
        for service in list(self.services):
            self.stop(service)
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()
