"""Tests for the repro-bench CLI."""

import os
import pathlib
import signal
import socket
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.core.figures import FIGURES
from repro.core.plan import FigurePlan
from repro.core.service import Service
from repro.core.store import ResultStore
from repro.core.storenet import RemoteStoreError, StoreServer

#: ``repro-bench list``, byte for byte: one row per figure, in registry order.
LIST_STDOUT = """\
figure     paper artefact   workload
--------------------------------------------------------------------------------
fig05      Figure 5         ffmpeg H.264->H.265, preset 'slower', 16 threads/16 vCPUs
cpu-prime  Finding 1 (text) sysbench CPU prime verification, 1 thread
fig06      Figure 6         tinymembench random-access latency
fig07      Figure 7         tinymembench sequential copy, regular + SSE2
fig08      Figure 8         STREAM COPY
fig09      Figure 9         fio sequential read/write
fig10      Figure 10        fio randread latency
fig11      Figure 11        iperf3, host as client
fig12      Figure 12        netperf request/response
fig13      Figure 13        container startup, patched exit
fig14      Figure 14        hypervisor boot, same kernel+rootfs, patched init
fig15      Figure 15        OSv boot under supported hypervisors
fig16      Figure 16        memcached under YCSB workload-a
fig17      Figure 17        MySQL sysbench oltp_read_write
fig18      Figure 18        ftrace over sysbench cpu/mem/fileio + iperf3 + boot/shutdown
"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "fig11", "--quick", "--json", "out"])
        assert args.figure == "fig11"
        assert args.quick
        assert args.json == "out"
        assert args.grid_jobs == 1  # serial remains the default backend

    def test_run_execution_flags(self):
        args = build_parser().parse_args(
            ["run", "all", "--grid-jobs", "4", "--cache", "store", "--provenance"]
        )
        assert args.grid_jobs == 4
        assert args.cache == "store"
        assert args.provenance

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "7", "list"])
        assert args.seed == 7

    def test_worker_subcommand_defaults(self):
        args = build_parser().parse_args(["worker"])
        assert args.host == "127.0.0.1"
        assert args.port == 0  # ephemeral: the bound port is printed
        assert args.workers == 1

    def test_run_remote_flags(self):
        args = build_parser().parse_args([
            "run", "fig05", "--workers", "10.0.0.1:7077,10.0.0.2:7077",
        ])
        assert args.workers == "10.0.0.1:7077,10.0.0.2:7077"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == LIST_STDOUT

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "firecracker" in out
        assert "secure_container" in out

    def test_run_single_figure(self, capsys):
        assert main(["run", "fig11", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "iperf3" in out
        assert "Gbit/s" in out

    def test_run_with_json_archive(self, tmp_path, capsys):
        target = str(tmp_path / "results")
        assert main(["run", "fig12", "--quick", "--json", target]) == 0
        assert (tmp_path / "results" / "fig12.json").exists()
        assert (tmp_path / "results" / "manifest.json").exists()

    def test_run_parallel_with_provenance(self, capsys):
        assert main(["run", "fig12", "--quick", "--grid-jobs", "2", "--provenance"]) == 0
        out = capsys.readouterr().out
        assert "Netperf" in out
        assert "[provenance] backend=" in out

    def test_run_with_cache_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["run", "fig12", "--quick", "--cache", cache, "--provenance"]) == 0
        assert main(["run", "fig12", "--quick", "--cache", cache, "--provenance"]) == 0
        out = capsys.readouterr().out
        assert "cache=hit" in out  # second invocation served from the store

    def test_hap_subset(self, capsys):
        assert main(["hap", "osv", "firecracker"]) == 0
        out = capsys.readouterr().out
        assert "osv" in out and "firecracker" in out

    def test_findings_exit_code_reflects_pass(self, capsys):
        assert main(["findings"]) == 0
        out = capsys.readouterr().out
        assert "Findings reproduced: 28/28" in out

    def test_advise_recommends(self, capsys):
        assert main(["advise", "--network", "1.0", "--startup", "0.9", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 2
        assert "1." in out and "2." in out

    def test_advise_rejects_bad_weights(self, capsys):
        # User errors surface as a one-line stderr message + exit 2,
        # not a traceback.
        assert main(["advise", "--cpu", "3.0"]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err and "weight cpu" in err

    def test_unknown_figure_is_a_clean_error(self, capsys):
        # One diagnosis at either scale: both look the id up in the
        # figure registry.
        expected = (
            "repro-bench: error: unknown figure 'fig99-typo'; known: "
            + ", ".join(FIGURES) + "\n"
        )
        for scale in (["--quick"], []):
            assert main(["run", "fig99-typo", *scale]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == expected, scale

    def test_run_grid_jobs_flag(self, capsys):
        assert main(["run", "fig11", "--quick", "--grid-jobs", "2", "--provenance"]) == 0
        out = capsys.readouterr().out
        assert "iperf3" in out
        assert "grid=process:2" in out
        assert "width=30" in out  # 10 network platforms x 3 quick reps

    def test_grid_jobs_with_workers_is_a_clean_error(self, capsys):
        # Remote parallelism is the fleet's slot count; --grid-jobs with a
        # roster is rejected rather than silently ignored.
        assert main([
            "run", "fig11", "--quick", "--grid-jobs", "4",
            "--workers", "127.0.0.1:7077",
        ]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err
        assert "grid_jobs does not apply" in err

    def test_grid_jobs_results_match_serial(self, capsys):
        assert main(["run", "fig12", "--quick"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", "fig12", "--quick", "--grid-jobs", "3"]) == 0
        grid_out = capsys.readouterr().out
        assert grid_out == serial_out

    def test_plan_command_prints_grid_without_running(self, capsys):
        assert main(["plan", "fig09", "--quick", "--grid-jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig09: 21 grid job(s)" in out  # 7 platforms x 3 quick reps
        assert "backend=process, grid-jobs=2]" in out  # no slab-size note
        assert "fio-throughput" in out
        assert "MB/s" not in out  # no results were rendered

    def test_plan_unknown_figure_is_a_clean_error(self, capsys):
        assert main(["plan", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_run_dry_run_prints_grids_only(self, capsys):
        assert main(["run", "fig05", "--quick", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "fig05: 27 grid job(s)" in out  # 9 cpu platforms x 3 quick reps
        assert "ffmpeg" in out
        assert "ms" not in out.split("grid job(s)")[0]  # no rendered figure

    def test_cache_max_mb_requires_cache(self, capsys):
        assert main(["run", "fig12", "--quick", "--cache-max-mb", "1"]) == 2
        assert "--cache" in capsys.readouterr().err

    def test_cache_max_mb_bounds_the_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["run", "fig12", "--quick", "--cache", cache, "--cache-max-mb", "1"]
        ) == 0
        capsys.readouterr()
        total = sum(p.stat().st_size for p in (tmp_path / "cache").glob("*.json"))
        assert total <= 1024 * 1024


class TestChunkSizeCli:
    """Slab sizes follow from the grid width and the pool; no flag sets them."""

    def test_run_and_plan_take_no_backend_or_chunk_flags(self, capsys):
        for command in ("run", "plan"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            out = capsys.readouterr().out
            assert "--grid-jobs" in out
            assert "--grid-backend" not in out
            assert "--chunk-size" not in out

    def test_chunked_run_bit_identical_to_serial(self, capsys):
        # fig05's 27 quick cells over 2 slots: 4-cell slabs ending on a
        # 3-cell one.
        assert main(["run", "fig05", "--quick"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", "fig05", "--quick", "--grid-jobs", "2", "--provenance"]) == 0
        out = capsys.readouterr().out
        assert "grid=process:2 width=27 chunk=4" in out
        assert "".join(
            line + "\n" for line in out.splitlines() if not line.startswith("[provenance]")
        ) == serial_out

    def test_chunk_size_in_provenance_line(self, capsys):
        assert main(["run", "fig11", "--quick", "--grid-jobs", "2", "--provenance"]) == 0
        out = capsys.readouterr().out
        assert "chunk=4" in out  # ceil(30 / (4 * 2))


def _unusable_directory(tmp_path, under_file):
    """A regular file, or a path beneath one: neither can be a directory."""
    clash = tmp_path / "afile"
    clash.write_text("occupied")
    return clash / "x" if under_file else clash


class TestUnusableDirectories:
    """A directory argument that cannot be used is one error line and
    exit 2, before any figure runs or any socket opens."""

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig05", "--quick", "--cache"],
            ["findings", "--cache"],
            ["run", "fig05", "--quick", "--json"],
        ],
        ids=["run-cache", "findings-cache", "run-json"],
    )
    def test_rejected_before_any_figure_runs(self, tmp_path, monkeypatch, capsys,
                                             argv, under_file):
        def refuse(plan, seed):
            raise AssertionError(f"{plan.figure_id} ran despite an unusable directory")

        monkeypatch.setattr(FigurePlan, "lower", refuse)
        path = _unusable_directory(tmp_path, under_file)
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-bench: error:")
        assert captured.err.count("\n") == 1 and str(path) in captured.err

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_store_rejected_before_listening(self, tmp_path, monkeypatch, capsys,
                                             under_file):
        def refuse(server):
            raise AssertionError("the store started on an unusable --dir")

        monkeypatch.setattr(StoreServer, "start", refuse)
        path = _unusable_directory(tmp_path, under_file)
        assert main(["store", "--port", "0", "--dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert "listening on" not in captured.out
        assert captured.err.startswith("repro-bench: error:")
        assert captured.err.count("\n") == 1 and str(path) in captured.err


class TestOutOfRangePorts:
    """A listen port outside 0-65535, or a dial address whose port is
    outside 1-65535, is one error line and exit 2, before anything binds,
    dials or runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker", "--port", "70000"],
            ["worker", "--port", "-1"],
            ["store", "--port", "65536"],
            ["fleet", "--port", "65536"],
            ["worker", "--fleet", "127.0.0.1:70000"],
            ["worker", "--fleet", "127.0.0.1:1", "--advertise", "127.0.0.1:0"],
            ["run", "fig05", "--quick", "--workers", "127.0.0.1:70000"],
            ["run", "fig05", "--quick", "--store", "127.0.0.1:0"],
            ["run", "fig05", "--quick", "--fleet", "127.0.0.1:-1"],
        ],
        ids=[
            "worker-port-70000", "worker-port-minus-1", "store-port-65536",
            "fleet-port-65536", "worker-fleet-70000", "worker-advertise-0",
            "run-workers-70000", "run-store-0", "run-fleet-minus-1",
        ],
    )
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, argv):
        # Recorded as well as raised: a run captures a job's exception.
        attempts = []

        def refuse(*args, **kwargs):
            attempts.append(args)
            raise AssertionError(f"{argv} went past its bad port")

        monkeypatch.setattr(Service, "start", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        monkeypatch.setattr(FigurePlan, "lower", refuse)
        if argv[0] == "store":
            argv = [*argv, "--dir", str(tmp_path)]
        assert main(argv) == 2
        assert attempts == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-bench: error:")
        assert captured.err.count("\n") == 1


class TestBusyPort:
    """A listen port that another socket holds is one error line and exit 2
    from every service, with no traceback."""

    @pytest.mark.parametrize("service", ["worker", "store", "fleet"])
    def test_one_error_line_without_traceback(self, tmp_path, held_port, service):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "repro.cli", service, "--port", str(held_port)]
        if service == "worker":
            argv += ["--workers", "2"]  # the pool forks before the bind
        if service == "store":
            argv += ["--dir", str(tmp_path / "store")]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith(
            f"repro-bench: error: cannot listen on 127.0.0.1:{held_port}: "
        )


class TestAddressErrors:
    """A malformed service address names the flag it came from; the
    parser itself names no service, since every address goes through it."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["worker", "--fleet", "bad"],
             "invalid fleet address: 'bad' is not of the form host:port"),
            (["worker", "--advertise", "bad"],
             "invalid advertise address: 'bad' is not of the form host:port"),
            (["worker", "--fleet", "::1:5"],
             "invalid fleet address: ambiguous IPv6 address '::1:5': "
             "bracket the host as [::1]:5"),
            (["run", "fig05", "--store", "nohost"],
             "invalid store address: 'nohost' is not of the form host:port"),
        ],
        ids=["worker-fleet", "worker-advertise", "worker-fleet-ipv6", "run-store"],
    )
    def test_error_names_the_flag(self, monkeypatch, capsys, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{argv} went past its bad address")

        monkeypatch.setattr(Service, "start", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        monkeypatch.setattr(FigurePlan, "lower", refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro-bench: error: {message}\n"


class TestHeartbeatInterval:
    def test_unusable_interval_is_one_error_line(self, monkeypatch, capsys):
        # Past threading.TIMEOUT_MAX the heartbeat thread's first wait
        # raises OverflowError after the worker registered, and the
        # coordinator prunes the worker in silence; refuse it up front.
        attempts = []

        def refuse(*args, **kwargs):
            attempts.append(args)
            raise AssertionError("the worker went past its heartbeat interval")

        monkeypatch.setattr(Service, "start", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        for interval in ("1e10", "inf", "nan", "0"):
            argv = ["worker", "--fleet", "127.0.0.1:7079", "--heartbeat-interval", interval]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("repro-bench: error: heartbeat interval")
            assert captured.err.count("\n") == 1
        assert attempts == []


def _refuse_local_put(store, key, result):
    raise OSError(28, "No space left on device")


class TestStoreWarnings:
    """A remote hit that cannot be written back to the local tier keeps
    its result and exit code, and says so on stderr, one line each."""

    def test_failed_warm_back_is_one_warning_line(self, tmp_path, monkeypatch, capsys):
        with StoreServer(port=0, root=tmp_path / "shared") as server:
            remote = ["--store", server.address_string]
            assert main(["run", "fig05", "--quick", *remote]) == 0
            cold = capsys.readouterr()
            monkeypatch.setattr(ResultStore, "put", _refuse_local_put)
            local = ["--cache", str(tmp_path / "local")]
            assert main(["run", "fig05", "--quick", *remote, *local]) == 0
            warm = capsys.readouterr()
        assert cold.err == ""
        assert warm.out == cold.out
        (line,) = warm.err.splitlines()
        assert line.startswith("repro-bench: warning: local-tier warm-back failed for fig05 (")
        assert line.endswith("OSError: [Errno 28] No space left on device")

    def test_findings_reports_every_failed_warm_back(self, tmp_path, monkeypatch, capsys):
        with StoreServer(port=0, root=tmp_path / "shared") as server:
            remote = ["--store", server.address_string]
            assert main(["findings", *remote]) == 0
            cold = capsys.readouterr()
            monkeypatch.setattr(ResultStore, "put", _refuse_local_put)
            assert main(["findings", *remote, "--cache", str(tmp_path / "local")]) == 0
            warm = capsys.readouterr()
        assert warm.out == cold.out
        prefix = "repro-bench: warning: local-tier warm-back failed for "
        lines = warm.err.splitlines()
        assert lines and all(line.startswith(prefix) for line in lines)
        figures = [line[len(prefix):].split()[0] for line in lines]
        assert len(set(figures)) == len(figures)


def _signal_state():
    """The stop signals' handlers, the wakeup fd and the signal mask."""
    wakeup_fd = signal.set_wakeup_fd(-1)
    signal.set_wakeup_fd(wakeup_fd)
    return (
        signal.getsignal(signal.SIGTERM),
        signal.getsignal(signal.SIGINT),
        wakeup_fd,
        signal.pthread_sigmask(signal.SIG_BLOCK, []),
    )


class TestServiceLauncher:
    def test_sigterm_during_start_still_drains(self, tmp_path, monkeypatch, capsys):
        # The signal lands after the listener is bound but before the
        # banner: start() must return, then the service drains and exits.
        started = []
        real_start = StoreServer.start

        def start_then_sigterm(server):
            real_start(server)
            started.append((server, server.address))
            os.kill(os.getpid(), signal.SIGTERM)
            return server

        monkeypatch.setattr(StoreServer, "start", start_then_sigterm)
        state = _signal_state()
        code = main(["store", "--port", "0", "--dir", str(tmp_path / "store")])
        assert code == 0
        assert "repro-bench store drained, exiting" in capsys.readouterr().out
        assert _signal_state() == state
        (server, address), = started
        assert server._listener is None
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1)

    def test_failed_start_restores_the_signal_state(self, tmp_path, monkeypatch, capsys):
        def refuse(server):
            raise RemoteStoreError("cannot listen")

        monkeypatch.setattr(StoreServer, "start", refuse)
        state = _signal_state()
        assert main(["store", "--port", "0", "--dir", str(tmp_path / "store")]) == 2
        assert _signal_state() == state
        assert capsys.readouterr().err == "repro-bench: error: cannot listen\n"

    def test_ignored_sigint_still_drains(self):
        # A nohup'd background step starts the service with SIGINT
        # ignored; SIGINT must drain it all the same.
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        launch = (
            "import signal, sys\n"
            "signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
            "from repro.cli import main\n"
            "sys.exit(main(['worker', '--host', '127.0.0.1', '--port', '0']))\n"
        )
        worker = subprocess.Popen(
            [sys.executable, "-c", launch],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            assert "listening on" in worker.stdout.readline()
            worker.send_signal(signal.SIGINT)
            assert worker.wait(timeout=20) == 0
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        output = worker.stdout.read()
        assert "repro-bench worker drained, exiting" in output
        assert "Traceback" not in output
