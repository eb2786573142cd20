"""Tests for the repro-bench CLI."""

import os
import signal
import socket
import time

import pytest

from repro.cli import build_parser, main
from repro.core.storenet import StoreServer


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
            "run", "fig05", "--grid-backend", "remote",
            "--workers", "10.0.0.1:7077,10.0.0.2:7077",
        ])
        assert args.grid_backend == "remote"
        assert args.workers == "10.0.0.1:7077,10.0.0.2:7077"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out
        assert "fig18" in out

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
        assert main(["run", "fig99-typo", "--quick"]) == 2
        captured = capsys.readouterr()
        assert "repro-bench: error:" in captured.err
        assert "unknown figure" in captured.err
        assert "Traceback" not in captured.err

    def test_run_grid_jobs_flag(self, capsys):
        assert main(["run", "fig11", "--quick", "--grid-jobs", "2", "--provenance"]) == 0
        out = capsys.readouterr().out
        assert "iperf3" in out
        assert "grid=process:2" in out
        assert "width=30" in out  # 10 network platforms x 3 quick reps

    def test_unknown_grid_backend_is_a_clean_error_listing_remote(self, capsys):
        # Regression: an unknown backend must surface as ConfigurationError
        # (one line, exit 2) — never a bare ValueError traceback — and the
        # advertised backend list must include the remote backend.
        assert main(["run", "fig11", "--quick", "--grid-backend", "gpu"]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err
        assert "unknown grid backend 'gpu'" in err
        assert "remote" in err
        assert "Traceback" not in err
        assert "ValueError" not in err

    def test_remote_backend_without_workers_is_a_clean_error(self, capsys):
        assert main(["run", "fig11", "--quick", "--grid-backend", "remote"]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err
        assert "worker" in err

    def test_workers_with_local_backend_is_a_clean_error(self, capsys):
        assert main([
            "run", "fig11", "--quick", "--grid-backend", "serial",
            "--workers", "127.0.0.1:7077",
        ]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err
        assert "remote" in err

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
        assert "backend=process, grid-jobs=2" in out
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
    def test_run_and_plan_accept_chunk_size(self):
        args = build_parser().parse_args(["run", "fig11", "--chunk-size", "8"])
        assert args.chunk_size == 8
        assert build_parser().parse_args(["run", "fig11"]).chunk_size is None
        assert build_parser().parse_args(
            ["plan", "fig11", "--chunk-size", "8"]
        ).chunk_size == 8

    def test_chunked_run_bit_identical_to_serial(self, capsys):
        assert main(["run", "fig12", "--quick"]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["run", "fig12", "--quick", "--grid-jobs", "2", "--chunk-size", "7"]
        ) == 0
        assert capsys.readouterr().out == serial_out

    def test_chunk_size_in_provenance_line(self, capsys):
        assert main([
            "run", "fig11", "--quick", "--grid-jobs", "2",
            "--chunk-size", "4", "--provenance",
        ]) == 0
        out = capsys.readouterr().out
        assert "chunk=4" in out

    def test_invalid_chunk_size_is_a_clean_error(self, capsys):
        assert main([
            "run", "fig11", "--quick", "--grid-jobs", "2", "--chunk-size", "0"
        ]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err
        assert "chunk_size" in err
        assert "Traceback" not in err

    def test_plan_shows_explicit_and_auto_chunk_size(self, capsys):
        assert main([
            "plan", "fig09", "--quick", "--grid-jobs", "2", "--chunk-size", "5"
        ]) == 0
        assert "chunk-size=5" in capsys.readouterr().out
        assert main(["plan", "fig09", "--quick", "--grid-jobs", "2"]) == 0
        assert "chunk-size=auto" in capsys.readouterr().out

    def test_dry_run_shows_chunk_size(self, capsys):
        assert main([
            "run", "fig05", "--quick", "--dry-run", "--grid-jobs", "2",
            "--chunk-size", "9",
        ]) == 0
        assert "chunk-size=9" in capsys.readouterr().out


class TestServiceLauncher:
    def test_sigterm_during_start_still_drains(self, tmp_path, monkeypatch, capsys):
        # The signal lands after the listener is bound but before the
        # serve loop runs: the service must still drain and exit cleanly.
        started = []
        real_start = StoreServer.start

        def start_then_sigterm(server):
            real_start(server)
            started.append((server, server.address))
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)  # the handler's KeyboardInterrupt lands here
            raise AssertionError("SIGTERM was not delivered")

        monkeypatch.setattr(StoreServer, "start", start_then_sigterm)
        saved = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
        try:
            code = main(["store", "--port", "0", "--dir", str(tmp_path / "store")])
        except KeyboardInterrupt:
            pytest.fail("SIGTERM escaped the launcher as a KeyboardInterrupt")
        finally:
            for sig, handler in saved.items():
                signal.signal(sig, handler)
        assert code == 0
        assert "repro-bench store drained, exiting" in capsys.readouterr().out
        (server, address), = started
        assert server._listener is None
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1)
