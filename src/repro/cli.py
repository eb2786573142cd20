"""Command-line interface for the benchmark suite.

Installed as ``repro-bench``::

    repro-bench list                         # figures, paper artefacts, workloads
    repro-bench platforms                    # the platform roster
    repro-bench [--seed N] run fig11 [--quick] [--json out/] [--cache DIR]
    repro-bench run fig11 [--grid-jobs 4]       # flat (platform x rep) pool
    repro-bench [--seed N] run all [--quick] [--grid-jobs 2] [--provenance]
    repro-bench run all   [--dry-run]           # print lowered grids only
    repro-bench plan fig09 [--quick]            # inspect one figure's grid
    repro-bench worker --port 7077              # join the worker fleet
    repro-bench run fig05 --workers 127.0.0.1:7077   # grid on the fleet
    repro-bench store --port 7078 --dir DIR     # serve a shared result store
    repro-bench run fig05 --store 127.0.0.1:7078   # read/write the fleet cache
    repro-bench fleet --port 7079               # membership coordinator
    repro-bench worker --port 7077 --fleet 127.0.0.1:7079   # self-registering
    repro-bench run fig05 --fleet 127.0.0.1:7079   # roster resolved live
    repro-bench [--seed N] findings [--cache DIR] [--store HOST:PORT]
    repro-bench hap [platform ...]
    repro-bench lint [src tests ...] [--format=json]   # determinism analyzer

``--seed`` is a global option and precedes the subcommand. The grid
backend follows from the flags: ``--workers`` or ``--fleet`` runs on the
fleet, ``--grid-jobs N`` (N > 1) on a local process pool, anything else
serially; every non-serial backend sizes its dispatch slabs itself.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.core.figures import FIGURES
from repro.core.remote import RemoteError
from repro.core.storenet import TieredStore
from repro.core.suite import BenchmarkSuite
from repro.errors import ConfigurationError
from repro.kernel.functions import default_catalog
from repro.platforms import get_platform, platform_names
from repro.security.analysis import audit_platform
from repro.security.epss import EpssModel
from repro.security.hap import measure_hap

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro-bench argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the Middleware '21 isolation-platform study.",
    )
    parser.add_argument("--seed", type=int, default=42, help="experiment seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list reproducible figures")
    subparsers.add_parser("platforms", help="list platform configurations")

    run = subparsers.add_parser("run", help="run one figure (or 'all')")
    run.add_argument("figure", help="figure id (fig05..fig18, cpu-prime) or 'all'")
    run.add_argument("--quick", action="store_true", help="reduced repetitions")
    run.add_argument("--json", metavar="DIR", help="archive results as JSON")
    run.add_argument(
        "--grid-jobs", dest="grid_jobs", type=int, default=1, metavar="N",
        help="execute each figure's flat (platform x rep) grid across an "
             "N-worker pool (default: serial; bit-identical to serial by "
             "construction)",
    )
    run.add_argument(
        "--workers", metavar="HOST:PORT[,...]", default=None,
        help="comma-separated worker fleet for the remote grid backend "
             "(each started with: repro-bench worker --port P); results "
             "stay bit-identical to a serial run",
    )
    run.add_argument(
        "--fleet", metavar="HOST:PORT", default=None,
        help="fleet coordinator to resolve the worker roster from "
             "(started with: repro-bench fleet --port P); replaces "
             "--workers — workers join and leave mid-run, results stay "
             "bit-identical to a serial run",
    )
    run.add_argument(
        "--cache", metavar="DIR",
        help="persistent result store; warm entries skip execution entirely",
    )
    run.add_argument(
        "--store", metavar="HOST:PORT", default=None,
        help="shared (network) result store to read through and write back "
             "to (started with: repro-bench store --port P --dir DIR); "
             "combines with --cache as the local tier",
    )
    run.add_argument(
        "--cache-max-mb", type=int, default=None, metavar="N",
        help="bound the result store to N MiB, evicting least-recently-read "
             "entries after writes (requires --cache)",
    )
    run.add_argument(
        "--provenance", action="store_true",
        help="print backend/cache/wall-time for each figure",
    )
    run.add_argument(
        "--dry-run", action="store_true",
        help="print each figure's lowered grid (platforms x reps, exclusions, "
             "backend) without executing anything",
    )

    plan = subparsers.add_parser(
        "plan", help="print one figure's lowered (platform x rep) grid"
    )
    plan.add_argument("figure", help="figure id (fig05..fig18, cpu-prime)")
    plan.add_argument("--quick", action="store_true", help="reduced repetitions")
    plan.add_argument(
        "--grid-jobs", dest="grid_jobs", type=int, default=1, metavar="N",
        help="grid pool width the plan would run with",
    )

    worker = subparsers.add_parser(
        "worker", help="serve grid jobs to remote runs (one fleet member)"
    )
    worker.add_argument(
        "--host", default="127.0.0.1",
        help="interface to listen on (default: 127.0.0.1; use 0.0.0.0 to "
             "serve a real fleet)",
    )
    worker.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="TCP port to listen on (default: 0 = ephemeral; the bound "
             "port is printed on startup)",
    )
    worker.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="local worker processes executing jobs (default: 1 = inline)",
    )
    worker.add_argument(
        "--fleet", metavar="HOST:PORT", default=None,
        help="fleet coordinator to register with on startup (started "
             "with: repro-bench fleet --port P); the worker heartbeats "
             "while alive and deregisters on drain",
    )
    worker.add_argument(
        "--advertise", metavar="HOST:PORT", default=None,
        help="address to advertise to the fleet coordinator (default: "
             "the bound address; set this when listening on 0.0.0.0)",
    )
    worker.add_argument(
        "--heartbeat-interval", dest="heartbeat_interval", type=float,
        default=2.0, metavar="S",
        help="seconds between fleet heartbeats (default: 2.0; must beat "
             "the coordinator's timeout)",
    )

    fleet = subparsers.add_parser(
        "fleet", help="serve the worker-membership coordinator"
    )
    fleet.add_argument(
        "--host", default="127.0.0.1",
        help="interface to listen on (default: 127.0.0.1; use 0.0.0.0 to "
             "serve a real fleet)",
    )
    fleet.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="TCP port to listen on (default: 0 = ephemeral; the bound "
             "port is printed on startup)",
    )
    fleet.add_argument(
        "--heartbeat-timeout", dest="heartbeat_timeout", type=float,
        default=None, metavar="S",
        help="seconds without a heartbeat before a worker is pruned from "
             "the roster (default: 6.0)",
    )

    store = subparsers.add_parser(
        "store", help="serve a shared result store to a client fleet"
    )
    store.add_argument(
        "--host", default="127.0.0.1",
        help="interface to listen on (default: 127.0.0.1; use 0.0.0.0 to "
             "serve a real fleet)",
    )
    store.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="TCP port to listen on (default: 0 = ephemeral; the bound "
             "port is printed on startup)",
    )
    store.add_argument(
        "--dir", dest="dir", default="shared-store", metavar="DIR",
        help="cache directory backing the store (default: shared-store)",
    )
    store.add_argument(
        "--max-mb", type=int, default=None, metavar="N",
        help="bound the store to N MiB, evicting least-recently-read "
             "entries after writes",
    )

    findings = subparsers.add_parser("findings", help="check the 28 findings")
    findings.add_argument("--full", action="store_true", help="paper-scale repetitions")
    findings.add_argument(
        "--cache", metavar="DIR",
        help="persistent result store shared with 'run' (same seed/quick keys)",
    )
    findings.add_argument(
        "--store", metavar="HOST:PORT", default=None,
        help="shared (network) result store, as for 'run --store'",
    )

    hap = subparsers.add_parser("hap", help="HAP + defense-in-depth audit")
    hap.add_argument("platforms", nargs="*", help="platform names (default: main roster)")

    lint = subparsers.add_parser(
        "lint",
        help="run the determinism & distribution-safety analyzer "
             "(RB1xx rules, see docs/ANALYSIS.md)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    advise = subparsers.add_parser(
        "advise", help="recommend platforms for weighted workload needs"
    )
    for dimension in ("cpu", "memory", "disk", "network", "startup", "isolation"):
        advise.add_argument(
            f"--{dimension}", type=float, default=0.5, metavar="W",
            help=f"{dimension} weight in [0, 1] (default 0.5)",
        )
    advise.add_argument("--top", type=int, default=3, help="recommendations to show")

    return parser


def _cmd_list() -> int:
    print(f"{'figure':<10} {'paper artefact':<16} {'workload'}")
    print("-" * 80)
    for figure_id, figure in FIGURES.items():
        print(f"{figure_id:<10} {figure.paper_artifact:<16} {figure.workload}")
    return 0


def _cmd_platforms() -> int:
    for name in platform_names():
        platform = get_platform(name)
        print(f"{name:<20} {platform.family.value:<17} {platform.label}")
    return 0


def _print_grids(suite: BenchmarkSuite, targets: list[str]) -> None:
    # Describe with the suite's own policy, so a dry run reports exactly
    # the backend/width a real run of this suite would use.
    policy = suite.policy
    for figure_id in targets:
        grid = suite.plan_figure(figure_id)
        print(
            grid.describe(
                backend=policy.grid_backend,
                workers=policy.grid_jobs,
                roster=policy.workers,
                fleet=policy.fleet_url,
            )
        )
        print()


def _report_store_warnings(suite: BenchmarkSuite) -> None:
    """One stderr line per degradation the suite's tiered store recorded
    (a failed local warm-back); stdout and the exit code stay as they are."""
    if isinstance(suite.store, TieredStore):
        for warning in suite.store.warnings:
            print(f"repro-bench: warning: {warning}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.cache_max_mb is not None and not args.cache:
        raise ConfigurationError("--cache-max-mb requires --cache DIR")
    workers = tuple(
        part.strip() for part in args.workers.split(",") if part.strip()
    ) if args.workers else ()
    suite = BenchmarkSuite(
        seed=args.seed, quick=args.quick, grid_jobs=args.grid_jobs,
        workers=workers, fleet_url=args.fleet, store_url=args.store,
        cache_dir=args.cache,
        cache_max_bytes=(
            args.cache_max_mb * 1024 * 1024 if args.cache_max_mb is not None else None
        ),
    )
    targets = suite.figure_ids() if args.figure == "all" else [args.figure]
    if args.dry_run:
        _print_grids(suite, targets)
        return 0
    if args.json:
        try:
            pathlib.Path(args.json).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create --json directory {args.json}: {exc.strerror}"
            ) from None
    results = suite.run_all(targets)
    _report_store_warnings(suite)
    for figure_id in targets:
        figure = results[figure_id]
        print(figure.render())
        if args.provenance and figure.provenance:
            p = figure.provenance
            grid = p.get("grid_backend")
            width = p.get("grid_width")
            grid_note = f" grid={grid}:{p.get('grid_jobs', 1)}" if grid else ""
            if grid and width is not None:
                grid_note += f" width={width}"
            if grid and p.get("chunk_size") is not None:
                grid_note += f" chunk={p['chunk_size']}"
            if p.get("workers"):
                grid_note += f" workers={','.join(p['workers'])}"
            if p.get("fleet"):
                grid_note += f" fleet={p['fleet']}"
            if p.get("dedupe"):
                d = p["dedupe"]
                grid_note += (
                    f" cells={d.get('executed', 0)}"
                    f"+{d.get('store_hits', 0)}deduped"
                )
            store_note = f" store={p['store']}" if p.get("store") else ""
            print(
                f"[provenance] backend={p['backend']}{grid_note} cache={p['cache']}"
                f"{store_note} wall={p['wall_time_s']:.3f}s seed={p['seed']}"
            )
        print()
    if args.json:
        written = suite.save_results(args.json)
        print(f"archived {len(written)} files to {args.json}/")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    suite = BenchmarkSuite(seed=args.seed, quick=args.quick, grid_jobs=args.grid_jobs)
    _print_grids(suite, [args.figure])
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    """``worker`` / ``store`` / ``fleet``: serve until SIGTERM or SIGINT, then drain."""
    import os
    import signal

    if args.command == "worker":
        from repro.core.remote import WorkerServer

        server = WorkerServer(
            host=args.host, port=args.port, workers=args.workers,
            fleet_url=args.fleet, advertise=args.advertise,
            heartbeat_interval=args.heartbeat_interval,
        )
        fleet_note = f", fleet {args.fleet}" if args.fleet else ""
        detail = f" ({args.workers} local worker(s){fleet_note})"
    elif args.command == "store":
        from repro.core.storenet import StoreServer

        server = StoreServer(
            host=args.host,
            port=args.port,
            root=args.dir,
            max_bytes=args.max_mb * 1024 * 1024 if args.max_mb is not None else None,
        )
        detail = f" (dir {args.dir})"
    else:
        from repro.core.fleet import FleetCoordinator

        kwargs = {}
        if args.heartbeat_timeout is not None:
            kwargs["heartbeat_timeout"] = args.heartbeat_timeout
        server = FleetCoordinator(host=args.host, port=args.port, **kwargs)
        detail = ""

    stop_signals = (signal.SIGTERM, signal.SIGINT)
    # Both stop signals get a handler that only records them: Python's
    # C-level handler writes the signal's number to the wakeup pipe from
    # whichever thread takes it, and the main thread waits on that pipe.
    # A handler that raised could do so inside threading's lock cleanup
    # and break a lock the drain needs; blocking the signals instead
    # cannot cover numpy's BLAS threads, which exist before this point.
    # A signal sent during start() waits in the pipe, and the handler
    # replaces the SIG_IGN that a nohup'd CI step gives SIGINT.
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    caller_wakeup_fd = signal.set_wakeup_fd(wake_w)
    caller_handlers = {
        sig: signal.signal(sig, lambda signum, frame: None) for sig in stop_signals
    }
    try:
        with server:
            # Parsable by scripts (and the CI workflow): the bound address
            # on one line, flushed before the main thread blocks.
            print(
                f"repro-bench {args.command} listening on {server.address_string}{detail}",
                flush=True,
            )
            while os.read(wake_r, 1)[0] not in stop_signals:
                pass
        print(f"repro-bench {args.command} drained, exiting")
    finally:
        for sig, handler in caller_handlers.items():
            signal.signal(sig, handler)
        signal.set_wakeup_fd(caller_wakeup_fd)
        os.close(wake_r)
        os.close(wake_w)
    return 0


def _cmd_findings(args: argparse.Namespace) -> int:
    suite = BenchmarkSuite(
        seed=args.seed, quick=not args.full, cache_dir=args.cache,
        store_url=args.store,
    )
    report = suite.findings_report()
    _report_store_warnings(suite)
    print(report)
    return 0 if report.startswith("Findings reproduced: 28/28") else 1


def _cmd_hap(args: argparse.Namespace) -> int:
    names = args.platforms or [
        "native", "docker", "lxc", "qemu", "firecracker",
        "cloud-hypervisor", "kata", "gvisor", "osv",
    ]
    catalog = default_catalog()
    epss = EpssModel()
    print(f"{'platform':<18} {'HAP':>6} {'weighted':>10} {'depth':>7}")
    print("-" * 45)
    for name in names:
        platform = get_platform(name)
        score = measure_hap(platform, catalog, epss)
        audit = audit_platform(platform, score)
        print(
            f"{name:<18} {score.unique_functions:>6} "
            f"{score.weighted_score:>10.1f} {audit.depth_score:>7.1f}"
        )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import PlatformAdvisor, WorkloadNeeds

    needs = WorkloadNeeds(
        cpu=args.cpu,
        memory=args.memory,
        disk=args.disk,
        network=args.network,
        startup=args.startup,
        isolation=args.isolation,
    )
    advisor = PlatformAdvisor(seed=args.seed)
    for rank, recommendation in enumerate(advisor.recommend(needs, top=args.top), start=1):
        print(f"{rank}. {recommendation.explain()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "platforms":
            return _cmd_platforms()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command in ("worker", "store", "fleet"):
            return _cmd_service(args)
        if args.command == "findings":
            return _cmd_findings(args)
        if args.command == "hap":
            return _cmd_hap(args)
        if args.command == "lint":
            from repro.analysis.cli import run_lint_command

            return run_lint_command(args)
        if args.command == "advise":
            return _cmd_advise(args)
    except BrokenPipeError:
        # Output truncated by a downstream pager/head: not an error.
        return 0
    except (ConfigurationError, RemoteError) as exc:
        # User error (unknown figure, bad policy, unreachable fleet or
        # store...): one line, no traceback.
        print(f"repro-bench: error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
