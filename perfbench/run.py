"""End-to-end benchmark of the reproduction middleware.

Run from the repository root::

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``paper-serial``, ``fleet-cold`` or
``warm-rerun`` (see :mod:`perfbench.bench`). With ``--trace 0`` the run is
untraced and reports the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced passes and reports the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 45, "failed": 0, "metrics": {...}}

Raw samples go to ``perfbench-results/<workload>-seed<N>-trace<T>/``:
``manifest.json`` (what ran), ``samples.jsonl`` (one line per pass, with
its seed and every figure's latency, cache disposition and digest) and
``summary.json`` (every metric, its unit and sample count, and the checks).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-serial", "fleet-cold", "warm-rerun")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench, tracing
    from perfbench.services import peak_rss_mib

    import_s = time.perf_counter() - _STARTED
    out = ROOT / "perfbench-results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "services").mkdir(parents=True)

    # SIGTERM unwinds like an error, so the services are still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpu = bench.pin_to_one_cpu()
    clock = bench.HostClock()
    workload = bench.WORKLOAD_CLASSES[args.workload](args.seed, bool(args.trace),
                                                     out / "services", clock)
    tracer = tracing.Tracer() if args.trace else None
    problems: list[str] = []
    try:
        workload.setup["import_s"] = import_s
        with clock:
            workload.prepare()
            passes = bench.measure(workload, args.seconds, tracer, clock)
        peak_mib = max(peak_rss_mib(), workload.services.peak_rss_mib())
        put_repeats = workload.put_repeats()
        worker_spans = workload.worker_spans()
    finally:
        problems += workload.close()
        shutil.rmtree(out / "services", ignore_errors=True)

    deliveries = [d for p in passes for d in p.deliveries]
    attempted = len(deliveries)
    failed = sum(1 for d in deliveries if d.failure is not None)
    unchecked = sum(1 for d in deliveries if d.unchecked)
    # A repeated cell put means two executions of one cell: every one
    # counts as a failed operation, as does a service that would not stop
    # and a set-up step that went wrong.
    problems += workload.problems
    failed += put_repeats + len(problems)
    problems += [p.aborted for p in passes if p.aborted]

    if args.trace:
        metrics = bench.per_layer(passes, tracer.spans, worker_spans, workload.setup,
                                  put_repeats)
        units = bench.LAYER_UNITS
        # A fraction or a repeat count of 0 is a measurement; any other 0
        # means the workload never reached that layer.
        notes = {name: "0: not on this workload's path"
                 if value == 0 and not name.endswith(("_frac", "put_repeats")) else ""
                 for name, value in metrics.items()}
        traced_walls = sorted(p.wall_s for p in passes if p.traced)
        checks = bench.purpose_checks(
            args.workload, metrics, traced_walls[len(traced_walls) // 2],
            sum(workload.widths.values()))
    else:
        table = bench.end_to_end(passes, workload.setup, peak_mib)
        metrics = {name: value for name, (value, _unit, _note) in table.items()}
        units = {name: unit for name, (_value, unit, _note) in table.items()}
        notes = {name: note for name, (_value, _unit, note) in table.items()}
        checks = []

    error_rate = failed / attempted if attempted else 1.0
    traced_count = sum(1 for p in passes if p.traced)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes ({traced_count} traced), {attempted} deliveries, "
          f"{failed} failed, {unchecked} unchecked, pinned to CPU {cpu}")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {units[name]:<12} {notes[name]}")
    print(f"  {'error_rate':<26} {error_rate:>14.6g} {'fraction':<12} "
          f"{failed} failed of {attempted} attempted")
    for text, ok in checks:
        print(f"  check: {'ok  ' if ok else 'FAIL'} {text}")
    for text in bench.UNMEASURED if args.trace else ():
        print(f"  not separable from outside: {text}")
    for problem in problems:
        print(f"  problem: {problem}")
    for delivery in deliveries:
        if delivery.failure is not None:
            print(f"  failed: {delivery.figure_id}: {delivery.failure}")

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "figures": list(workload.figures),
        "pass_seeds": [p.seed for p in passes], "pinned_cpu": cpu,
        "host_clock": clock.samples,
        "python": sys.version.split()[0], "platform": platform.platform(),
    }
    summary = {
        "metrics": {name: {"value": value, "unit": units[name], "samples": notes[name]}
                    for name, value in metrics.items()},
        "error_rate": error_rate, "attempted": attempted, "failed": failed,
        "unchecked": unchecked, "setup": workload.setup,
        "checks": [{"check": text, "ok": ok} for text, ok in checks],
        "unmeasured": list(bench.UNMEASURED) if args.trace else [],
        "problems": problems,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    with open(out / "samples.jsonl", "w", encoding="utf-8") as handle:
        for record in passes:
            handle.write(json.dumps(record.sample()) + "\n")
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(json.dumps({
        "correct": failed == 0 and unchecked == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
