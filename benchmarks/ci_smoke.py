"""CI benchmark smoke: serial vs. parallel-backend determinism gates.

Runs a small figure subset through ``BenchmarkSuite(quick=True)`` —
once on the serial backend, once with the flat (platform x rep) grid
pool (``grid_jobs``), and (when ``--remote-workers`` names a fleet) once
through the remote grid backend — and asserts all summaries are
bit-identical, then archives the grid pool run's JSON + manifest as the
CI artifact. Every non-serial leg's records are checked too: each figure
ran, each grid dispatch recorded its slab size, and the 27-cell grids of
fig05 and fig16 ended on a short slab (at two slots every mapper ships
4-cell slabs, so the last one holds 3 cells). The emitted
``BENCH_smoke.json`` records per-backend wall times, for reading in the
artifact only; the repo's benchmark is ``perfbench/`` (see
``BENCHMARK.json``).

With ``--store-url`` the smoke also gates the shared fleet store:
client A warms the named ``repro-bench store`` server, then client B —
an empty local cache, warm server — must report every figure as
``hit-remote`` with zero executed jobs and byte-identical result JSON.

With ``--fleet-url`` the smoke adds a dynamic-fleet leg: the roster is
resolved from the named ``repro-bench fleet`` coordinator at dispatch
time instead of hand-rostered, and the run must still be bit-identical
to serial. In CI the leg runs on the one worker registered before it
starts; a mid-run join is gated by the later CI step "Serial vs
elastic-fleet CLI bit-identity gate (mid-run join)", which starts a
second worker about a second into a fleet ``run all --quick``.

Usage::

    python benchmarks/ci_smoke.py --out bench-artifacts --grid-jobs 2
    # with a worker started via `repro-bench worker --port 7077`:
    python benchmarks/ci_smoke.py --remote-workers 127.0.0.1:7077
    # with a store started via `repro-bench store --port 7078 --dir d`:
    python benchmarks/ci_smoke.py --store-url 127.0.0.1:7078
    # with a coordinator (`repro-bench fleet --port 7079`) and workers
    # registered to it via `repro-bench worker --fleet 127.0.0.1:7079`:
    python benchmarks/ci_smoke.py --fleet-url 127.0.0.1:7079
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import time

# Allow running from a checkout without installation.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.suite import BenchmarkSuite  # noqa: E402

#: Small, fast subset spanning bar figures, series figures, a startup CDF
#: on the ``simcore`` engine, the memcached closed-loop kernel, and the
#: deterministic HAP table. fig05 is the acceptance gate for grid-level
#: parallelism (widest roster: 9 platforms). fig15 stands for fig13–15,
#: the figures still on the engine: both measurement methods at width 6.
SMOKE_FIGURES = [
    "fig05", "cpu-prime", "fig11", "fig12", "fig15", "fig16", "fig17", "fig18",
]

#: Figures whose 27 quick cells do not divide into the slabs a non-serial
#: leg ships, so their grids end on a short slab.
SHORT_SLAB_FIGURES = ("fig05", "fig16")


def run_backend(
    seed: int,
    figures: list[str],
    grid_jobs: int = 1,
    workers: tuple[str, ...] = (),
    fleet_url: str | None = None,
) -> tuple[BenchmarkSuite, float]:
    suite = BenchmarkSuite(
        seed=seed, quick=True, grid_jobs=grid_jobs, workers=workers,
        fleet_url=fleet_url,
    )
    started = time.perf_counter()
    suite.run_all(figures)
    return suite, time.perf_counter() - started


def leg_problems(suite: BenchmarkSuite) -> list[str]:
    """What a non-serial leg's records show wrong, one line per figure.

    (``run_all`` already raised if a figure failed.) A grid dispatch
    with no recorded slab size is a problem, and so is a
    :data:`SHORT_SLAB_FIGURES` grid that divided evenly: then the leg
    never shipped a short last slab.
    """
    problems = []
    for record in suite.last_report.records:
        width, slab = record.grid_width, record.chunk_size
        if not width or slab is None:
            problems.append(f"{record.figure_id}: width={width} chunk={slab}")
        elif record.figure_id in SHORT_SLAB_FIGURES and width % slab == 0:
            problems.append(
                f"{record.figure_id}: {width} cells in {slab}-cell slabs, no short slab"
            )
    return problems


def compare(
    reference: BenchmarkSuite, candidate: BenchmarkSuite, figures: list[str]
) -> list[str]:
    """Figure ids whose summaries differ between the two suites."""
    return [
        figure_id
        for figure_id in figures
        if reference.run_figure(figure_id).comparable_dict()
        != candidate.run_figure(figure_id).comparable_dict()
    ]


def run_store_gate(
    seed: int, figures: list[str], store_url: str, out: pathlib.Path,
    reference: BenchmarkSuite,
) -> dict:
    """The shared fleet store gate: warm server, cold client, zero work.

    Client A (no local tier) computes the figures and publishes them to
    the store server; client B reads through an empty local cache and
    must be satisfied entirely by ``hit-remote`` reads — zero executed
    jobs, byte-identical JSON against the serial reference.
    """
    client_a = BenchmarkSuite(seed=seed, quick=True, store_url=store_url)
    started = time.perf_counter()
    client_a.run_all(figures)
    warm_wall = time.perf_counter() - started

    # The local tier must start empty or the gate false-fails on a rerun
    # (a warm leftover dir turns every hit-remote into hit-local).
    local_tier = out / "store-gate-local"
    shutil.rmtree(local_tier, ignore_errors=True)
    client_b = BenchmarkSuite(
        seed=seed, quick=True, store_url=store_url, cache_dir=local_tier
    )
    started = time.perf_counter()
    client_b.run_all(figures)
    cold_wall = time.perf_counter() - started
    report = client_b.last_report
    dispositions = {r.figure_id: r.cache for r in report.records}
    not_remote = sorted(f for f, cache in dispositions.items() if cache != "hit-remote")
    # comparable_dict equality == byte-identical canonical JSON (both
    # sides serialize the same JSON-ready dicts), so the one compare()
    # helper is the single source of truth for every bit-identity gate.
    mismatches = compare(reference, client_b, figures)
    return {
        "store_url": store_url,
        "warm_wall_s": round(warm_wall, 4),
        "cold_wall_s": round(cold_wall, 4),
        "executed": report.executed,
        "dispositions": dispositions,
        "not_remote": not_remote,
        "mismatches": mismatches,
        "ok": report.executed == 0 and not not_remote and not mismatches,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--grid-jobs", type=int, default=2,
        help="pool width for the flat-grid leg",
    )
    parser.add_argument("--out", default="bench-artifacts", help="artifact directory")
    parser.add_argument(
        "--figures", nargs="*", default=SMOKE_FIGURES, help="figure subset to exercise"
    )
    parser.add_argument(
        "--remote-workers", default=None, metavar="HOST:PORT[,...]",
        help="also gate serial vs the remote grid backend against this "
             "worker fleet (each member: repro-bench worker --port P)",
    )
    parser.add_argument(
        "--store-url", default=None, metavar="HOST:PORT",
        help="also gate the shared fleet store: warm this repro-bench "
             "store server with one client, then require a cold-cache "
             "client to run everything as hit-remote with zero executions",
    )
    parser.add_argument(
        "--fleet-url", default=None, metavar="HOST:PORT",
        help="also gate the dynamic fleet: resolve the roster from this "
             "repro-bench fleet coordinator at dispatch time and require "
             "the run to stay bit-identical to serial",
    )
    args = parser.parse_args(argv)
    remote_fleet = tuple(
        part.strip() for part in args.remote_workers.split(",") if part.strip()
    ) if args.remote_workers else ()

    serial_suite, serial_wall = run_backend(args.seed, args.figures)
    grid_suite, grid_wall = run_backend(args.seed, args.figures, grid_jobs=args.grid_jobs)

    grid_mismatches = compare(serial_suite, grid_suite, args.figures)
    problems = {"grid": leg_problems(grid_suite)}
    remote_mismatches: list[str] = []
    remote_wall = None
    if remote_fleet:
        remote_suite, remote_wall = run_backend(
            args.seed, args.figures, workers=remote_fleet
        )
        remote_mismatches = compare(serial_suite, remote_suite, args.figures)
        problems["remote"] = leg_problems(remote_suite)
    fleet_mismatches: list[str] = []
    fleet_wall = None
    fleet_roster: list[str] = []
    if args.fleet_url:
        fleet_suite, fleet_wall = run_backend(
            args.seed, args.figures, fleet_url=args.fleet_url
        )
        fleet_mismatches = compare(serial_suite, fleet_suite, args.figures)
        problems["fleet"] = leg_problems(fleet_suite)
        # The roster that materialized, for reading in BENCH_smoke.json;
        # nothing asserts on it (CI's mid-run join has its own CLI step).
        fleet_roster = sorted(
            {
                worker
                for record in fleet_suite.last_report.records
                for worker in (record.workers or ())
            }
        )
    out = pathlib.Path(args.out)
    store_gate = None
    if args.store_url:
        store_gate = run_store_gate(
            args.seed, args.figures, args.store_url, out, serial_suite
        )

    mismatches = sorted(
        set(grid_mismatches) | set(remote_mismatches) | set(fleet_mismatches)
        | set(store_gate["mismatches"] if store_gate else ())
    )
    leg_failures = [
        f"{leg} {problem}" for leg, found in problems.items() for problem in found
    ]
    store_failed = store_gate is not None and not store_gate["ok"]
    if mismatches:
        status = f"MISMATCH: {', '.join(mismatches)}"
    elif leg_failures:
        status = f"LEG RECORDS FAILED: {'; '.join(leg_failures)}"
    elif store_failed:
        status = (
            f"STORE GATE FAILED: executed={store_gate['executed']} "
            f"not-remote={','.join(store_gate['not_remote'])}"
        )
    else:
        status = "ok"
    remote_note = (
        f" remote[{','.join(remote_fleet)}]={remote_wall:.2f}s" if remote_fleet else ""
    )
    store_note = (
        f" store[{args.store_url}] warm={store_gate['warm_wall_s']:.2f}s "
        f"cold={store_gate['cold_wall_s']:.2f}s executed={store_gate['executed']}"
        if store_gate else ""
    )
    fleet_note = (
        f" fleet[{args.fleet_url}]={fleet_wall:.2f}s "
        f"roster={','.join(fleet_roster) or '-'}"
        if args.fleet_url else ""
    )
    print(
        f"smoke[{','.join(args.figures)}] seed={args.seed} "
        f"serial={serial_wall:.2f}s "
        f"grid-jobs={args.grid_jobs}={grid_wall:.2f}s{remote_note}{fleet_note}"
        f"{store_note} -> {status}"
    )
    grid_suite.save_results(out)
    (out / "BENCH_smoke.json").write_text(
        json.dumps(
            {
                "seed": args.seed,
                "figures": args.figures,
                "serial_wall_s": round(serial_wall, 4),
                "grid_parallel_wall_s": round(grid_wall, 4),
                "remote_wall_s": round(remote_wall, 4) if remote_wall is not None else None,
                "grid_jobs": args.grid_jobs,
                "remote_workers": list(remote_fleet),
                "fleet_url": args.fleet_url,
                "fleet_wall_s": round(fleet_wall, 4) if fleet_wall is not None else None,
                "fleet_roster": fleet_roster,
                "identical": not mismatches,
                "mismatches": mismatches,
                "grid_mismatches": grid_mismatches,
                "remote_mismatches": remote_mismatches,
                "fleet_mismatches": fleet_mismatches,
                "leg_problems": problems,
                "store_gate": store_gate,
            },
            indent=2,
        )
    )
    print(f"archived artifacts to {out}/")
    return 1 if mismatches or leg_failures or store_failed else 0


if __name__ == "__main__":
    sys.exit(main())
