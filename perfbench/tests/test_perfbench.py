"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke tests run each workload for one pass (about a minute in all).
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

from perfbench import bench, tracing
from repro.core.scheduler import ExperimentScheduler

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_pass_smoke_reports_every_end_to_end_metric(workload):
    done = run_benchmark(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == bench.MIN_PASSES * len(bench.WORKLOAD_CLASSES[workload].figures)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert re.search(r"^  error_rate +0 fraction", done.stdout, re.MULTILINE)


def test_traced_smoke_reports_every_per_layer_metric():
    done = run_benchmark("fleet-cold", 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    cheap_cells = 737  # the ten cheap figures' grids at paper scale
    assert metrics["workloads.cells"] == cheap_cells
    assert metrics["worker.lease_rpcs"] == 2 * cheap_cells
    assert metrics["storenet.put_repeats"] == 0
    assert "check: FAIL" not in done.stdout


def test_without_program_source_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = run_benchmark("paper-serial", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def _delivered(figure_id: str = "fig05", seed: int = 1001):
    report = ExperimentScheduler(seed=seed).run([figure_id], {figure_id: {"repetitions": 2}})
    record = bench.Pass(index=0, seed=seed, traced=False)
    record.deliveries.append(bench.Delivery(figure_id, 0.01, 0.0, 18))
    return record, dict(report.results), {figure_id: report.records[0]}


def test_a_corrupted_reference_digest_is_a_failed_delivery(tmp_path):
    workload = bench.PaperSerial(seed=1, trace=False, service_root=tmp_path)
    record, results, records = _delivered()
    good = bench.digest(results["fig05"])
    workload.references = {1001: {"fig05": "0" * 32}}
    bench.check_pass(workload, record, results, records)
    assert "reference" in record.deliveries[0].failure
    assert record.sample()["figures"][0]["failure"] is not None

    record, results, records = _delivered()
    workload.references = {1001: {"fig05": good}}
    bench.check_pass(workload, record, results, records)
    assert record.deliveries[0].failure is None and not record.deliveries[0].unchecked


def test_a_seed_without_reference_is_unchecked_not_passed(tmp_path):
    workload = bench.PaperSerial(seed=1, trace=False, service_root=tmp_path)
    workload.references = {}
    record, results, records = _delivered()
    bench.check_pass(workload, record, results, records)
    assert record.deliveries[0].unchecked and record.deliveries[0].failure is None


def test_a_wrong_cache_disposition_is_a_failed_delivery(tmp_path):
    workload = bench.WarmRerun(seed=1, trace=False, service_root=tmp_path)
    record, results, records = _delivered()
    bench.check_pass(workload, record, results, records)
    assert "expected hit-remote" in record.deliveries[0].failure


def _patched_attributes():
    from repro.core import remote, storenet
    from repro.simcore import event

    targets = [(owner, attr) for role in ("client", "worker")
               for owner, attr, _name in tracing.patch_targets(role)]
    targets += [(event.EventQueue, "push"), (storenet, "send_frame"),
                (storenet, "recv_frame"), (remote, "send_frame")]
    return {(owner, attr): vars(owner)[attr] for owner, attr in targets}


@pytest.mark.parametrize("role", ["client", "worker"])
def test_wrappers_leave_every_patched_attribute_identical(role):
    before = _patched_attributes()
    patches = tracing.install(tracing.Tracer(), role)
    changed = {key for key, value in _patched_attributes().items() if value is not before[key]}
    assert changed, "install() replaced nothing"
    patches.restore()
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)


def test_traced_results_are_bit_identical_to_untraced():
    def fig13_digest():
        report = ExperimentScheduler(seed=7).run(["fig13"], {"fig13": {"startups": 5}})
        return bench.digest(report.results["fig13"])

    untraced = fig13_digest()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, "client")
    try:
        traced = fig13_digest()
    finally:
        patches.restore()
    assert traced == untraced
    names = {span[2] for span in tracer.spans}
    assert {"scheduler", "plan.lower", "workloads.execute", "simcore.run"} <= names
    assert tracer.pushes > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "parent", 0.0, 10.0, None, None),
        (2, 1, "child", 1.0, 3.0, None, None),
        (3, 1, "child", 2.0, 5.0, None, None),
        (4, 3, "grandchild", 2.5, 4.0, None, None),
    ]
    self_s = {span[0]: value for span, value in tracing.self_times(spans)}
    assert self_s == {1: 6.0, 2: 2.0, 3: 1.5, 4: 1.5}
