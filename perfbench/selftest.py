"""Self-tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]

#: Per-layer call counts that depend on thread timing (long-poll rounds),
#: so they are exempt from the exact-repeat check.
TIMING_DEPENDENT = {"service.http.requests", "service.events.calls"}

#: The seams each workload must drive (a zero count means the wrapper
#: missed the binding the program actually calls).
BUSY = {
    "core-scale": [
        "protocols.quadratic.on_round.calls", "sim.network.deliver.calls",
        "sim.network.stage.calls", "sim.engine.run.calls",
        "crypto.check.calls", "verify.cache.requests",
        "serialization.size.calls",
    ],
    "paper-sweeps": [
        "sim.conditions.advance_to.calls", "eligibility.coin.calls",
        "eligibility.fmine.calls", "harness.cell.calls",
        "harness.cell.computed", "harness.cell.replayed",
        "harness.store.load_record.calls",
        "harness.store.save_result.calls",
        "harness.store.record_sweep.calls",
        "harness.report.render_book.calls",
    ],
    "service-jobs": [
        "harness.cell.calls", "harness.cell.replayed",
        "harness.store.load_record.calls",
        "harness.store.update_job.calls",
        "harness.store.record_sweep.calls", "service.submit.calls",
        "service.events.calls", "service.http.requests",
    ],
}


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT,
                  env=None, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
        env=env)


def last_json(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs of every workload, same seed."""
    return {name: [last_json(run_benchmark(name, 1)) for _ in range(2)]
            for name in WORKLOAD_NAMES}


@pytest.fixture
def scratch():
    path = ROOT / ".perfbench" / "tmp" / uuid.uuid4().hex
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_runs_tiny(workload):
    completed = run_benchmark(workload, 0)
    result = last_json(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0, metric["name"]
    # Operation times are the measured ones at the reference host speed.
    line = next(line for line in completed.stdout.splitlines()
                if line.startswith("perfbench samples: "))
    samples = json.loads(line[len("perfbench samples: "):])
    assert samples["probe_samples"] >= 1
    scale = run.REFERENCE_KERNEL_S / samples["probe_kernel_s"]
    measured = samples["measured"]
    metrics = result["metrics"]
    assert metrics["op_p50_s"]["value"] == pytest.approx(
        measured["op_p50_s"] * scale)
    assert metrics["ops_per_s"]["value"] == pytest.approx(
        measured["ops_per_s"] / scale)


def test_speed_probe_samples_at_most_once_per_interval():
    probe = workloads.SpeedProbe(interval=60.0)
    probe.maybe_sample()
    probe.maybe_sample()
    assert len(probe.samples) == 1 and probe.mean_s() > 0


def test_traced_runs_report_every_per_layer_metric(traced):
    names = {metric["name"] for metric in SPEC["per_layer"]}
    for name, runs in traced.items():
        for result in runs:
            assert result["correct"] is True, name
            assert set(result["metrics"]) == names


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_seam_records_calls_where_busy(traced, workload):
    metrics = traced[workload][0]["metrics"]
    for name in BUSY[workload]:
        assert metrics[name]["value"] > 0, f"{workload}: {name} is 0"


def test_busy_lists_cover_every_counted_seam():
    counted = {metric["name"] for metric in SPEC["per_layer"]
               if metric["unit"] == "count"
               and not metric["name"].startswith("protocols.")}
    assert counted <= {name for names in BUSY.values() for name in names}


def test_per_layer_counts_repeat_exactly(traced):
    for name, (first, second) in traced.items():
        for metric, entry in first["metrics"].items():
            if entry["unit"] != "count" or metric in TIMING_DEPENDENT:
                continue
            assert second["metrics"][metric]["value"] == entry["value"], \
                f"{name}: {metric}"


def test_protocol_rows_match_the_registry():
    """One row pair per registry key some workload executes; the keys no
    workload executes are printed as uncovered instead."""
    uncovered = workloads.uncovered_registry_keys()
    listed = {metric["name"] for metric in SPEC["per_layer"]
              if metric["name"].startswith("protocols.")}
    derived = {f"protocols.{key}.on_round.{kind}"
               for key in tracing.registry_keys() if key not in uncovered
               for kind in ("calls", "self_s")}
    assert listed == derived


def test_uncovered_registry_keys():
    assert set(workloads.uncovered_registry_keys()) == {
        "phase-king-subquadratic", "round-eligibility", "dolev-strong",
        "broadcast-from-ba"}


def test_tampered_core_golden_is_caught(scratch):
    workload = workloads.CoreScale(0, scratch, {}, tiny=True)
    workload.setup()
    fields = workload.execute(1)
    tampered = dict(fields, rounds=fields["rounds"] + 1)
    workload.golden = [fields, tampered]
    workload.errors.clear()
    workload.execute(1)
    assert workload.errors == [
        f"core-scale execution 1: golden rounds {fields['rounds'] + 1} "
        f"!= {fields['rounds']}"]


def test_tampered_sweep_golden_is_caught(scratch):
    goldens = json.loads((HERE / "goldens.json").read_text())
    goldens["sweeps"]["smoke"]["csv_sha256"] = "0" * 64
    workload = workloads.PaperSweeps(0, scratch, goldens, tiny=True)
    workload.setup()
    try:
        _cells, bad = workload.cold_pass(workload.store)
    finally:
        workload.teardown()
    assert workload.errors == ["paper-sweeps cold smoke: csv artifact "
                               "differs from the golden digest"]
    assert bad == 2


def test_no_wrapper_leaks_past_a_traced_run(scratch):
    workload = workloads.CoreScale(0, scratch, {}, tiny=True)
    workload.setup()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer._patches)
    try:
        workload.fixed(1)
    finally:
        tracer.restore()
    assert patched and not tracer._patches
    assert tracer.calls("protocols.quadratic.on_round") > 0
    for owner, attr, had_own, original in patched:
        table = owner if isinstance(owner, dict) else vars(owner)
        if had_own:
            assert table[attr] is original, (owner, attr)
        else:
            assert attr not in table, (owner, attr)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and module is not None:
            for attr, value in vars(module).items():
                assert getattr(value, "__module__", "") != "tracer", \
                    (module_name, attr)


def test_refuses_a_forced_scheduler():
    env = dict(os.environ, REPRO_SCHEDULER="lockstep")
    completed = run_benchmark("core-scale", 0, env=env)
    assert completed.returncode == 2
    assert completed.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("core-scale", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
