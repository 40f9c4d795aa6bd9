"""The repository benchmark: one command, every metric, output checks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload core-scale --seed 0 --seconds 15 \\
        --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):

- ``core-scale`` — back-to-back quadratic-BA executions, n = 256;
- ``paper-sweeps`` — every library sweep cold into a fresh store, then
  warm replay passes each followed by rendering the results book;
- ``service-jobs`` — two closed-loop HTTP clients running
  submit → wait → artifact against the experiment service.

``--trace 0`` measures for ``--seconds`` with no instrumentation and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed amount of the
workload once untraced and once traced (outputs must match), prints the
per-layer metrics and the tracing overhead, and writes the spans under
``.perfbench/``.  Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; lines
before it describe the run (environment, sample counts, uncovered
registry keys, every failed check by name).

The benchmark refuses to run (exit code 2) when ``REPRO_SCHEDULER`` is
set or verification caching is off, since either one silently measures
a different engine, and exits with code 3 when the program's sources are
not next to it.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is measured this many times per run (this process plus fresh
#: child processes), and the median reported.
SETUP_SAMPLES = 3

#: Operation times and rates are reported at the host speed where the
#: speed probe's kernel takes this long (see workloads.SpeedProbe):
#: measured × (REFERENCE_KERNEL_S / the window's mean kernel time).
REFERENCE_KERNEL_S = 0.0015


def emit(kind: str, payload) -> None:
    """One descriptive line (never the last line of the output)."""
    print(f"perfbench {kind}: {json.dumps(payload, sort_keys=True)}",
          flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, and exit "
                             "(how the extra set-up samples are taken)")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-tests)")
    return parser.parse_args(argv)


def environment() -> dict:
    """The run environment record; raises SystemExit(2) when the
    environment would silently measure a different engine."""
    if os.environ.get("REPRO_SCHEDULER"):
        print("perfbench: refusing to run with REPRO_SCHEDULER="
              f"{os.environ['REPRO_SCHEDULER']!r} set (it selects a "
              "different scheduler)", file=sys.stderr)
        raise SystemExit(2)
    import numpy
    from repro.harness.report import git_describe
    from repro.harness.store import STORE_SALT
    from repro.protocols import verification
    if not verification.CACHING_ENABLED:
        print("perfbench: refusing to run with verification caching "
              "disabled", file=sys.stderr)
        raise SystemExit(2)
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_describe": git_describe(ROOT),
        "store_salt": STORE_SALT,
    }


def load_goldens() -> dict:
    return json.loads((HERE / "goldens.json").read_text())


def tail(latencies):
    """The highest percentile with at least ten samples beyond it
    (the maximum when there are fewer than eleven samples)."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = count - 11 if count > 10 else count - 1
    return ordered[rank], 100.0 * rank / count


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_sample(args) -> dict:
    """Set the workload up in a fresh child process; returns its
    ``{"setup_s", "errors"}``."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"] + (["--tiny"] if args.tiny else [])
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=170, cwd=str(ROOT))
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child exited {completed.returncode}: "
                           f"{completed.stderr.strip()[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def untraced_run(args, workload) -> dict:
    timed = workload.timed(args.seconds)
    if not timed.latencies:
        raise RuntimeError("no operation completed in the timed window")
    tails = [tail(latencies) for latencies in
             (timed.passes or [timed.latencies])]
    measured = {
        "op_p50_s": statistics.median(timed.latencies),
        "op_tail_s": statistics.median(value for value, _ in tails),
        "ops_per_s": len(timed.latencies) / timed.wall_s,
    }
    kernel_s = workload.probe.mean_s()
    scale = REFERENCE_KERNEL_S / kernel_s
    emit("samples", dict(timed.notes, operations=len(timed.latencies),
                         tail_percentile=round(tails[0][1], 2),
                         probe_samples=len(workload.probe.samples),
                         probe_kernel_s=kernel_s, measured=measured))
    metrics = {
        "op_p50_s": (measured["op_p50_s"] * scale, "s"),
        "op_tail_s": (measured["op_tail_s"] * scale, "s"),
        "ops_per_s": (measured["ops_per_s"] / scale, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {"attempted": timed.attempted, "failed": timed.failed,
            "metrics": metrics}


def traced_run(args, workload, uncovered) -> dict:
    """Fixed work untraced, then the same work traced; per-layer
    metrics from the traced half, outputs required equal.  Registry
    keys in ``uncovered`` get no per-layer rows."""
    import tracer as tracing
    size = workload.fixed_size(args.seconds)
    began = time.perf_counter()
    untraced = workload.fixed(size)
    untraced_s = time.perf_counter() - began
    replay_rate = getattr(workload, "replay_cells_per_s", 0.0)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        began = time.perf_counter()
        traced = workload.fixed(size, tracer=tracer)
        traced_s = time.perf_counter() - began
    finally:
        tracer.restore()

    failed = 0
    if traced != untraced:
        workload.error(f"{workload.name}: traced outputs differ from the "
                       "untraced run's")
        failed = 1
    spans_path = tracer.write(
        ROOT / ".perfbench" / "traces"
        / f"{workload.name}-seed{args.seed}-{os.getpid()}.json")
    metrics = tracing.layer_metrics(
        tracer, traced_s, [key for key in tracing.registry_keys()
                           if key not in uncovered])
    metrics["harness.replay.cells_per_s"] = (replay_rate, "1/s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0,
                                       "ratio")
    emit("trace", {"fixed_size": size, "untraced_s": untraced_s,
                   "traced_s": traced_s,
                   "spans": len(tracer.spans),
                   "dropped_spans": tracer.dropped_spans,
                   "spans_file": str(spans_path.relative_to(ROOT))})
    emit("registry keys this workload leaves unexecuted",
         [key for key in tracing.registry_keys()
          if not tracer.calls(f"protocols.{key}.on_round")])
    return {"attempted": 2 * size, "failed": failed, "metrics": metrics}


def benchmark_metrics(trace: int):
    """``(name, unit)`` of every metric BENCHMARK.json lists for this
    kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"])
            for metric in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    # service-jobs holds descriptors in proportion to the jobs it serves
    # (see perfbench/README.md); allow the hard limit.
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != hard:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, uncovered_registry_keys
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    env = environment()
    scratch = ROOT / ".perfbench" / "tmp" / uuid.uuid4().hex
    scratch.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, scratch, load_goldens(),
                                        tiny=args.tiny)
    try:
        workload.setup()
        setup_s = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s,
                              "errors": workload.errors}))
            return 0
        emit("environment", dict(env, workload=args.workload,
                                 seed=args.seed, seconds=args.seconds,
                                 trace=args.trace, tiny=args.tiny))
        uncovered = uncovered_registry_keys()
        emit("registry keys no workload executes", uncovered)
        if args.trace:
            outcome = traced_run(args, workload, uncovered)
        else:
            outcome = untraced_run(args, workload)
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.trace:
        setups = [setup_s]
        for _ in range(SETUP_SAMPLES - 1):
            sample = setup_sample(args)
            setups.append(sample["setup_s"])
            workload.errors.extend(f"set-up child: {message}"
                                   for message in sample["errors"])
        emit("setup samples", setups)
        outcome["metrics"]["setup_s"] = (statistics.median(setups), "s")
    for message in workload.errors:
        emit("check failed", message)
    measured = outcome["metrics"]
    listed = benchmark_metrics(args.trace)
    unlisted = sorted(set(measured) - {name for name, _ in listed})
    if unlisted:
        emit("measured but not listed in BENCHMARK.json", unlisted)
    missing = [name for name, _ in listed if name not in measured]
    if missing:
        emit("listed in BENCHMARK.json but not measured (reported as 0)",
             missing)
    failed = outcome["failed"] or int(bool(workload.errors))
    result = {
        "correct": not workload.errors,
        "attempted": outcome["attempted"],
        "failed": min(failed, outcome["attempted"]),
        "metrics": {name: {"value": measured.get(name, (0,))[0],
                           "unit": unit}
                    for name, unit in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
