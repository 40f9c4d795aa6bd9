"""Record the benchmark's golden deterministic fields into goldens.json.

For the default workload seed it records, per core-scale execution, the
rounds, honest multicast messages and bits, classical words and
``authenticator.check`` calls, and for every library sweep the SHA-256
of the JSON and CSV artifacts of a direct store-backed ``run_sweep``
(the bytes the experiment service must serve for the same sweep).

Re-record only when a change is meant to alter these outputs::

    python3 perfbench/record_goldens.py [--executions 96]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import (CORE_F, CORE_N, DEFAULT_SEED, CoreScale,  # noqa: E402
                       PaperSweeps)


def record_core(executions: int, scratch: Path) -> dict:
    workload = CoreScale(DEFAULT_SEED, scratch, goldens={})
    workload.setup()
    tracer = tracing.Tracer(span_cap=0)
    tracing.install(tracer)
    records = []
    try:
        for index in range(executions):
            before = tracer.calls("crypto.check")
            fields = workload.execute(index)
            fields["check_calls"] = tracer.calls("crypto.check") - before
            records.append(fields)
    finally:
        tracer.restore()
    if workload.errors:
        raise SystemExit("\n".join(workload.errors))
    return {"n": CORE_N, "f": CORE_F, "executions": records}


def record_sweeps(scratch: Path) -> dict:
    workload = PaperSweeps(DEFAULT_SEED, scratch, goldens={})
    workload.setup()
    try:
        workload.cold_pass(workload.store)
    finally:
        workload.teardown()
    if workload.errors:
        raise SystemExit("\n".join(workload.errors))
    return {name: {"json_sha256": digests[0], "csv_sha256": digests[1]}
            for name, digests in sorted(workload.cold_artifacts.items())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--executions", type=int, default=96)
    args = parser.parse_args()
    scratch = ROOT / ".perfbench" / "tmp" / uuid.uuid4().hex
    scratch.mkdir(parents=True)
    try:
        goldens = {
            "default_seed": DEFAULT_SEED,
            "core": record_core(args.executions, scratch),
            "sweeps": record_sweeps(scratch),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "goldens.json").write_text(
        json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
