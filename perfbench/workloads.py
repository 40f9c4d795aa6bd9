"""The benchmark's three workloads.

Each workload is built from the workload seed alone and exposes:

- ``setup()`` — everything before the first timed operation;
- ``timed(seconds)`` — a closed loop over the workload's operations until
  ``seconds`` have passed, returning a :class:`Timed` record;
- ``fixed(size)`` — a fixed amount of the same work, returning its
  outputs (the traced run executes it once untraced and once traced and
  requires equal outputs);
- ``teardown()``.

Every operation's outputs are checked as it completes; a mismatch is
appended to ``errors`` by name and counts as a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: The seed the golden deterministic fields were recorded with.
DEFAULT_SEED = 0

#: core-scale size: quadratic BA at n = 256, f = n/2 - 1, no adversary,
#: unconditioned synchronous network.
CORE_N = 256
CORE_F = 127
TINY_CORE_N = 32
TINY_CORE_F = 15

#: Sweeps replayed by service-jobs: every library sweep except the two
#: eligibility-lottery-heavy ones, whose cold recording would dominate
#: the workload's set-up time.
SERVICE_SWEEPS = ("comm-vs-n", "latency-stress", "partition-heal",
                  "early-stop-vs-delta", "leader-vs-delta",
                  "leader-vs-quadratic", "words-vs-actual-f",
                  "topology-grid", "smoke")
TINY_SWEEPS = ("smoke", "early-stop-vs-delta")
TINY_SERVICE_SWEEPS = ("smoke",)
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def derived_seed(*parts: Any) -> int:
    """A 48-bit seed derived from the workload seed and a label."""
    text = "/".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


class SpeedProbe:
    """Samples how fast the host runs while a workload is timed.

    On a shared host, identical work runs up to about 1.8 times slower
    while neighbours are busy, and that switches within seconds.  A fixed
    pure-Python kernel, timed in the calling thread's CPU time (so waits
    for the interpreter lock do not count), runs at operation boundaries,
    at most once per ``interval`` seconds per thread; the mean kernel time
    over the window measures the host's speed during that window.  The
    kernel is the benchmark's own code: no program change alters it.
    """

    ITERATIONS = 6000

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def maybe_sample(self) -> None:
        """Sample unless this thread sampled less than ``interval`` ago."""
        last = getattr(self._local, "last", float("-inf"))
        if perf_counter() - last >= self.interval:
            self.sample()

    def sample(self) -> None:
        self._local.last = perf_counter()
        gc.disable()
        try:
            start = time.thread_time()
            table: Dict[Tuple[int, str], int] = {}
            acc = 0
            for i in range(self.ITERATIONS):
                key = (i & 1023, "k")
                table[key] = table.get(key, 0) + i
                acc += len(table) ^ (i * 7)
            elapsed = time.thread_time() - start
        finally:
            gc.enable()
        with self._lock:
            self.samples.append(elapsed)

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)


@dataclass
class Timed:
    """One timed phase: per-operation latencies and the phase wall."""

    latencies: List[float]
    wall_s: float
    attempted: int
    failed: int
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Latencies split into identical passes over one fixed set of
    #: operations; the tail is then taken per pass (so its percentile
    #: does not depend on how many passes fit the window).
    passes: Optional[List[List[float]]] = None


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path, goldens: Dict[str, Any],
                 tiny: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.goldens = goldens
        self.tiny = tiny
        self.errors: List[str] = []
        self.probe = SpeedProbe()

    def error(self, message: str) -> None:
        self.errors.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self, seconds: float) -> Timed:
        raise NotImplementedError

    def fixed(self, size: int, tracer=None) -> List[Any]:
        """Run ``size`` units of fixed work; ``tracer`` is the active
        tracer on the traced pass (None on the untraced one)."""
        raise NotImplementedError

    def fixed_size(self, seconds: float) -> int:
        """How much fixed work the traced run does for ``seconds``."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what set-up acquired; safe to call more than once."""


# ---------------------------------------------------------------------------
# core-scale
# ---------------------------------------------------------------------------


class CoreScale(Workload):
    """Back-to-back quadratic-BA executions (build + run)."""

    name = "core-scale"

    def setup(self) -> None:
        from repro.harness.runner import run_instance
        from repro.harness.scenarios import PROTOCOLS
        self._run_instance = run_instance
        self._protocols = PROTOCOLS
        self.n, self.f = ((TINY_CORE_N, TINY_CORE_F) if self.tiny
                          else (CORE_N, CORE_F))
        golden = self.goldens.get("core", {})
        self.golden = (golden.get("executions", [])
                       if self.seed == DEFAULT_SEED
                       and golden.get("n") == self.n else [])
        # Untimed warm-up: execution 0.
        self.execute(0)

    def execute(self, index: int) -> Dict[str, Any]:
        """Build and run execution ``index``; returns its deterministic
        fields and records any failed check."""
        seed = derived_seed("core-scale", self.seed, index)
        rng = random.Random(seed)
        inputs = [rng.randrange(2) for _ in range(self.n)]
        # Looked up on every call, so the traced run's registry wrapper
        # sees the build.
        builder = self._protocols["quadratic"].builder
        instance = builder(self.n, self.f, inputs, seed=seed)
        result = self._run_instance(instance, self.f, seed=seed)
        fields = {
            "index": index,
            "seed": seed,
            "rounds": result.rounds_executed,
            "multicast_messages":
                result.metrics.multicast_complexity_messages,
            "multicast_bits": result.metrics.multicast_complexity_bits,
            "words": result.metrics.classical_message_count,
            "decisions": sorted(set(result.honest_outputs)),
        }
        label = f"core-scale execution {index} (seed {seed})"
        if not result.consistent():
            self.error(f"{label}: agreement violated")
        if not result.agreement_valid():
            self.error(f"{label}: validity violated")
        if not result.all_decided():
            self.error(f"{label}: not every honest node decided")
        self.check_golden(fields)
        return fields

    def check_golden(self, fields: Dict[str, Any]) -> None:
        """Compare every golden field of the execution except its
        ``authenticator.check`` count, which only the traced run sees."""
        index = fields["index"]
        if index >= len(self.golden):
            return
        for key, value in self.golden[index].items():
            if key != "check_calls" and fields.get(key) != value:
                self.error(f"core-scale execution {index}: golden {key} "
                           f"{value} != {fields.get(key)}")

    def check_calls_golden(self, index: int, check_calls: int) -> None:
        if index < len(self.golden):
            value = self.golden[index]["check_calls"]
            if value != check_calls:
                self.error(f"core-scale execution {index}: golden "
                           f"check_calls {value} != {check_calls}")

    def timed(self, seconds: float) -> Timed:
        latencies: List[float] = []
        failed = 0
        start = perf_counter()
        deadline = start + seconds
        index = 1
        while perf_counter() < deadline:
            errors = len(self.errors)
            began = perf_counter()
            self.execute(index)
            latencies.append(perf_counter() - began)
            failed += len(self.errors) > errors
            index += 1
            self.probe.maybe_sample()
        return Timed(latencies, perf_counter() - start, len(latencies),
                     failed)

    def fixed_size(self, seconds: float) -> int:
        return max(2, round(seconds * 0.8))

    def fixed(self, size: int, tracer=None) -> List[Any]:
        outputs = []
        for index in range(1, size + 1):
            if tracer is not None:
                tracer.set_op(f"core-scale execution {index}")
                before = tracer.calls("crypto.check")
            fields = self.execute(index)
            if tracer is not None:
                self.check_calls_golden(
                    index, tracer.calls("crypto.check") - before)
            outputs.append(fields)
        return outputs


# ---------------------------------------------------------------------------
# paper-sweeps
# ---------------------------------------------------------------------------


class PaperSweeps(Workload):
    """Every library sweep, cold into a fresh JSON-tree store, then warm
    replay passes (each followed by rendering the results book)."""

    name = "paper-sweeps"

    def setup(self) -> None:
        import repro.harness.report as report
        from repro.harness.scenarios import (run_sweep, sweep_csv_text,
                                             sweep_json_text)
        from repro.harness.store import ExperimentStore
        from repro.harness.sweep_library import SWEEPS
        self._report = report
        self._run_sweep = run_sweep
        self._json_text = sweep_json_text
        self._csv_text = sweep_csv_text
        self._store_class = ExperimentStore
        # The library sweeps exactly as published (their artifacts are
        # golden for every seed); the workload seed orders them.
        names = list(TINY_SWEEPS if self.tiny else SWEEPS)
        random.Random(derived_seed("paper-sweeps", self.seed)).shuffle(names)
        self.sweeps = [SWEEPS[name] for name in names]
        self.golden = self.goldens.get("sweeps", {})
        cells = [cell for sweep in self.sweeps for cell in sweep.expand()]
        self.cells = len(cells)
        self._stores = 0
        self.store = self.new_store()
        # Cells shared within or across sweeps are computed once per
        # cold pass and replayed after that.
        self.distinct_cells = len({self.store.fingerprint(cell)
                                   for cell in cells})
        self.cold_artifacts: Optional[Dict[str, Tuple[str, str]]] = None

    def new_store(self):
        self._stores += 1
        return self._store_class(self.scratch / f"store-{self._stores}")

    def artifacts(self, result) -> Tuple[str, str]:
        rows = result.rows()
        return (sha256(self._json_text(result.name, rows, result.lottery)),
                sha256(self._csv_text(rows)))

    def cold_pass(self, store, probe: Optional[SpeedProbe] = None,
                  ) -> Tuple[List[float], int]:
        """Compute every cell into ``store``; returns the per-cell times
        and how many cells belong to a sweep that failed a check.
        ``probe`` samples between cells, outside their times."""
        latencies: List[float] = []
        artifacts = {}
        bad_cells = computed = 0
        started = [0.0]

        def settled(event) -> None:
            latencies.append(perf_counter() - started[0])
            if probe is not None:
                probe.maybe_sample()
            started[0] = perf_counter()

        for sweep in self.sweeps:
            started[0] = perf_counter()
            result = self._run_sweep(sweep, workers=1, store=store,
                                     on_cell=settled)
            artifacts[sweep.name] = self.artifacts(result)
            computed += result.store_stats["computed"]
            bad = len(self.errors)
            self.check_artifacts("cold", sweep.name, artifacts[sweep.name])
            if len(self.errors) > bad:
                bad_cells += len(result.cells)
        if computed != self.distinct_cells:
            self.error(f"paper-sweeps cold pass computed {computed} cells "
                       f"into a fresh store, expected "
                       f"{self.distinct_cells} distinct cells")
            bad_cells = len(latencies)
        self.cold_artifacts = artifacts
        return latencies, bad_cells

    def check_artifacts(self, phase: str, name: str,
                        digests: Tuple[str, str]) -> None:
        golden = self.golden.get(name)
        if golden is not None:
            for kind, digest in zip(("json", "csv"), digests):
                if golden[f"{kind}_sha256"] != digest:
                    self.error(f"paper-sweeps {phase} {name}: {kind} "
                               "artifact differs from the golden digest")
        if phase != "cold" and self.cold_artifacts[name] != digests:
            self.error(f"paper-sweeps {phase} {name}: artifact differs "
                       "from the cold pass")

    def warm_pass(self, store) -> Tuple[float, bool]:
        """Replay every sweep from ``store`` and render the book; returns
        the pass time (checks excluded) and whether it passed them."""
        began = perf_counter()
        results = [self._run_sweep(sweep, workers=1, store=store)
                   for sweep in self.sweeps]
        self._report.render_book(store)
        elapsed = perf_counter() - began
        errors = len(self.errors)
        for result in results:
            if result.store_stats["computed"]:
                self.error(f"paper-sweeps warm {result.name}: computed "
                           f"{result.store_stats['computed']} cells")
            self.check_artifacts("warm", result.name, self.artifacts(result))
        return elapsed, len(self.errors) == errors

    def timed(self, seconds: float) -> Timed:
        """Cold passes (the operations timed), each into a fresh store,
        while the next one is expected to end inside the window; then
        warm passes against the last store until ``seconds`` have passed
        (at least one)."""
        start = perf_counter()
        deadline = start + seconds
        cold: List[List[float]] = []
        cold_s: List[float] = []
        failed = attempted = 0
        store = None
        while not cold or perf_counter() + cold_s[-1] <= deadline:
            if store is not None:
                store.close()
            store = self.store if store is None else self.new_store()
            began = perf_counter()
            latencies, bad = self.cold_pass(store, self.probe)
            cold_s.append(perf_counter() - began)
            cold.append(latencies)
            attempted += len(latencies)
            failed += bad
        warm: List[float] = []
        while not warm or perf_counter() < deadline:
            elapsed, ok = self.warm_pass(store)
            warm.append(elapsed)
            attempted += 1
            failed += not ok
            self.probe.maybe_sample()
        store.close()
        return Timed([cell for latencies in cold for cell in latencies],
                     sum(cold_s), attempted, failed, passes=cold, notes={
                         "cold_passes_s": cold_s,
                         "warm_passes": len(warm),
                         "replay_cells_per_s":
                             self.cells / statistics.median(warm),
                     })

    def fixed_size(self, seconds: float) -> int:
        return 10

    def fixed(self, size: int, tracer=None) -> List[Any]:
        """One cold pass into a fresh store, then ``size`` warm passes."""
        store = self.new_store()
        if tracer is not None:
            tracer.set_op("paper-sweeps cold pass")
        self.cold_pass(store)
        outputs = [dict(self.cold_artifacts)]
        warm_s = 0.0
        for index in range(size):
            if tracer is not None:
                tracer.set_op(f"paper-sweeps warm pass {index}")
            elapsed, _ok = self.warm_pass(store)
            warm_s += elapsed
        store.close()
        self.replay_cells_per_s = self.cells * size / warm_s
        return outputs

    def teardown(self) -> None:
        if getattr(self, "store", None) is not None:
            self.store.close()


# ---------------------------------------------------------------------------
# service-jobs
# ---------------------------------------------------------------------------


class ServiceJobs(Workload):
    """Closed-loop clients running submit → wait → artifact against the
    experiment service, every job replaying from a warm SQLite store."""

    name = "service-jobs"

    def setup(self) -> None:
        from repro.harness.service.app import make_server
        from repro.harness.service.client import ServiceClient
        from repro.harness.store import ExperimentStore
        self._client_class = ServiceClient
        self.sweeps = TINY_SERVICE_SWEEPS if self.tiny else SERVICE_SWEEPS
        self.golden = self.goldens.get("sweeps", {})
        self.store = ExperimentStore(self.scratch / "service.sqlite")
        self.server, self.service = make_server(
            self.store, port=0, workers=SERVICE_WORKERS)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-http")
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.base_url = f"http://{host}:{port}"
        client = ServiceClient(self.base_url)
        # Cold recording: every cycled sweep once, then its artifacts
        # checked against the digests of a direct run_sweep.
        for name in self.sweeps:
            record = client.wait(client.submit(name))
            if record["state"] != "done" or record["failed_cells"]:
                self.error(f"service-jobs cold {name}: job ended "
                           f"{record['state']} with "
                           f"{record['failed_cells']} failed cells")
            for kind in ("json", "csv"):
                digest = sha256(client.artifact(name, kind))
                if self.golden[name][f"{kind}_sha256"] != digest:
                    self.error(f"service-jobs cold {name}: {kind} artifact "
                               "differs from the direct run_sweep digest")

    def job_order(self, client_index: int):
        """The client's endless, seeded sequence of sweep names."""
        rng = random.Random(derived_seed("service-jobs", self.seed,
                                         client_index))
        while True:
            order = list(self.sweeps)
            rng.shuffle(order)
            yield from order

    def job(self, client, name: str) -> Tuple[float, Dict[str, Any], bool]:
        began = perf_counter()
        job_id = client.submit(name)
        record = client.wait(job_id)
        artifact = client.artifact(name, "json")
        elapsed = perf_counter() - began
        # Collected per job, then appended at once: the other client
        # thread appends to ``errors`` too.
        problems = []
        label = f"service-jobs job {job_id} ({name})"
        if record["state"] != "done":
            problems.append(f"{label}: ended {record['state']}")
        if record["computed"] != 0:
            problems.append(f"{label}: computed {record['computed']} "
                            "cells against a warm store")
        if record["replayed"] != record["total"]:
            problems.append(f"{label}: replayed {record['replayed']} of "
                            f"{record['total']} cells")
        digest = sha256(artifact)
        if self.golden[name]["json_sha256"] != digest:
            problems.append(f"{label}: json artifact differs from the "
                            "direct run_sweep digest")
        self.errors.extend(problems)
        output = {"sweep": name, "artifact_sha256": digest,
                  "computed": record["computed"],
                  "replayed": record["replayed"]}
        return elapsed, output, not problems

    #: How often ``timed`` holds the clients to sample the host speed.
    PROBE_INTERVAL_S = 0.25

    def _clients(self, body, between=None) -> int:
        """Run ``body(index)`` on each client thread, calling
        ``between()`` every ``PROBE_INTERVAL_S`` until they finish;
        returns how many clients stopped on an exception (each recorded
        as an error and counted as one failed job)."""
        crashed = []

        def guarded(index: int) -> None:
            try:
                body(index)
            except Exception as error:  # noqa: BLE001 - thread boundary
                self.error(f"service-jobs client {index}: "
                           f"{type(error).__name__}: {error}")
                crashed.append(index)

        threads = [threading.Thread(target=guarded, args=(index,),
                                    name=f"perfbench-client-{index}")
                   for index in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                thread.join(self.PROBE_INTERVAL_S)
                if between is not None and thread.is_alive():
                    between()
        return len(crashed)

    def timed(self, seconds: float) -> Timed:
        lock = threading.Lock()
        latencies: List[float] = []
        failed = [0]
        start = perf_counter()
        deadline = start + seconds
        # The speed probe runs in this thread while both clients are
        # held between jobs, so no service thread runs beside it.
        gate = threading.Condition()
        state = {"jobs": 0, "probing": False}

        def client_loop(index: int) -> None:
            client = self._client_class(self.base_url)
            for name in self.job_order(index):
                if perf_counter() >= deadline:
                    return
                with gate:
                    gate.wait_for(lambda: not state["probing"])
                    state["jobs"] += 1
                try:
                    elapsed, _output, ok = self.job(client, name)
                finally:
                    with gate:
                        state["jobs"] -= 1
                        gate.notify_all()
                with lock:
                    latencies.append(elapsed)
                    failed[0] += not ok

        def quiet_probe() -> None:
            with gate:
                state["probing"] = True
                gate.wait_for(lambda: not state["jobs"])
            try:
                self.probe.sample()
            finally:
                with gate:
                    state["probing"] = False
                    gate.notify_all()

        crashed = self._clients(client_loop, between=quiet_probe)
        return Timed(latencies, perf_counter() - start,
                     len(latencies) + crashed, failed[0] + crashed,
                     notes={"open_fds": open_fds()})

    def fixed_size(self, seconds: float) -> int:
        return max(2, round(seconds * 10))

    def fixed(self, size: int, tracer=None) -> List[Any]:
        outputs: List[List[Any]] = [[] for _ in range(SERVICE_CLIENTS)]

        def client_loop(index: int) -> None:
            client = self._client_class(self.base_url)
            order = self.job_order(index)
            for job in range(size):
                if tracer is not None:
                    tracer.set_op(f"service-jobs client {index} job {job}")
                outputs[index].append(self.job(client, next(order))[1])

        self._clients(client_loop)
        return outputs

    def teardown(self) -> None:
        thread = getattr(self, "thread", None)
        if thread is not None:
            self.server.shutdown()
            thread.join()
            self.thread = None
        server = getattr(self, "server", None)
        if server is not None:
            server.server_close()
            self.service.shutdown()
            self.server = None
        if getattr(self, "store", None) is not None:
            self.store.close()


WORKLOADS = {workload.name: workload
             for workload in (CoreScale, PaperSweeps, ServiceJobs)}


def uncovered_registry_keys() -> List[str]:
    """``PROTOCOLS`` keys that no workload executes: core-scale runs
    quadratic BA, paper-sweeps every library sweep's cells (service-jobs
    records a subset of those)."""
    from repro.harness.scenarios import PROTOCOLS
    from repro.harness.sweep_library import SWEEPS
    executed = {"quadratic"}
    executed.update(cell.protocol for sweep in SWEEPS.values()
                    for cell in sweep.expand())
    return [key for key in PROTOCOLS if key not in executed]


def open_fds() -> int:
    """File descriptors this process holds open (-1 where unknown)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return -1
