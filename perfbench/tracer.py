"""Span tracer for the benchmark's traced run.

The tracer wraps each layer's public entry points from outside the
program: it replaces the attribute a caller actually looks up (a class
method, or a module-level function binding in every ``repro`` module
that imported it), records one span per call, and puts every original
attribute back on exit.  It deliberately does not import
``repro.harness.profiling``, so rewriting that module cannot change what
the benchmark measures.

A span is ``(id, parent id, op id, name, thread, start, end)``.  Spans
nest per thread; a layer's self time is its span time minus the time of
the spans it caused.  A call that re-enters a span of the same name
(recursion, or one wrapped method calling another that shares its name)
is passed straight through, so counts are outermost calls.  Spans are
kept in memory (up to ``span_cap``; aggregates are always complete) and
written out by :meth:`Tracer.write` after the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class _Frame:
    __slots__ = ("name", "span_id", "child_s", "checks_at_start")

    def __init__(self, name: str, span_id: int, checks: int) -> None:
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0
        self.checks_at_start = checks


class Tracer:
    """Records spans and per-name aggregates for one traced run."""

    def __init__(self, span_cap: int = 200_000) -> None:
        self.span_cap = span_cap
        self.spans: List[Tuple] = []
        self.dropped_spans = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        #: Plain counters (hits, replays, avoided checks, ...).
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        #: Service job id -> when its submit returned / its first cell
        #: settled (the queue wait of each traced job).
        self.job_submitted: Dict[str, float] = {}
        self.job_first_settled: Dict[str, float] = {}
        #: Threads seen running service cells (the worker pool).
        self.service_workers: set = set()

    # -- recording -----------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.checks = 0
            local.op = None
        return local

    def set_op(self, op_id: Optional[str]) -> None:
        """Tag the calling thread's following spans with one operation id
        (one core execution, one sweep pass, one service job)."""
        self._state().op = op_id

    def call(self, name: str, fn: Callable, args, kwargs,
             on_exit: Optional[Callable[[Any, _Frame, Any], None]] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        state = self._state()
        stack = state.stack
        if stack and stack[-1].name == name:
            return fn(*args, **kwargs)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, span_id, state.checks)
        parent = stack[-1] if stack else None
        stack.append(frame)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            if parent is not None:
                parent.child_s += elapsed
            if name == "crypto.check":
                state.checks += 1
            with self._lock:
                entry = self.totals[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame.child_s
                if len(self.spans) < self.span_cap:
                    self.spans.append((
                        span_id, parent.span_id if parent else None,
                        state.op, name, threading.get_ident(), start, end))
                else:
                    self.dropped_spans += 1
            if on_exit is not None:
                on_exit(state, frame, result)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn: Callable, on_exit=None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_exit)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) to
        ``replacement``, remembering how to undo it; an attribute the
        owner only inherited is deleted again on restore."""
        table = owner if isinstance(owner, dict) else vars(owner)
        self._patches.append((owner, attr, attr in table, table.get(attr)))
        if isinstance(owner, dict):
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, name: str,
                     on_exit=None) -> None:
        self.patch(cls, attr, self.wrap(name, getattr(cls, attr), on_exit))

    def patch_function(self, original: Callable, name: str,
                       on_exit=None) -> int:
        """Replace every ``repro`` module's binding of ``original`` (the
        defining module's and each importer's); returns how many."""
        wrapper = self.wrap(name, original, on_exit)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)
                    patched += 1
        return patched

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had_own, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            elif had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def write(self, path: Path) -> Path:
        """Write the spans and aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "parent", "op", "name", "thread", "start",
                       "end"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "totals": {name: {"calls": int(calls), "total_s": total,
                              "self_s": own}
                       for name, (calls, total, own)
                       in sorted(self.totals.items())},
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(payload))
        return path


# ---------------------------------------------------------------------------
# The seams: which attribute of which layer is wrapped, and under what name.
# ---------------------------------------------------------------------------


def registry_keys() -> List[str]:
    """Every protocol registry key, straight from ``PROTOCOLS``."""
    from repro.harness.scenarios import PROTOCOLS
    return list(PROTOCOLS)


def _concrete_subclasses(base: type, attr: str) -> List[type]:
    """``base``'s subclasses (transitively, imported ones) that define a
    concrete ``attr`` themselves."""
    found, pending = [], list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        own = vars(cls).get(attr)
        if own is not None and not getattr(own, "__isabstractmethod__",
                                           False):
            found.append(cls)
    return sorted(set(found), key=lambda cls: cls.__qualname__)


def install(tracer: Tracer) -> None:
    """Wrap every seam the per-layer metrics read.

    Import everything first: patching a module-level function binding
    only reaches modules already imported, and class patches only reach
    subclasses already defined.
    """
    import repro.protocols  # noqa: F401 - defines every Node/Authenticator
    import repro.harness.report as report_mod
    import repro.harness.scenarios as scenarios_mod
    import repro.harness.service.app  # noqa: F401 - binds the queue module
    import repro.serialization as serialization_mod
    from repro.eligibility.fmine import FMine
    from repro.eligibility.lottery_cache import SharedLotteryCache
    from repro.harness.service.client import ServiceClient
    from repro.harness.service.queue import ExperimentService
    from repro.harness.store import ExperimentStore
    from repro.protocols.base import Authenticator
    from repro.protocols.verification import VerificationCache
    from repro.sim.conditions import ConditionedNetwork
    from repro.sim.engine import Simulation
    from repro.sim.network import SynchronousNetwork

    # protocols: each registry builder tags the nodes it builds with its
    # registry key, so one node class shared by several keys still splits.
    registry = scenarios_mod.PROTOCOLS
    for key, entry in list(registry.items()):
        tracer.patch(registry, key, dataclasses.replace(
            entry, builder=_keyed_builder(tracer, key, entry.builder)))

    # sim.network / sim.conditions / sim.engine
    tracer.patch_method(SynchronousNetwork, "deliver", "sim.network.deliver")
    tracer.patch_method(SynchronousNetwork, "stage", "sim.network.stage")
    tracer.patch_method(ConditionedNetwork, "advance_to",
                        "sim.conditions.advance_to")
    tracer.patch_method(Simulation, "run", "sim.engine.run")

    # crypto: every concrete authenticator's check; the verification
    # cache's four memoized entry points share one span name, so a
    # check_vote nested in check_certificate counts once, as the outer
    # request, and is "avoided" when no authenticator check ran inside.
    for cls in _concrete_subclasses(Authenticator, "check"):
        tracer.patch_method(cls, "check", "crypto.check")

    def cache_exit(state, frame, result):
        tracer.count("verify.cache.requests")
        if state.checks == frame.checks_at_start:
            tracer.count("verify.cache.avoided")

    for method in ("check_auth", "check_vote", "check_certificate",
                   "check_proposal"):
        tracer.patch_method(VerificationCache, method, "verify.cache",
                            cache_exit)

    tracer.patch_function(serialization_mod.encoded_size_bits,
                          "serialization.size")

    # eligibility
    original_coin = SharedLotteryCache.coin

    def coin(cache, key, compute):
        hits = cache.hits
        value = tracer.call("eligibility.coin", original_coin,
                            (cache, key, compute), {})
        if cache.hits > hits:
            tracer.count("eligibility.coin.hits")
        return value

    tracer.patch(SharedLotteryCache, "coin", coin)
    tracer.patch_method(FMine, "mine", "eligibility.fmine")
    tracer.patch_method(FMine, "verify", "eligibility.fmine")

    # harness
    def cell_exit(state, frame, result):
        if result is not None:
            tracer.count("harness.cell.replayed" if result.cached
                         else "harness.cell.computed")

    tracer.patch_function(scenarios_mod.execute_or_replay, "harness.cell",
                          cell_exit)

    def load_exit(state, frame, result):
        if result is not None:
            tracer.count("harness.store.load_record.hits")

    tracer.patch_method(ExperimentStore, "load_record",
                        "harness.store.load_record", load_exit)
    for method in ("save_result", "update_job", "record_sweep"):
        tracer.patch_method(ExperimentStore, method,
                            f"harness.store.{method}")
    tracer.patch_function(report_mod.render_book,
                          "harness.report.render_book")

    # service
    def submit_exit(state, frame, job_id):
        if job_id is not None:
            with tracer._lock:
                tracer.job_submitted[job_id] = perf_counter()

    original_run_cell = ExperimentService._run_cell

    def run_cell(service, active, index):
        try:
            return tracer.call("service.worker.cell", original_run_cell,
                               (service, active, index), {})
        finally:
            with tracer._lock:
                tracer.job_first_settled.setdefault(active.id,
                                                    perf_counter())
                tracer.service_workers.add(threading.get_ident())

    tracer.patch_method(ExperimentService, "submit", "service.submit",
                        submit_exit)
    tracer.patch_method(ExperimentService, "events", "service.events")
    tracer.patch(ExperimentService, "_run_cell", run_cell)
    tracer.patch_method(ServiceClient, "_request", "service.http.request")


def _keyed_builder(tracer: Tracer, key: str, builder: Callable) -> Callable:
    name = f"protocols.{key}.on_round"

    def build(*args, **kwargs):
        instance = builder(*args, **kwargs)
        for node in instance.nodes:
            node.on_round = tracer.wrap(name, node.on_round)
        return instance

    build.__wrapped__ = builder
    return build


def queue_wait_s(tracer: Tracer) -> float:
    """Mean time from a job's submit returning to its first settled
    cell, over the traced jobs (0 when no job ran)."""
    settled = tracer.job_first_settled
    waits = [max(0.0, settled[job] - submitted)
             for job, submitted in tracer.job_submitted.items()
             if job in settled]
    return sum(waits) / len(waits) if waits else 0.0


#: Span names reported as ``<name>.calls`` and ``<name>.self_s``.
TIMED_SEAMS = (
    "sim.network.deliver", "sim.conditions.advance_to", "sim.engine.run",
    "crypto.check", "serialization.size", "eligibility.fmine",
    "harness.cell", "harness.store.load_record",
    "harness.store.save_result", "harness.store.update_job",
    "harness.store.record_sweep", "harness.report.render_book",
    "service.submit",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, wall_s: float,
                  protocol_keys: List[str]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, by name, as ``(value, unit)``.

    ``wall_s`` is the traced phase's wall time; the service workers'
    busy ratio is their cell time over ``wall_s`` per worker seen.  Layers the workload never entered
    read 0.  ``protocol_keys`` are the registry keys given
    ``protocols.<key>`` rows.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    for key in protocol_keys:
        name = f"protocols.{key}.on_round"
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for name in TIMED_SEAMS:
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    counts = tracer.counts
    metrics["sim.network.stage.calls"] = (
        tracer.calls("sim.network.stage"), "count")
    metrics["verify.cache.requests"] = (
        counts["verify.cache.requests"], "count")
    metrics["verify.cache.avoided_ratio"] = (
        _ratio(counts["verify.cache.avoided"],
               counts["verify.cache.requests"]), "ratio")
    metrics["eligibility.coin.calls"] = (
        tracer.calls("eligibility.coin"), "count")
    metrics["eligibility.coin.hit_ratio"] = (
        _ratio(counts["eligibility.coin.hits"],
               tracer.calls("eligibility.coin")), "ratio")
    metrics["harness.cell.computed"] = (
        counts["harness.cell.computed"], "count")
    metrics["harness.cell.replayed"] = (
        counts["harness.cell.replayed"], "count")
    metrics["harness.store.load_record.hit_ratio"] = (
        _ratio(counts["harness.store.load_record.hits"],
               tracer.calls("harness.store.load_record")), "ratio")
    metrics["service.events.calls"] = (
        tracer.calls("service.events"), "count")
    metrics["service.queue_wait_s"] = (queue_wait_s(tracer), "s")
    metrics["service.worker_busy_ratio"] = (
        _ratio(tracer.total_s("service.worker.cell"),
               len(tracer.service_workers) * wall_s), "ratio")
    metrics["service.http.requests"] = (
        tracer.calls("service.http.request"), "count")
    return metrics
