"""Declarative scenario-matrix layer: specs in, sweeps out.

Every workload in this repo is some cross-product of *protocol ×
adversary × input distribution × parameters (n, f, λ, seeds)*.  Before
this module each such grid was an imperative loop inside an experiment
function; here the grid is **data**:

- :class:`ScenarioSpec` names a protocol builder, an adversary factory,
  an input distribution, a parameter ``grid`` (cross-product axes) and
  ``fixed`` bindings, plus the seeds to repeat each cell over;
- :class:`SweepSpec` groups scenarios under one name;
- :func:`run_sweep` expands the cross-product into :class:`Cell`\\ s and
  executes each one — through :func:`~repro.harness.runner.run_trials`
  (``workers=N`` fans seeds over processes) for ordinary protocol cells,
  or through a registered *executor* for the lower-bound attack harnesses
  — aggregating per-cell O(1)-counter metrics into a
  :class:`SweepResult` that renders as a :class:`Table` and exports
  CSV/JSON artifacts.

Reserved binding names (resolved by the layer, everything else passes
through to the builder):

``n``            number of nodes (required by protocol executors)
``f``            corruption budget — an int, or a callable ``n -> f``
``f_fraction``   derive ``f = int(fraction * n)``
``lam``          build ``SecurityParameters(lam=...)`` for protocols
``epsilon``      resilience slack for the same ``SecurityParameters``
``adversary``    per-cell adversary key (usable as a grid axis)
``inputs``       per-cell input-distribution key (usable as a grid axis)
``network``      per-cell network conditions (usable as a grid axis): a
                 :data:`~repro.sim.conditions.NETWORKS` preset name or a
                 :class:`~repro.sim.conditions.NetworkConditions` value
``topology``     per-link latency topology layered onto the cell's
                 network conditions: a
                 :data:`~repro.sim.conditions.TOPOLOGIES` preset name or
                 a :class:`~repro.sim.conditions.LinkTopology` value
                 (nontrivial topologies require a ``network`` binding
                 with ``delta > 1``)

Determinism: cells expand in scenario order then row-major grid order,
trials aggregate in seed order for any worker count, and the shared
eligibility-lottery cache (:mod:`repro.eligibility.lottery_cache`)
memoizes coins that are already a pure function of ``(seed, node,
topic)`` — so a ``SweepResult``'s rows are identical with and without
``workers`` and with and without the cache.

Persistence: ``run_sweep(store=...)`` consults a content-addressed
:class:`~repro.harness.store.ExperimentStore` before executing each
cell, replaying recorded cells byte-identically and recording fresh
ones — which enables ``--resume`` after interruption, ``--shard K/M``
fan-out across invocations, and incremental grid growth (see
``docs/RESULTS.md``).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.adversaries import (
    AckEquivocationAdversary,
    ActualFaultsAdversary,
    AdaptiveSpeakerAdversary,
    CrashAdversary,
    DelayAdversary,
    LeaderKillerAdversary,
    StaticEquivocationAdversary,
    ViewSplitAdversary,
)
from repro.eligibility.lottery_cache import SharedLotteryCache, release_cache
from repro.errors import ConfigurationError
from repro.harness.runner import (
    TrialStats,
    builder_accepts,
    run_instance,
    run_trials,
)
from repro.harness.tables import Table, rows_to_table, union_columns
from repro.sim.conditions import (
    NETWORKS,
    TOPOLOGIES,
    LinkTopology,
    NetworkConditions,
)
from repro.protocols import (
    adaptive_ba,
    build_adaptive_ba,
    build_broadcast_from_ba,
    build_dolev_strong,
    build_leader_ba,
    build_leader_chain,
    build_naive_broadcast,
    build_phase_king,
    build_phase_king_early_stop,
    build_phase_king_subquadratic,
    build_quadratic_ba,
    build_quadratic_ba_early_stop,
    build_round_eligibility,
    build_static_committee,
    build_subquadratic_ba,
    early_stopping,
    leader_ba,
)
from repro.types import SecurityParameters

# ---------------------------------------------------------------------------
# Registries: protocols, adversaries, input distributions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolEntry:
    """One registered builder and the per-execution values it reports.

    What the binding layer needs to know about the builder itself (its
    input style, whether it takes ``params``, ``coin_cache``, ``mode``
    or ``conditions``) is read off its signature by
    :func:`~repro.harness.runner.builder_accepts`.
    """

    builder: Callable[..., Any]
    #: ``name -> extractor`` over one execution result, exported by the
    #: protocol module: each name becomes a ``mean_<name>`` artifact
    #: column (0.0 for a cell with no trials) and a ``repro run`` line.
    observables: Mapping[str, Callable[[Any], float]] = field(
        default_factory=dict)


PROTOCOLS: Dict[str, ProtocolEntry] = {
    "subquadratic": ProtocolEntry(build_subquadratic_ba),
    "quadratic": ProtocolEntry(build_quadratic_ba),
    "quadratic-early-stop": ProtocolEntry(
        build_quadratic_ba_early_stop, early_stopping.OBSERVABLES),
    "leader-ba": ProtocolEntry(build_leader_ba, leader_ba.OBSERVABLES),
    "leader-chain": ProtocolEntry(build_leader_chain, leader_ba.OBSERVABLES),
    "adaptive-ba": ProtocolEntry(build_adaptive_ba, adaptive_ba.OBSERVABLES),
    "phase-king": ProtocolEntry(build_phase_king),
    "phase-king-early-stop": ProtocolEntry(
        build_phase_king_early_stop, early_stopping.OBSERVABLES),
    "phase-king-subquadratic": ProtocolEntry(build_phase_king_subquadratic),
    "static-committee": ProtocolEntry(build_static_committee),
    "round-eligibility": ProtocolEntry(build_round_eligibility),
    "dolev-strong": ProtocolEntry(build_dolev_strong),
    "naive-broadcast": ProtocolEntry(build_naive_broadcast),
    "broadcast-from-ba": ProtocolEntry(build_broadcast_from_ba),
}


def _no_adversary(instance, **kwargs):
    return None


def _crash_adversary(instance, **kwargs):
    return CrashAdversary(**kwargs)


def _delay_adversary(instance, **kwargs):
    return DelayAdversary(**kwargs)


def _actual_faults_adversary(instance, **kwargs):
    return ActualFaultsAdversary(**kwargs)


ADVERSARIES: Dict[str, Callable[..., Any]] = {
    "none": _no_adversary,
    "actual-faults": _actual_faults_adversary,
    "crash": _crash_adversary,
    "delay": _delay_adversary,
    "equivocate": StaticEquivocationAdversary,
    "ack-equivocate": AckEquivocationAdversary,
    "speaker": AdaptiveSpeakerAdversary,
    "leader-killer": LeaderKillerAdversary,
    "view-split": ViewSplitAdversary,
}


def inputs_zeros(n: int) -> List[int]:
    return [0] * n


def inputs_ones(n: int) -> List[int]:
    return [1] * n


def inputs_mixed(n: int) -> List[int]:
    return [i % 2 for i in range(n)]


INPUTS: Dict[str, Callable[[int], List[int]]] = {
    "zeros": inputs_zeros,
    "ones": inputs_ones,
    "mixed": inputs_mixed,
}


def f_half_minus_one(n: int) -> int:
    """The maximal honest-majority budget ``f = (n - 1) // 2``, for use
    as a callable ``f`` binding."""
    return (n - 1) // 2


def f_third_minus_one(n: int) -> int:
    """The maximal partial-synchrony budget ``f = (n - 1) // 3`` (so
    ``n > 3f``), for use as a callable ``f`` binding with the
    leader-based family."""
    return (n - 1) // 3


@dataclass(frozen=True)
class AdversaryFactorySpec:
    """A picklable adversary factory: registry key + keyword arguments.

    ``run_trials(workers=N)`` pickles the factory to worker processes, so
    it must be a module-level object rather than a closure.
    """

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __call__(self, instance):
        return ADVERSARIES[self.name](instance, **dict(self.kwargs))


# ---------------------------------------------------------------------------
# Specs and cells.
# ---------------------------------------------------------------------------

#: Bindings resolved by the layer rather than passed to the builder.
RESERVED_BINDINGS = frozenset(
    {"n", "f", "f_fraction", "lam", "epsilon", "adversary", "inputs",
     "network", "topology"})


@dataclass(frozen=True)
class ScenarioSpec:
    """One protocol × adversary × inputs family over a parameter grid.

    ``grid`` axes cross-multiply in insertion order (first axis is the
    outermost loop); ``fixed`` bindings apply to every cell and are
    overridden by grid axes of the same name.  Bindings not in
    :data:`RESERVED_BINDINGS` pass through to the protocol builder
    verbatim (``epochs``, ``mode``, ``max_iterations``, ``sender_input``,
    a pre-built ``params`` object, ...).  A ``ba_builder`` binding given
    as a string resolves through :data:`PROTOCOLS` (for the
    broadcast-from-BA reduction).
    """

    name: str
    protocol: Optional[str] = None
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    adversary: Optional[str] = None
    adversary_kwargs: Mapping[str, Any] = field(default_factory=dict)
    inputs: Optional[str] = None
    seeds: Sequence[Any] = (0, 1, 2)
    executor: str = "trials"

    def cells(self) -> List["Cell"]:
        """Expand the grid cross-product into bound cells."""
        if self.executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r} "
                f"(have {sorted(EXECUTORS)})")
        axes = list(self.grid.items())
        for axis, values in axes:
            if not isinstance(values, Sequence) or isinstance(values, str):
                raise ConfigurationError(
                    f"grid axis {axis!r} must be a sequence of values")
        points = itertools.product(*(values for _, values in axes)) \
            if axes else [()]
        cells = []
        for point in points:
            bindings = dict(self.fixed)
            bindings.update(zip((axis for axis, _ in axes), point))
            cells.append(_bind_cell(self, bindings))
        return cells


@dataclass(frozen=True)
class SweepSpec:
    """A named collection of scenarios executed as one sweep."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    description: str = ""

    def expand(self) -> List["Cell"]:
        cells: List[Cell] = []
        for scenario in self.scenarios:
            cells.extend(scenario.cells())
        return cells


@dataclass(frozen=True)
class Cell:
    """One fully-bound grid point, ready to execute."""

    scenario: str
    executor: str
    protocol: Optional[str]
    adversary: Optional[str]
    adversary_kwargs: Tuple[Tuple[str, Any], ...]
    inputs: Optional[str]
    #: Resolved network conditions (None = perfect synchrony).
    network: Optional[NetworkConditions]
    n: Optional[int]
    f: Optional[int]
    seeds: Tuple[Any, ...]
    #: Keyword arguments handed to the builder / attack runner (without
    #: ``f`` and ``seed``/``seeds``, which the executor supplies).
    kwargs: Tuple[Tuple[str, Any], ...]
    #: The resolved reserved bindings, kept for labels and artifact rows.
    bindings: Tuple[Tuple[str, Any], ...]

    def label(self) -> str:
        parts = [self.scenario]
        parts.extend(f"{key}={value}" for key, value in self.bindings
                     if key not in ("adversary", "inputs"))
        if self.adversary:
            parts.append(f"adversary={self.adversary}")
        return " ".join(parts)

    def builder_kwargs(self) -> Dict[str, Any]:
        return dict(self.kwargs)


def _resolve_f(raw: Mapping[str, Any], n: Optional[int]) -> Optional[int]:
    f = raw.get("f")
    if callable(f):
        if n is None:
            raise ConfigurationError("callable f requires an n binding")
        return int(f(n))
    if f is not None:
        return int(f)
    fraction = raw.get("f_fraction")
    if fraction is not None:
        if n is None:
            raise ConfigurationError("f_fraction requires an n binding")
        return int(fraction * n)
    return None


def _bind_cell(spec: ScenarioSpec, raw: Dict[str, Any]) -> Cell:
    """Resolve one grid point's reserved bindings into a :class:`Cell`."""
    executor = EXECUTORS[spec.executor]
    entry: Optional[ProtocolEntry] = None
    if spec.protocol is not None:
        if spec.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {spec.protocol!r} "
                f"(have {sorted(PROTOCOLS)})")
        entry = PROTOCOLS[spec.protocol]
    elif executor.needs_protocol:
        raise ConfigurationError(
            f"scenario {spec.name!r}: executor {spec.executor!r} "
            "requires a protocol")

    adversary = raw.pop("adversary", spec.adversary)
    if adversary is not None and adversary not in ADVERSARIES:
        raise ConfigurationError(
            f"unknown adversary {adversary!r} (have {sorted(ADVERSARIES)})")
    # ``adversary_<kw>``-prefixed bindings are grid-able adversary
    # keyword arguments: ``adversary_actual`` on a grid axis becomes
    # ``actual=...`` to the cell's adversary factory (over any value in
    # ``spec.adversary_kwargs``), and the prefixed name stays in the
    # artifact row so the axis is visible — e.g. the adaptive family's
    # words-vs-actual-f sweep dials f* through ``adversary_actual``.
    adversary_kwargs = dict(spec.adversary_kwargs)
    adversary_axes: List[Tuple[str, Any]] = []
    for key in [key for key in raw if key.startswith("adversary_")]:
        value = raw.pop(key)
        adversary_kwargs[key[len("adversary_"):]] = value
        adversary_axes.append((key, value))
    if adversary_axes and adversary is None:
        raise ConfigurationError(
            f"scenario {spec.name!r}: adversary_-prefixed bindings "
            f"({sorted(key for key, _ in adversary_axes)}) require an "
            "adversary binding to apply to")
    inputs_key = raw.pop("inputs", spec.inputs)
    if inputs_key is not None and inputs_key not in INPUTS:
        raise ConfigurationError(
            f"unknown input distribution {inputs_key!r} "
            f"(have {sorted(INPUTS)})")
    network_binding = raw.pop("network", None)
    network: Optional[NetworkConditions] = None
    network_label: Optional[str] = None
    if isinstance(network_binding, str):
        if network_binding not in NETWORKS:
            raise ConfigurationError(
                f"unknown network conditions {network_binding!r} "
                f"(have {sorted(NETWORKS)})")
        network = NETWORKS[network_binding]
        network_label = network_binding
    elif isinstance(network_binding, NetworkConditions):
        network = network_binding
        network_label = network.describe()
    elif network_binding is not None:
        raise ConfigurationError(
            f"network binding must be a NETWORKS name or a "
            f"NetworkConditions, got {network_binding!r}")
    topology_binding = raw.pop("topology", None)
    topology: Optional[LinkTopology] = None
    topology_label: Optional[str] = None
    if isinstance(topology_binding, str):
        if topology_binding not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {topology_binding!r} "
                f"(have {sorted(TOPOLOGIES)})")
        topology = TOPOLOGIES[topology_binding]
        topology_label = topology_binding
    elif isinstance(topology_binding, LinkTopology):
        topology = topology_binding
        topology_label = topology.describe()
    elif topology_binding is not None:
        raise ConfigurationError(
            f"topology binding must be a TOPOLOGIES name or a "
            f"LinkTopology, got {topology_binding!r}")
    if topology is not None:
        # The binding wins over any topology baked into an inline
        # NetworkConditions value — a 'uniform' axis point *strips* a
        # baked-in topology — so one conditions object can back a whole
        # topology axis with an honest uniform baseline.
        if network is None:
            if not topology.is_trivial:
                raise ConfigurationError(
                    f"scenario {spec.name!r}: a nontrivial topology "
                    "shapes latency within the Δ bound, so it needs a "
                    "network binding with delta > 1 (e.g. 'lan' or "
                    "'wan')")
        elif topology.is_trivial:
            if network.topology is not None:
                network = dataclasses.replace(network, topology=None)
        elif network.delta > 1:
            network = dataclasses.replace(network, topology=topology)
        # else delta == 1: every surcharge would clamp away, so the
        # cell stays lock-step — the Δ-clamp semantics, and the same
        # exemption --network perfect enjoys, so a forced --topology
        # can span grids that include perfect cells.
    if network is not None and network.is_perfect:
        network = None  # the engine's fast path; keep the label for rows
    if network is not None and not executor.supports_network:
        raise ConfigurationError(
            f"scenario {spec.name!r}: executor {spec.executor!r} does not "
            "support network conditions")

    n = raw.get("n")
    f = _resolve_f(raw, n)
    if executor.needs_n and n is None:
        raise ConfigurationError(
            f"scenario {spec.name!r}: executor {spec.executor!r} "
            "requires an n binding")
    if executor.needs_f and f is None:
        raise ConfigurationError(
            f"scenario {spec.name!r}: executor {spec.executor!r} "
            "requires an f or f_fraction binding")
    if executor.single_seed and len(spec.seeds) != 1:
        raise ConfigurationError(
            f"scenario {spec.name!r}: executor {spec.executor!r} runs "
            f"exactly one seed, got {len(spec.seeds)}")

    # Attack executors have their own ``epsilon`` (a message-budget
    # factor, not the resilience slack), so lam/epsilon fold into
    # SecurityParameters only for the protocol executors.
    reserved = (RESERVED_BINDINGS if executor.folds_params
                else RESERVED_BINDINGS - {"lam", "epsilon"})
    kwargs = {key: value for key, value in raw.items()
              if key not in reserved}
    if isinstance(kwargs.get("ba_builder"), str):
        kwargs["ba_builder"] = PROTOCOLS[kwargs["ba_builder"]].builder
    if n is not None:
        kwargs["n"] = n
    # Fold lam/epsilon axes into SecurityParameters for builders that
    # take them.  Refuse combinations that would silently drop a binding
    # the artifact rows would still report (a pre-built ``params`` with
    # lam/epsilon alongside, lam on a protocol without params, epsilon
    # with nothing to fold it into).
    lam = raw.get("lam")
    epsilon = raw.get("epsilon")
    if executor.folds_params:
        if "params" in kwargs and (lam is not None or epsilon is not None):
            raise ConfigurationError(
                f"scenario {spec.name!r}: both a pre-built params binding "
                "and lam/epsilon given — the latter would be ignored")
        takes_params = (entry is None
                        or builder_accepts(entry.builder, "params"))
        if lam is not None and not takes_params:
            raise ConfigurationError(
                f"scenario {spec.name!r}: protocol {spec.protocol!r} does "
                "not accept params; the lam binding would be ignored")
        if lam is None and epsilon is not None:
            raise ConfigurationError(
                f"scenario {spec.name!r}: epsilon requires a lam binding "
                "to fold into SecurityParameters")
        if lam is not None and takes_params:
            params_kwargs: Dict[str, Any] = {"lam": lam}
            if epsilon is not None:
                params_kwargs["epsilon"] = epsilon
            kwargs["params"] = SecurityParameters(**params_kwargs)
    if entry is not None and not builder_accepts(entry.builder,
                                                 "sender_input"):
        if "inputs" not in kwargs:
            kwargs["inputs"] = INPUTS[inputs_key or "mixed"](n)

    seen = set()
    bindings: List[Tuple[str, Any]] = []

    def _record(key: str, value: Any) -> None:
        if key not in seen:
            seen.add(key)
            bindings.append((key, value))

    for key in ("n", "f", "f_fraction", "lam", "epsilon"):
        if key == "f":
            if f is not None:
                _record("f", f)
        elif key in raw and not callable(raw[key]):
            _record(key, raw[key])
    for key, value in raw.items():
        if key in RESERVED_BINDINGS or key in ("params", "ba_builder"):
            continue
        _record(key, value)
    if adversary is not None:
        _record("adversary", adversary)
    for key, value in adversary_axes:
        _record(key, value)
    if inputs_key is not None:
        _record("inputs", inputs_key)
    if network_label is not None:
        _record("network", network_label)
    if topology_label is not None:
        _record("topology", topology_label)

    return Cell(
        scenario=spec.name,
        executor=spec.executor,
        protocol=spec.protocol,
        adversary=adversary,
        adversary_kwargs=tuple(sorted(adversary_kwargs.items())),
        inputs=inputs_key,
        network=network,
        n=n,
        f=f,
        seeds=tuple(spec.seeds),
        kwargs=tuple(kwargs.items()),
        bindings=tuple(bindings),
    )


# ---------------------------------------------------------------------------
# Executors.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Executor:
    """How a cell runs: the callable plus its binding requirements."""

    run: Callable[..., Tuple[Any, Dict[str, Any]]]
    needs_protocol: bool = True
    needs_n: bool = True
    needs_f: bool = True
    #: Whether ``lam``/``epsilon`` bindings fold into SecurityParameters
    #: (protocol executors) or pass through verbatim (attack executors,
    #: whose ``epsilon`` is the lower-bound message-budget factor).
    folds_params: bool = True
    #: Executors that run exactly one seed; multi-seed specs are
    #: rejected rather than silently truncated to ``seeds[0]``.
    single_seed: bool = False
    #: Whether the executor honors a ``network`` binding (the protocol
    #: executors and the attack harnesses do; executors that never run a
    #: protocol — ``hypothetical``, ``committee-census`` — reject one
    #: rather than silently ignoring it).
    supports_network: bool = False


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _stats_metrics(stats: TrialStats,
                   observables: Mapping[str, Callable[[Any], float]],
                   ) -> Dict[str, Any]:
    metrics = {
        "trials": stats.trials,
        "consistency_rate": stats.consistency_rate,
        "validity_rate": stats.validity_rate,
        "termination_rate": stats.termination_rate,
        "violation_rate": stats.violation_rate,
        "mean_rounds": stats.mean_rounds,
        "mean_multicasts": stats.mean_multicasts,
        "mean_multicast_bits": stats.mean_multicast_bits,
        "mean_corruptions": stats.mean_corruptions,
        "max_message_bits": stats.max_message_bits,
    }
    # Network-axis columns only for conditioned cells, so sweeps that
    # never leave perfect synchrony keep byte-identical artifacts.
    if stats.has_network_stats:
        metrics["mean_delivery_latency"] = stats.mean_delivery_latency
        metrics["max_in_flight"] = stats.max_in_flight
        metrics["dropped_copies"] = stats.dropped_copies
        # Scheduler accounting.  Both columns count what a per-tick loop
        # would see (idle ticks the event engine skips are counted, not
        # visited), so they match the Δ-lockstep test reference and the
        # artifacts stay byte-identical to the recorded goldens.
        metrics["skipped_ticks"] = stats.skipped_ticks
        metrics["events_processed"] = stats.events_processed
    # The protocol's own observables, named from the registry rather
    # than from the results, so a cell with no trials still emits every
    # column.
    results = stats.results
    for name, extract in observables.items():
        metrics[f"mean_{name}"] = (
            sum(extract(result) for result in results) / len(results)
            if results else 0.0)
    return metrics


def _report_metrics(report: Any) -> Dict[str, Any]:
    """Scalar fields of an attack-report dataclass, for artifact rows."""
    if dataclasses.is_dataclass(report):
        return {field.name: getattr(report, field.name)
                for field in dataclasses.fields(report)
                if _is_scalar(getattr(report, field.name))}
    return {}


def _cell_trial_kwargs(cell: Cell,
                       coin_cache: Optional[SharedLotteryCache],
                       ) -> Dict[str, Any]:
    entry = PROTOCOLS[cell.protocol]
    kwargs = cell.builder_kwargs()
    if (coin_cache is not None
            and builder_accepts(entry.builder, "coin_cache")
            and kwargs.get("mode", "fmine") == "fmine"
            and "eligibility" not in kwargs):
        kwargs["coin_cache"] = coin_cache
    return kwargs


def _adversary_factory(cell: Cell) -> Optional[AdversaryFactorySpec]:
    if cell.adversary is None:
        return None
    return AdversaryFactorySpec(cell.adversary, cell.adversary_kwargs)


def _execute_trials(cell: Cell, workers: int,
                    coin_cache: Optional[SharedLotteryCache],
                    pool=None) -> Tuple[TrialStats, Dict[str, Any]]:
    """The default executor: :func:`run_trials` over the cell's seeds."""
    entry = PROTOCOLS[cell.protocol]
    stats = run_trials(
        entry.builder,
        f=cell.f,
        seeds=cell.seeds,
        adversary_factory=_adversary_factory(cell),
        workers=workers,
        conditions=cell.network,
        pool=pool,
        **_cell_trial_kwargs(cell, coin_cache),
    )
    return stats, _stats_metrics(stats, entry.observables)


def _execute_per_seed(cell: Cell, workers: int,
                      coin_cache: Optional[SharedLotteryCache],
                      pool=None,
                      ) -> Tuple[List[Tuple[Any, Any]], Dict[str, Any]]:
    """Sequential per-seed runner that keeps the adversary objects.

    Used when the table needs adversary-side statistics (forged ACK
    counts, corruption schedules) that :class:`TrialStats` does not
    carry; always sequential so the adversary objects stay in-process.
    """
    entry = PROTOCOLS[cell.protocol]
    kwargs = _cell_trial_kwargs(cell, coin_cache)
    if builder_accepts(entry.builder, "conditions"):
        kwargs["conditions"] = cell.network
    factory = _adversary_factory(cell)
    records: List[Tuple[Any, Any]] = []
    stats = TrialStats()
    for seed in cell.seeds:
        instance = entry.builder(f=cell.f, seed=seed, **kwargs)
        adversary = factory(instance) if factory is not None else None
        result = run_instance(instance, cell.f, adversary, seed=seed,
                              conditions=cell.network)
        records.append((result, adversary))
        stats.add(result)
    return records, _stats_metrics(stats, entry.observables)


def _attack_kwargs(cell: Cell) -> Dict[str, Any]:
    kwargs = cell.builder_kwargs()
    kwargs.pop("n", None)  # passed positionally by the attack runners
    return kwargs


def _execute_theorem4(cell: Cell, workers: int,
                      coin_cache: Optional[SharedLotteryCache],
                      pool=None):
    from repro.lowerbounds import run_theorem4_attack
    report = run_theorem4_attack(
        PROTOCOLS[cell.protocol].builder, n=cell.n, f=cell.f,
        seeds=cell.seeds, conditions=cell.network, **_attack_kwargs(cell))
    return report, _report_metrics(report)


def _execute_theorem4_census(cell: Cell, workers: int,
                             coin_cache: Optional[SharedLotteryCache],
                             pool=None):
    from repro.lowerbounds.theorem4 import run_theorem4_census
    census = run_theorem4_census(
        PROTOCOLS[cell.protocol].builder, n=cell.n, f=cell.f,
        seeds=cell.seeds, conditions=cell.network, **_attack_kwargs(cell))
    return census, _report_metrics(census)


def _execute_dolev_reischuk(cell: Cell, workers: int,
                            coin_cache: Optional[SharedLotteryCache],
                            pool=None):
    from repro.lowerbounds import run_dolev_reischuk_attack
    report = run_dolev_reischuk_attack(
        PROTOCOLS[cell.protocol].builder, n=cell.n, f=cell.f,
        seed=cell.seeds[0], conditions=cell.network, **_attack_kwargs(cell))
    return report, _report_metrics(report)


def _execute_hypothetical(cell: Cell, workers: int,
                          coin_cache: Optional[SharedLotteryCache],
                          pool=None):
    from repro.lowerbounds import run_hypothetical_experiment
    report = run_hypothetical_experiment(
        seed=cell.seeds[0], **cell.builder_kwargs())
    return report, _report_metrics(report)


def _execute_committee_census(cell: Cell, workers: int,
                              coin_cache: Optional[SharedLotteryCache],
                              pool=None):
    """Monte-Carlo committee statistics (Lemmas 10–11).

    Samples the eligibility lottery itself — no protocol execution — one
    fresh :class:`FMineEligibility` per seed, recording the committee
    size and its corrupt membership for the cell's ``topic``.
    """
    from repro.eligibility import DifficultySchedule, FMineEligibility
    kwargs = cell.builder_kwargs()
    params = kwargs["params"]
    topic = tuple(kwargs.get("topic", ("Vote", 1, 1)))
    schedule = DifficultySchedule.for_parameters(params, cell.n)
    threshold = kwargs.get("threshold", (params.lam + 1) // 2)
    samples: List[Tuple[int, int]] = []
    corrupt_hits = 0
    honest_misses = 0
    for seed in cell.seeds:
        # Deliberately no coin_cache: every census sample has a unique
        # seed, so the sweep-wide cache could never hit — it would only
        # accumulate n × samples dead entries.  Within one sample the
        # per-instance FMine memo already deduplicates.
        source = FMineEligibility(cell.n, schedule, seed=seed)
        eligible = [node for node in range(cell.n)
                    if source.capability_for(node).try_mine(topic) is not None]
        corrupt = sum(1 for node in eligible if node < cell.f)
        samples.append((len(eligible), corrupt))
        corrupt_hits += corrupt >= threshold
        honest_misses += (len(eligible) - corrupt) < threshold
    count = len(samples)
    metrics = {
        "samples": count,
        "mean_committee_size":
            sum(size for size, _ in samples) / count if count else 0.0,
        "corrupt_quorum_rate": corrupt_hits / count if count else 0.0,
        "honest_miss_rate": honest_misses / count if count else 0.0,
        "threshold": threshold,
    }
    return samples, metrics


EXECUTORS: Dict[str, Executor] = {
    "trials": Executor(_execute_trials, supports_network=True),
    "per-seed": Executor(_execute_per_seed, supports_network=True),
    # The attack harnesses run their adversaries through run_instance,
    # which takes conditions — so partition/latency *studies* of the
    # lower-bound attacks are a network binding away (the proofs'
    # view-identity arguments assume lock-step; under conditions the
    # reports are empirical, see docs/NETWORK.md).
    "theorem4": Executor(_execute_theorem4, folds_params=False,
                         supports_network=True),
    "theorem4-census": Executor(_execute_theorem4_census,
                                folds_params=False, supports_network=True),
    "dolev-reischuk": Executor(_execute_dolev_reischuk, folds_params=False,
                               single_seed=True, supports_network=True),
    "hypothetical": Executor(
        _execute_hypothetical, needs_protocol=False, needs_f=False,
        single_seed=True),
    "committee-census": Executor(_execute_committee_census,
                                 needs_protocol=False),
}


# ---------------------------------------------------------------------------
# Results and artifacts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CachedCellPayload:
    """Placeholder payload for a cell replayed from an experiment store.

    Store records keep metrics only — transcripts, per-trial results,
    and :class:`TrialStats` are never persisted — so a replayed cell
    refuses payload access the same way a metrics-only transcript
    (``transcript_retained=False``) refuses replay and invariant checks:
    loudly, instead of handing back fabricated data.
    """

    fingerprint: str


@dataclass
class CellResult:
    """One executed cell: the raw payload plus its flat metrics row.

    ``payload`` keeps the executor's native result (a
    :class:`TrialStats`, an attack report, per-seed records) so table
    code can reach per-trial data; ``metrics`` holds only scalars and is
    what artifacts serialize.  Cells replayed from an experiment store
    carry a :class:`CachedCellPayload` instead (``cached=True``) and
    refuse payload access.
    """

    cell: Cell
    payload: Any
    metrics: Dict[str, Any]
    #: Store fingerprint of the cell, when a store was consulted.
    fingerprint: Optional[str] = None
    #: Whether the metrics were replayed from a store rather than
    #: computed by this invocation.
    cached: bool = False

    @property
    def stats(self) -> TrialStats:
        if isinstance(self.payload, CachedCellPayload):
            raise TypeError(
                f"cell {self.cell.label()!r} was replayed from the "
                f"experiment store (fingerprint "
                f"{self.payload.fingerprint[:12]}); stored records keep "
                "metrics only — re-run without the store, or bump the "
                "store salt, for TrialStats/transcript access")
        if not isinstance(self.payload, TrialStats):
            raise TypeError(
                f"cell {self.cell.label()!r} ran executor "
                f"{self.cell.executor!r}, which has no TrialStats payload")
        return self.payload

    def row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "scenario": self.cell.scenario,
            "protocol": self.cell.protocol,
            "executor": self.cell.executor,
        }
        for key, value in self.cell.bindings:
            if _is_scalar(value):
                row[key] = value
        row["seeds"] = len(self.cell.seeds)
        for key, value in self.metrics.items():
            if _is_scalar(value):
                row[key] = value
        return row


def sweep_json_text(name: str, rows: List[Dict[str, Any]],
                    lottery: Optional[Dict[str, Any]] = None) -> str:
    """The canonical JSON artifact text for one sweep's rows.

    Single-sourced so every producer — :meth:`SweepResult.to_json` after
    a live run, and the experiment service serving the same sweep out of
    a store — emits byte-identical artifacts for the same rows.
    """
    payload = {"sweep": name, "rows": rows, "lottery": lottery}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def sweep_csv_text(rows: List[Dict[str, Any]]) -> str:
    """The canonical CSV artifact text for one sweep's rows (column
    order via :func:`union_columns`, shared with the table renderers)."""
    columns = union_columns(rows)
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


@dataclass
class SweepResult:
    """All cells of one sweep, with table rendering and artifact export."""

    name: str
    cells: List[CellResult]
    lottery: Optional[Dict[str, Any]] = None
    #: Replay/compute accounting when a store or shard was in play:
    #: ``{"replayed": R, "computed": C, "skipped": S, "salt": ...,
    #: "shard": "K/M" | None}``.  Not serialized into artifacts (a warm
    #: replay must emit byte-identical CSV/JSON).
    store_stats: Optional[Dict[str, Any]] = None

    def rows(self) -> List[Dict[str, Any]]:
        """Flat, JSON-safe rows — one per cell, deterministic order."""
        return [cell.row() for cell in self.cells]

    def scenario(self, name: str) -> List[CellResult]:
        """The executed cells of one scenario, in grid order."""
        return [cell for cell in self.cells if cell.cell.scenario == name]

    def to_table(self, title: Optional[str] = None) -> Table:
        """Render the rows as an aligned table (union of row columns)."""
        return rows_to_table(title or f"sweep {self.name}", self.rows())

    def to_json(self, path) -> Path:
        path = Path(path)
        path.write_text(sweep_json_text(self.name, self.rows(),
                                        self.lottery))
        return path

    def to_csv(self, path) -> Path:
        path = Path(path)
        with path.open("w", newline="") as handle:
            handle.write(sweep_csv_text(self.rows()))
        return path

    @staticmethod
    def load_rows(path) -> List[Dict[str, Any]]:
        """Rows back out of a :meth:`to_json` artifact (round-trip)."""
        payload = json.loads(Path(path).read_text())
        return payload["rows"]


_SWEEP_IDS = itertools.count()


def execute_or_replay(cell: Cell, store=None, sweep_name: str = "",
                      share_lottery: bool = True, workers: int = 1,
                      coin_cache: Optional[SharedLotteryCache] = None,
                      pool=None) -> CellResult:
    """Execute one bound cell, replaying it from ``store`` if recorded.

    The single cell-granularity entry point shared by :func:`run_sweep`
    and the experiment service's worker pool: consult the store (when
    given) for the cell's fingerprint, replay a recorded cell as a
    :class:`CachedCellPayload` result carrying the stored metrics, or
    execute it and record the fresh result durably before returning.
    Cells are independent — each one's results are a pure function of
    its bindings and seeds — so callers may execute cells in any order
    or concurrently against one concurrency-safe store backend.
    """
    fingerprint = None
    if store is not None:
        fingerprint = store.fingerprint(cell, share_lottery=share_lottery)
        record = store.load_record(fingerprint)
        if record is not None:
            # Replay: the stored metrics dict round-trips JSON exactly
            # (scalars only, insertion order kept), so rows/tables/
            # artifacts are byte-identical to the recorded fresh
            # execution.  The row is recomposed from the *live* cell,
            # so display metadata (scenario names, binding labels —
            # outside the fingerprint) always tracks the current spec.
            return CellResult(
                cell=cell,
                payload=CachedCellPayload(fingerprint=fingerprint),
                metrics=dict(record["metrics"]),
                fingerprint=fingerprint,
                cached=True)
    payload, metrics = EXECUTORS[cell.executor].run(
        cell, workers, coin_cache, pool=pool)
    result = CellResult(cell=cell, payload=payload,
                        metrics=metrics, fingerprint=fingerprint)
    if store is not None:
        store.save_result(fingerprint, sweep_name, result,
                          share_lottery=share_lottery)
    return result


def run_sweep(sweep: SweepSpec, workers: int = 1,
              share_lottery: bool = True,
              store=None,
              shard: Optional[Tuple[int, int]] = None,
              on_cell: Optional[Callable[[Dict[str, Any]], None]] = None,
              ) -> SweepResult:
    """Expand and execute every cell of ``sweep``.

    ``workers > 1`` fans each cell's seeds across processes via
    :func:`run_trials`; cells themselves run in order, so results are
    deterministic for any worker count.  ``share_lottery`` installs a
    per-sweep :class:`SharedLotteryCache` so ideal-world eligibility
    coins are computed once per ``(seed, node, topic)`` across all cells
    that share them (identical coins either way — the cache memoizes a
    pure function).

    ``store`` (a :class:`~repro.harness.store.ExperimentStore`) makes
    the sweep incremental: each cell's fingerprint is looked up before
    execution, recorded cells are replayed byte-identically (as
    :class:`CachedCellPayload` cells carrying the stored metrics), and
    freshly computed cells are recorded.  Store-backed results report
    no lottery counters — replayed cells draw no coins, so the counters
    would vary between cold and warm runs while the artifacts must not.

    ``shard=(k, m)`` (1-based) restricts *computation* to cells whose
    expansion index ``i`` satisfies ``i % m == k - 1``; other cells are
    still replayed when the store has them, and silently skipped (and
    counted in ``store_stats["skipped"]``) when it does not — so M
    shard invocations against one shared store union into the full
    sweep, and the last one returns (and records) the complete result.

    ``on_cell`` is a per-cell progress callback, invoked after each
    cell settles with a dict event: ``{"index", "total", "status"
    ("computed" | "replayed" | "skipped"), "scenario", "label",
    "fingerprint" (None without a store)}``.  The experiment service
    streams these to polling clients; exceptions propagate (a callback
    that raises aborts the sweep).
    """
    if shard is not None:
        shard_index, shard_count = shard
        if shard_count < 1 or not 1 <= shard_index <= shard_count:
            raise ConfigurationError(
                f"shard (k, m) needs 1 <= k <= m, got {shard!r}")
    cache: Optional[SharedLotteryCache] = None
    if share_lottery:
        cache = SharedLotteryCache(
            token=f"sweep-{sweep.name}-{next(_SWEEP_IDS)}")
    pool = None
    if workers > 1:
        # One pool for the whole sweep: worker processes persist across
        # cells, so the per-worker lottery caches (rebound from the
        # pickled token) accumulate coins cell over cell instead of
        # dying with a per-cell pool.
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        results = []
        all_fingerprints: List[str] = []
        all_rows: List[Optional[Dict[str, Any]]] = []
        replayed = computed = skipped = 0
        cells = sweep.expand()

        def _progress(index: int, cell: Cell, status: str,
                      fingerprint: Optional[str]) -> None:
            if on_cell is not None:
                on_cell({"index": index, "total": len(cells),
                         "status": status, "scenario": cell.scenario,
                         "label": cell.label(),
                         "fingerprint": fingerprint})

        for index, cell in enumerate(cells):
            fingerprint = None
            if store is not None:
                fingerprint = store.fingerprint(
                    cell, share_lottery=share_lottery)
                all_fingerprints.append(fingerprint)
            if (shard is not None
                    and index % shard_count != shard_index - 1):
                # Out-of-shard cells still replay when recorded (the
                # helper below only executes on a store miss) — but a
                # miss is *skipped*, never computed here.
                result = None
                if store is not None:
                    record = store.load_record(fingerprint)
                    if record is not None:
                        result = CellResult(
                            cell=cell,
                            payload=CachedCellPayload(
                                fingerprint=fingerprint),
                            metrics=dict(record["metrics"]),
                            fingerprint=fingerprint, cached=True)
                if result is None:
                    skipped += 1
                    if store is not None:
                        all_rows.append(None)
                    _progress(index, cell, "skipped", fingerprint)
                    continue
            else:
                result = execute_or_replay(
                    cell, store=store, sweep_name=sweep.name,
                    share_lottery=share_lottery, workers=workers,
                    coin_cache=cache, pool=pool)
            results.append(result)
            if result.cached:
                replayed += 1
            else:
                computed += 1
            if store is not None:
                all_rows.append(result.row())
            _progress(index, cell,
                      "replayed" if result.cached else "computed",
                      fingerprint)
        lottery = None
        if cache is not None and store is None:
            # Counters are process-local: with a worker pool the coins
            # are drawn inside the workers, so say so in the artifact
            # rather than persisting misleading zeros.  Store-backed
            # runs omit the counters entirely: a warm replay draws no
            # coins, and its artifacts must be byte-identical to the
            # cold run's.
            lottery = dict(cache.stats())
            lottery["scope"] = ("main-process counters only; coins were "
                                "drawn in worker processes"
                                if pool is not None else "main process")
        store_stats = None
        if store is not None or shard is not None:
            store_stats = {
                "replayed": replayed,
                "computed": computed,
                "skipped": skipped,
                "salt": store.salt if store is not None else None,
                "shard": (f"{shard[0]}/{shard[1]}"
                          if shard is not None else None),
            }
        if store is not None:
            # The record lists the *full* expansion (including any
            # shard-skipped cells, as row-less holes) so concurrent
            # shards write equivalent records and the book sections the
            # whole sweep once the cell records exist.
            store.record_sweep(
                sweep.name, sweep.description, all_fingerprints,
                complete=(skipped == 0), rows=all_rows)
        return SweepResult(
            name=sweep.name, cells=results, lottery=lottery,
            store_stats=store_stats)
    finally:
        if pool is not None:
            pool.shutdown()
        if cache is not None:
            release_cache(cache.token)
