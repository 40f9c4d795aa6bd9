"""Convenience runners used by tests, examples, and benchmarks.

``run_instance`` wires a :class:`~repro.protocols.base.ProtocolInstance`
into a :class:`~repro.sim.engine.Simulation` against an (optionally
instance-aware) adversary; ``run_trials`` repeats a builder across seeds —
optionally fanning the seeds across worker processes — and aggregates the
security predicates into a :class:`TrialStats`.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.protocols.base import ProtocolInstance
from repro.sim.adversary import Adversary
from repro.sim.conditions import NetworkConditions, NetworkStats
from repro.sim.engine import TRANSCRIPT_FULL, Simulation
from repro.sim.result import ExecutionResult
from repro.types import AdversaryModel

#: Builds an adversary for a freshly constructed protocol instance.
AdversaryFactory = Callable[[ProtocolInstance], Adversary]


def builder_accepts(builder: Callable[..., Any], name: str) -> bool:
    """Whether ``builder`` takes a ``name`` keyword argument.

    The harness reads a builder's capabilities off its signature —
    ``sender_input`` (sender-style broadcast), ``params``,
    ``coin_cache`` (the shared eligibility lottery), ``mode`` and
    ``conditions`` — instead of keeping a flag per protocol.
    """
    return name in inspect.signature(builder).parameters


def run_instance(
    instance: ProtocolInstance,
    f: int,
    adversary: Optional[Adversary] = None,
    model: AdversaryModel = AdversaryModel.ADAPTIVE,
    seed=0,
    max_rounds: Optional[int] = None,
    transcript_retention: str = TRANSCRIPT_FULL,
    conditions: Optional[NetworkConditions] = None,
) -> ExecutionResult:
    """Execute one protocol instance against one adversary."""
    simulation = Simulation(
        nodes=instance.nodes,
        corruption_budget=f,
        model=model,
        adversary=adversary,
        max_rounds=max_rounds if max_rounds is not None else instance.max_rounds,
        seed=seed,
        inputs=instance.inputs,
        signing_capabilities=instance.signing_capabilities,
        mining_capabilities=instance.mining_capabilities,
        transcript_retention=transcript_retention,
        conditions=conditions,
    )
    return simulation.run()


class TrialStats:
    """Aggregated security predicates over repeated executions.

    Each predicate is evaluated exactly once, when the result is added;
    the rate properties read O(1) counters instead of re-scanning every
    stored result on each access.  Results enter exclusively through
    :meth:`add` (``results`` is a read-only view), so the counters can
    never drift from the stored sample.
    """

    def __init__(self, results: Optional[List[ExecutionResult]] = None) -> None:
        self._results: List[ExecutionResult] = []
        self._consistent = 0
        self._valid = 0
        self._violations = 0
        self._decided = 0
        self._multicasts = 0
        self._multicast_bits = 0
        self._rounds = 0
        self._corruptions = 0
        self._max_message_bits = 0
        self._network_trials = 0
        self._network = NetworkStats()
        for result in results or []:
            self.add(result)

    @property
    def results(self) -> Tuple[ExecutionResult, ...]:
        """The stored results, as an immutable view (use :meth:`add`)."""
        return tuple(self._results)

    def add(self, result: ExecutionResult) -> None:
        self._results.append(result)
        consistent = result.consistent()
        valid = result.agreement_valid()
        self._consistent += consistent
        self._valid += valid
        self._violations += not (consistent and valid)
        self._decided += result.all_decided()
        self._multicasts += result.metrics.multicast_complexity_messages
        self._multicast_bits += result.metrics.multicast_complexity_bits
        self._rounds += result.rounds_executed
        self._corruptions += result.corruptions_used
        self._max_message_bits = max(self._max_message_bits,
                                     result.metrics.max_message_bits)
        network = result.network_stats
        if network is not None:
            self._network_trials += 1
            self._network.accumulate(network)

    @property
    def trials(self) -> int:
        return len(self._results)

    @property
    def consistency_rate(self) -> float:
        return self._consistent / self.trials if self._results else 1.0

    @property
    def validity_rate(self) -> float:
        return self._valid / self.trials if self._results else 1.0

    @property
    def violation_rate(self) -> float:
        return self._violations / self.trials if self._results else 0.0

    @property
    def termination_rate(self) -> float:
        return self._decided / self.trials if self._results else 1.0

    @property
    def mean_multicasts(self) -> float:
        return self._multicasts / self.trials if self._results else 0.0

    @property
    def mean_multicast_bits(self) -> float:
        return self._multicast_bits / self.trials if self._results else 0.0

    @property
    def mean_rounds(self) -> float:
        return self._rounds / self.trials if self._results else 0.0

    @property
    def mean_corruptions(self) -> float:
        return self._corruptions / self.trials if self._results else 0.0

    @property
    def max_message_bits(self) -> int:
        """Largest single message seen across all trials."""
        return self._max_message_bits

    # -- network-conditions aggregates (conditioned executions only) --------
    @property
    def has_network_stats(self) -> bool:
        """Whether any trial ran under nontrivial network conditions."""
        return self._network_trials > 0

    @property
    def network(self) -> NetworkStats:
        """All conditioned trials folded into one :class:`NetworkStats`
        (sums; peak for ``max_in_flight``)."""
        return self._network

    @property
    def mean_delivery_latency(self) -> float:
        """Effective round latency: mean copy delay in network rounds,
        across every delivered copy of every conditioned trial."""
        return self._network.mean_delivery_latency

    @property
    def max_in_flight(self) -> int:
        """Peak scheduled-but-undelivered copies across conditioned trials."""
        return self._network.max_in_flight

    @property
    def dropped_copies(self) -> int:
        """Total pre-GST copy drops across conditioned trials."""
        return self._network.dropped_copies

    @property
    def skipped_ticks(self) -> int:
        """Total idle network ticks across conditioned trials — the
        rounds the event engine skips outright (and the lock-step
        synchronizer executes as no-ops; the count is engine-invariant).
        Their share of ``network.network_rounds`` is the empty-round
        density the event engine's wall-clock win tracks."""
        return self._network.skipped_ticks

    @property
    def events_processed(self) -> int:
        """Total delivery-queue events across conditioned trials
        (schedules, pre-GST duplicates, partition re-queues)."""
        return self._network.events_processed

    def decision_rounds(self) -> List[int]:
        rounds: List[int] = []
        for result in self._results:
            rounds.extend(result.decision_rounds())
        return rounds


def _run_one_trial(
    builder: Callable[..., ProtocolInstance],
    f: int,
    seed,
    adversary_factory: Optional[AdversaryFactory],
    model: AdversaryModel,
    transcript_retention: str,
    conditions: Optional[NetworkConditions],
    builder_kwargs: dict,
) -> ExecutionResult:
    """One seed's build-and-run; module-level so worker processes can
    receive it by pickle."""
    instance = builder(f=f, seed=seed, **builder_kwargs)
    adversary = (adversary_factory(instance)
                 if adversary_factory is not None else None)
    return run_instance(instance, f, adversary, model, seed=seed,
                        transcript_retention=transcript_retention,
                        conditions=conditions)


def run_trials(
    builder: Callable[..., ProtocolInstance],
    f: int,
    seeds: Sequence,
    adversary_factory: Optional[AdversaryFactory] = None,
    model: AdversaryModel = AdversaryModel.ADAPTIVE,
    workers: int = 1,
    transcript_retention: str = TRANSCRIPT_FULL,
    conditions: Optional[NetworkConditions] = None,
    pool=None,
    **builder_kwargs,
) -> TrialStats:
    """Build and run the protocol once per seed; aggregate the outcomes.

    The builder receives ``seed=<seed>`` plus ``builder_kwargs``; the
    adversary factory (if any) is invoked on each fresh instance, so
    attacks can read the instance's services.  A builder that takes
    ``conditions`` receives them as well — the GST-aware builders derive
    their trusted-round gates and view timers from the same conditions
    the engine runs under.

    ``workers > 1`` fans the seeds across a ``ProcessPoolExecutor``.
    Results are aggregated in seed order regardless of which worker
    finishes first, so ``TrialStats`` is identical for any worker count
    (each trial is already independently seeded).  The builder, the
    adversary factory, and the execution results must be picklable —
    true for all module-level builders in this repo.

    ``pool`` lends an already-running ``ProcessPoolExecutor`` instead:
    the caller keeps ownership (it is not shut down here), so worker
    processes — and any process-local state they carry, like the shared
    eligibility-lottery caches — persist across consecutive calls.
    :func:`~repro.harness.scenarios.run_sweep` uses this to share one
    pool across a whole sweep.
    """
    stats = TrialStats()
    seeds = list(seeds)
    if builder_accepts(builder, "conditions"):
        builder_kwargs["conditions"] = conditions
    if pool is None and workers > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as owned:
            futures = [
                owned.submit(_run_one_trial, builder, f, seed,
                             adversary_factory, model, transcript_retention,
                             conditions, builder_kwargs)
                for seed in seeds
            ]
            for future in futures:
                stats.add(future.result())
    elif pool is not None and seeds:
        # Even a single seed routes through the lent pool: the pool's
        # worker processes carry state the caller lent it to preserve
        # (per-worker lottery caches), and running the lone seed in the
        # parent would silently bypass them.  Results are pool-vs-inline
        # identical either way (each trial is independently seeded;
        # pinned by tests).
        futures = [
            pool.submit(_run_one_trial, builder, f, seed,
                        adversary_factory, model, transcript_retention,
                        conditions, builder_kwargs)
            for seed in seeds
        ]
        for future in futures:
            stats.add(future.result())
    else:
        for seed in seeds:
            stats.add(_run_one_trial(builder, f, seed, adversary_factory,
                                     model, transcript_retention,
                                     conditions, builder_kwargs))
    return stats
