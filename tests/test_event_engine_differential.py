"""Differential conformance: event-driven scheduler vs Δ-lockstep loop.

The event engine (``repro.sim.engine``) replaced the conditioned
synchronizer's tick-by-tick loop with a timestamp-ordered event queue
that skips idle Δ-ticks outright.  These tests run whole protocol
executions on both loops — the lock-step reference installed by
:func:`tests.engines.lockstep` in place of the event loop — and assert
the executions are *identical*:
same outputs, decision rounds, transcripts, metrics, and (down to every
counter, including the engine-invariant ``skipped_ticks`` /
``events_processed``) the same :class:`~repro.sim.conditions.NetworkStats`.
Identity (not mere consistency) is the repo's established bar for
hot-path rewrites (see ``tests/test_delivery_differential.py`` for the
delivery-layer precedent).

The grid crosses every protocol family the conditioned engine hosts —
quadratic BA, phase-king, subquadratic BA, and both GST-aware early-stop
variants — with every nontrivial named network preset (``lan``, ``wan``,
``lossy``, ``split-heal``), plus adversary compositions (Δ-deadline
delays, crashes) and a round-budget-exhaustion case that exercises the
event engine's idle-tail accounting (``finish_clock``).
"""

import dataclasses

import pytest

from repro.adversaries.crash import CrashAdversary
from repro.adversaries.network_scheduler import DelayAdversary
from repro.harness.profiling import profile_phase_budget
from repro.harness.runner import run_instance
from repro.protocols.early_stopping import (
    build_phase_king_early_stop,
    build_quadratic_ba_early_stop,
)
from repro.protocols.phase_king import build_phase_king
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba
from repro.sim.conditions import (
    NETWORKS,
    ConditionedNetwork,
    LinkTopology,
    NetworkConditions,
)
from repro.sim.engine import Simulation
from tests.engines import legacy_synchronize, lockstep


def _snapshot(result):
    """Everything a conditioned execution observably produced."""
    return {
        "outputs": result.outputs,
        "decided_rounds": result.decided_rounds,
        "rounds_executed": result.rounds_executed,
        "rounds_saved": result.rounds_saved,
        "transcript": [
            (e.envelope_id, e.sender, e.recipient, repr(e.payload),
             e.round_sent, e.honest_sender)
            for e in result.transcript],
        "metrics": (result.metrics.honest_multicast_count,
                    result.metrics.honest_multicast_bits,
                    result.metrics.honest_unicast_count,
                    result.metrics.honest_unicast_bits,
                    result.metrics.corrupt_multicast_count,
                    result.metrics.corrupt_unicast_count,
                    result.metrics.max_message_bits,
                    dict(result.metrics.per_round_honest_multicasts),
                    result.metrics.per_round_multicast_bits()),
        "network_stats": dataclasses.asdict(result.network_stats),
    }


def _inputs(n):
    return [i % 2 for i in range(n)]


#: name -> (builder(conditions) -> instance, f).  Sizes follow the
#: conditioned property suite: small enough that the full grid stays
#: test-sized, large enough that every protocol runs multiple epochs
#: under every preset.
PROTOCOLS = {
    "quadratic": (lambda conditions: build_quadratic_ba(
        12, 3, _inputs(12), seed=7), 3),
    "phase-king": (lambda conditions: build_phase_king(
        13, 4, _inputs(13), seed=7), 4),
    "subquadratic": (lambda conditions: build_subquadratic_ba(
        28, 7, _inputs(28), seed=7), 7),
    "quadratic-early-stop": (lambda conditions: build_quadratic_ba_early_stop(
        12, 3, _inputs(12), seed=7, conditions=conditions), 3),
    "phase-king-early-stop": (lambda conditions: build_phase_king_early_stop(
        13, 4, _inputs(13), seed=7, conditions=conditions), 4),
}

#: Every nontrivial named preset (perfect conditions never reach a
#: conditioned loop: the engine normalizes them to the fast path).
CONDITIONS = ("lan", "wan", "lossy", "split-heal")

GRID = [(protocol, network)
        for protocol in PROTOCOLS for network in CONDITIONS]


def _execute(protocol, network, **kwargs):
    conditions = NETWORKS[network]
    builder, f = PROTOCOLS[protocol]
    return run_instance(builder(conditions), f, seed=7,
                        conditions=conditions, **kwargs)


@pytest.mark.parametrize("protocol,network", GRID,
                         ids=[f"{p}-{c}" for p, c in GRID])
def test_event_engine_matches_lockstep(protocol, network):
    event = _execute(protocol, network)
    with lockstep():
        reference = _execute(protocol, network)
    assert _snapshot(event) == _snapshot(reference)
    # The cell must be a real conditioned execution, not a fast-path one.
    assert event.network_stats is not None
    assert event.consistent() and event.agreement_valid()


@pytest.mark.parametrize("network", CONDITIONS)
def test_event_engine_skips_what_lockstep_idles(network):
    """The engines agree on *how many* ticks were idle — the event
    engine skips them, the lock-step loop executes them as no-ops, and
    both count the same rounds."""
    event = _execute("quadratic", network)
    stats = event.network_stats
    assert stats.skipped_ticks > 0
    assert stats.events_processed >= stats.delivered_copies
    assert stats.skipped_ticks < stats.network_rounds
    with lockstep():
        reference = _execute("quadratic", network)
    assert stats == reference.network_stats


def _sparse_latency(delta):
    """The sparse-latency scenario: a Δ bound far above the one-tick
    link latency, on a clustered topology."""
    return NetworkConditions(
        delta=delta, latency=("fixed", 1),
        topology=LinkTopology.clustered(clusters=4, extra=2))


@pytest.fixture
def advance_ticks(monkeypatch):
    """The clock value of every ``ConditionedNetwork.advance_to`` call."""
    ticks = []
    advance_to = ConditionedNetwork.advance_to

    def counted(self, round_index):
        ticks.append(round_index)
        return advance_to(self, round_index)

    monkeypatch.setattr(ConditionedNetwork, "advance_to", counted)
    return ticks


def _advances(ticks, delta):
    instance = build_quadratic_ba(8, 3, _inputs(8), seed=1)
    ticks.clear()
    result = run_instance(instance, 3, seed=1,
                          conditions=_sparse_latency(delta))
    assert result.all_decided() and result.consistent()
    return len(ticks), result.network_stats.network_rounds


def test_event_engine_visits_a_delta_independent_number_of_ticks(
        advance_ticks):
    """The event engine really skips idle ticks, not just counts them.

    The lock-step reference calls ``advance_to`` once per network round,
    so its call count grows linearly with Δ, while the event engine
    visits only ticks with work — the same number at every Δ."""
    deltas = (32, 128, 512)
    event = [_advances(advance_ticks, delta) for delta in deltas]
    assert len({calls for calls, _ in event}) == 1, event
    with lockstep():
        reference = [_advances(advance_ticks, delta) for delta in deltas]
    for (calls, network_rounds), (reference_calls, _) in zip(event,
                                                             reference):
        assert reference_calls == network_rounds
        assert calls < network_rounds


def test_scheduler_environment_variable_is_inert(advance_ticks,
                                                 monkeypatch):
    """``REPRO_SCHEDULER`` once selected the conditioned loop; the event
    engine is now the only one, so the variable changes nothing — not
    even an unknown value is rejected."""
    baseline = _advances(advance_ticks, 512)
    for value in ("lockstep", "no-such-engine"):
        monkeypatch.setenv("REPRO_SCHEDULER", value)
        assert _advances(advance_ticks, 512) == baseline


def test_entry_points_take_no_scheduler_argument():
    instance = build_quadratic_ba(4, 1, _inputs(4), seed=1)
    conditions = _sparse_latency(8)
    with pytest.raises(TypeError):
        Simulation(instance.nodes, 1, conditions=conditions,
                   scheduler="lockstep")
    with pytest.raises(TypeError):
        run_instance(instance, 1, conditions=conditions,
                     scheduler="lockstep")
    with pytest.raises(TypeError):
        profile_phase_budget(instance, 1, conditions=conditions,
                             scheduler="lockstep")


def test_phase_budget_reports_delta_independent_advance_calls():
    """``profile_phase_budget`` counts the ticks the event engine
    visited: none without conditions, and the same number at every Δ."""
    def budget(conditions):
        instance = build_quadratic_ba(8, 3, _inputs(8), seed=1)
        return profile_phase_budget(instance, 3, seed=1,
                                    conditions=conditions)

    plain = budget(None)
    assert plain.advance_calls == 0
    assert plain.scheduler_seconds == 0.0
    sparse = [budget(_sparse_latency(delta)) for delta in (32, 512)]
    assert sparse[0].advance_calls == sparse[1].advance_calls > 0
    assert sparse[0].budget_dict()["advance_calls"] == \
        sparse[0].advance_calls


def test_lockstep_reference_is_scoped_to_its_block():
    """The reference replaces the event loop only inside ``with
    lockstep()``, and the event loop is back even if the block raises."""
    event_loop = Simulation._run_event
    with lockstep():
        assert Simulation._run_event is legacy_synchronize
    assert Simulation._run_event is event_loop
    with pytest.raises(RuntimeError):
        with lockstep():
            raise RuntimeError("inside the block")
    assert Simulation._run_event is event_loop


@pytest.mark.parametrize("adversary_factory", [
    lambda: DelayAdversary(fraction=0.5, seed=3),
    lambda: DelayAdversary(),
    lambda: CrashAdversary(),
], ids=["delay-half", "delay-deadline", "crash"])
def test_adversaries_compose_identically(adversary_factory):
    """Adversarial delays and crashes ride the same schedule on both
    loops (``react`` observes the same staging windows, ``delay``
    registers against the same copies)."""
    conditions = NETWORKS["wan"]
    n, f = 12, 3

    def execute():
        instance = build_quadratic_ba(n, f, _inputs(n), seed=11)
        return run_instance(instance, f, adversary_factory(), seed=11,
                            conditions=conditions)

    event = execute()
    with lockstep():
        reference = execute()
    assert _snapshot(event) == _snapshot(reference)


def test_budget_exhaustion_accounts_the_idle_tail():
    """An execution that runs out its round budget without halting must
    report the same clock on both loops: the lock-step synchronizer
    ticks the network all the way to ``max_rounds·Δ``, so the event
    engine's ``finish_clock`` must account the idle tail it never ran."""
    event = _execute("quadratic", "wan", max_rounds=2)
    with lockstep():
        reference = _execute("quadratic", "wan", max_rounds=2)
    assert _snapshot(event) == _snapshot(reference)
    assert event.rounds_executed == 2
    assert event.network_stats.network_rounds == 2 * NETWORKS["wan"].delta


def test_rng_streams_end_in_the_same_state():
    """Direct evidence for draw-order identity (not just draw-outcome
    identity): after a full execution the conditioned network's RNG is
    in the same state under both loops."""
    conditions = NETWORKS["lossy"]
    n, f = 12, 3

    def final_rng_state():
        instance = build_quadratic_ba(n, f, _inputs(n), seed=13)
        simulation = Simulation(
            nodes=instance.nodes, corruption_budget=f, seed=13,
            max_rounds=instance.max_rounds, inputs=instance.inputs,
            signing_capabilities=instance.signing_capabilities,
            mining_capabilities=instance.mining_capabilities,
            conditions=conditions)
        simulation.run()
        return simulation.network._rng.getstate()

    event = final_rng_state()
    with lockstep():
        reference = final_rng_state()
    assert event == reference
