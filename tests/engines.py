"""The Δ-lockstep reference for conditioned-execution tests.

The engine (``repro.sim.engine``) drives every conditioned execution with
one event-driven loop that skips idle Δ-ticks.  This module keeps the
loop it replaced — the Δ-lockstep synchronizer, ticking the network once
per network round — as the reference the differential suites compare
against.  :func:`lockstep` installs it in place of
``Simulation._run_event`` for the duration of a ``with`` block, the same
way ``tests/test_delivery_differential.py`` swaps eager delivery in for
``SynchronousNetwork.deliver``.
"""

import contextlib
from typing import Dict

import pytest

from repro.sim.engine import Simulation
from repro.types import NodeId


def legacy_synchronize(simulation: Simulation) -> int:
    """Reference implementation of the conditioned loop: the Δ-lockstep
    synchronizer, ticking the network once per network round.

    Every tick calls ``ConditionedNetwork.deliver`` (even the idle ones
    the event engine jumps over), and the protocol steps on every Δ-th
    tick with the deliveries buffered since the previous step.  The
    differential suites assert the event engine's executions are
    identical to this loop's: decisions, rounds, transcripts,
    NetworkStats, and RNG draw order.
    """
    stretch = simulation.conditions.delta
    n = simulation.n
    buffered: Dict[NodeId, list] = {node: [] for node in range(n)}
    rounds_executed = 0
    for network_round in range(simulation.max_rounds * stretch):
        inboxes = simulation.network.deliver()
        for node, deliveries in inboxes.items():
            if deliveries:
                buffered[node].extend(deliveries)
        if network_round % stretch:
            continue
        round_index = network_round // stretch
        simulation.current_round = round_index
        simulation.adversary.observe_deliveries(round_index, buffered)
        simulation._honest_step(round_index, buffered)
        buffered = {node: [] for node in range(n)}
        simulation.adversary.react(round_index,
                                   simulation.network.in_flight())
        rounds_executed = round_index + 1
        if simulation._all_honest_halted():
            break
    return rounds_executed


@contextlib.contextmanager
def lockstep():
    """Run every conditioned execution started inside the block on
    :func:`legacy_synchronize` instead of the event loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulation, "_run_event", legacy_synchronize)
        yield
