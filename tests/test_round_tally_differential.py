"""Differential byte-identity: shared round tally vs. per-delivery loop.

On a *plain* round (every delivery an honest, unsuppressed multicast)
``AbaNode`` absorbs the round from one shared tally instead of running
its handler chain over every delivery.  These tests run whole executions
twice — once as shipped, once with delivery forced through the
``legacy_deliver`` reference, whose plain-dict inboxes carry no shared
round view and so always take the per-delivery loop — and assert the
executions are identical: decisions, decision rounds, transcript, every
``CommunicationMetrics`` field, per-round bits, every node's RNG end
state, and the number of authenticator checks.

Each case also pins how many node-rounds took the shared path: all of
them on clean runs, none on a round an adversary shaped (a corrupt
sender's message, a unicast, or a copy removed for some recipients).
"""

from collections import defaultdict

import pytest

from repro.adversaries import (
    CrashAdversary,
    IsolationAdversary,
    StaticEquivocationAdversary,
)
from repro.lowerbounds.dolev_reischuk import _IgnoringSetAdversary
from repro.protocols.aba import AbaNode
from repro.protocols.certificates import certificate_from_votes
from repro.protocols.early_stopping import build_quadratic_ba_early_stop
from repro.protocols.messages import StatusMsg, VoteMsg
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba
from repro.sim.engine import Simulation
from repro.sim.network import SynchronousNetwork
from repro.sim.node import RoundContext
from repro.types import AdversaryModel
from tests.test_delivery_differential import legacy_deliver


def _mixed(n):
    return [i % 2 for i in range(n)]


class _PathLog:
    """Per round: engine node-rounds, and how many of them absorbed the
    round from the shared tally; plus whether each round was plain."""

    def __init__(self):
        self.steps = defaultdict(int)
        self.shared = defaultdict(int)
        self.plain = {}

    def install(self, monkeypatch):
        process = AbaNode._process_inbox
        absorb = AbaNode._absorb_deliveries
        log = self
        fell_back = []

        def counting_process(node, ctx):
            if ctx.shared is None:  # a sandboxed corrupt node's step
                return process(node, ctx)
            fell_back.clear()
            pending = process(node, ctx)
            log.steps[ctx.round] += 1
            log.shared[ctx.round] += not fell_back
            log.plain[ctx.round] = ctx.shared.plain
            return pending

        def flagging_absorb(node, inbox):
            fell_back.append(True)
            return absorb(node, inbox)

        monkeypatch.setattr(AbaNode, "_process_inbox", counting_process)
        monkeypatch.setattr(AbaNode, "_absorb_deliveries", flagging_absorb)

    @property
    def total(self):
        return sum(self.steps.values())

    @property
    def total_shared(self):
        return sum(self.shared.values())


def _execute(case):
    instance = case["build"]()
    # Validation is shared too, so the authenticator must be asked exactly
    # as often on either path.
    authenticator = instance.services["config"].authenticator
    checks = []
    check = authenticator.check

    def counting_check(node_id, topic, auth):
        checks.append(node_id)
        return check(node_id, topic, auth)

    authenticator.check = counting_check
    simulation = Simulation(
        nodes=instance.nodes,
        corruption_budget=case["f"],
        model=case.get("model", AdversaryModel.ADAPTIVE),
        adversary=case.get("adversary", lambda instance: None)(instance),
        max_rounds=instance.max_rounds,
        seed=case["seed"],
        inputs=instance.inputs,
        signing_capabilities=instance.signing_capabilities,
        mining_capabilities=instance.mining_capabilities,
    )
    result = simulation.run()
    metrics = result.metrics
    return {
        "outputs": result.outputs,
        "decided_rounds": result.decided_rounds,
        "rounds_executed": result.rounds_executed,
        "corrupt_set": result.corrupt_set,
        "transcript": [
            (e.envelope_id, e.sender, e.recipient, repr(e.payload),
             e.round_sent, e.honest_sender)
            for e in result.transcript],
        "metrics": {name: value for name, value in vars(metrics).items()},
        "per_round_bits": metrics.per_round_multicast_bits(),
        "check_calls": len(checks),
        "rng": {node: rng.getstate()
                for node, rng in sorted(simulation._node_rngs.items())},
    }


def _case(build, n, f, seed, **extra):
    return dict(build=lambda: build(n, f, _mixed(n), seed=seed), f=f,
                seed=seed, **extra)


CLEAN = {
    "quadratic-96": _case(build_quadratic_ba, 96, 47, 1),
    "quadratic-384": _case(build_quadratic_ba, 384, 50, 1),
    "quadratic-early-stop-96": _case(build_quadratic_ba_early_stop, 96, 47, 3),
    "quadratic-early-stop-384-unanimous": dict(
        build=lambda: build_quadratic_ba_early_stop(384, 50, [1] * 384,
                                                    seed=3),
        f=50, seed=3),
    "subquadratic-96": _case(build_subquadratic_ba, 96, 30, 1),
    "subquadratic-384": _case(build_subquadratic_ba, 384, 100, 2),
}

#: name -> (case, node-rounds, node-rounds on the shared path).  Corrupt
#: senders (equivocation, the sandboxed nodes of the isolation and
#: Dolev-Reischuk adversaries) and partial removal shape the rounds they
#: touch; a crash only silences nodes, so its rounds all stay plain.
ADVERSARIAL = {
    "quadratic-equivocation": (_case(
        build_quadratic_ba, 96, 47, 4,
        adversary=lambda instance: StaticEquivocationAdversary(instance)),
        49 * 15, 49 * 9),
    "subquadratic-equivocation": (_case(
        build_subquadratic_ba, 96, 30, 4,
        adversary=lambda instance: StaticEquivocationAdversary(instance)),
        66 * 43, 66 * 34),
    "quadratic-crash": (_case(
        build_quadratic_ba, 96, 47, 5,
        adversary=lambda instance: CrashAdversary()),
        49 * 11, 49 * 11),
    "quadratic-after-the-fact-removal": (_case(
        build_quadratic_ba, 96, 47, 6,
        model=AdversaryModel.STRONGLY_ADAPTIVE,
        adversary=lambda instance: IsolationAdversary(victim=5)),
        96 + 49 * 6, 96 + 49),
    "subquadratic-after-the-fact-removal": (_case(
        build_subquadratic_ba, 96, 30, 6,
        model=AdversaryModel.STRONGLY_ADAPTIVE,
        adversary=lambda instance: IsolationAdversary(victim=5)),
        96 + 66 * 6, 96 + 66 * 2),
    "quadratic-dolev-reischuk-sandbox": (_case(
        build_quadratic_ba, 96, 20, 7,
        adversary=lambda instance: _IgnoringSetAdversary(
            list(range(1, 11)), ignore_first=10)),
        86 * 7, 86 * 3),
}


def _both_paths(monkeypatch, case):
    log = _PathLog()
    with monkeypatch.context() as patch:
        log.install(patch)
        shared = _execute(case)
    with monkeypatch.context() as patch:
        patch.setattr(SynchronousNetwork, "deliver",
                      lambda self: legacy_deliver(self))
        reference = _execute(case)
    return shared, reference, log


@pytest.mark.parametrize("name", sorted(CLEAN))
def test_clean_run_is_identical_and_fully_shared(monkeypatch, name):
    shared, reference, log = _both_paths(monkeypatch, CLEAN[name])
    assert shared == reference
    assert log.total > 0
    # Every node-round of a clean run absorbs from the shared tally.
    assert log.total_shared == log.total
    assert all(log.plain.values())


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversary_run_is_identical_and_never_shares_shaped_rounds(
        monkeypatch, name):
    case, node_rounds, shared_rounds = ADVERSARIAL[name]
    shared, reference, log = _both_paths(monkeypatch, case)
    assert shared == reference
    assert (log.total, log.total_shared) == (node_rounds, shared_rounds)
    # The path is chosen per round by the inbox's shape alone: a plain
    # round is shared by every node stepping in it, a shaped one by none.
    for round_index, plain in log.plain.items():
        expected = log.steps[round_index] if plain else 0
        assert log.shared[round_index] == expected, round_index


# -- node-state fallbacks -------------------------------------------------------


def _iteration_one_votes(n=7, f=3):
    """Every node of a fresh quadratic instance casts its iteration-1
    vote; returns the nodes and the delivered (plain) commit round."""
    instance = build_quadratic_ba(n, f, _mixed(n), seed=0)
    network = SynchronousNetwork(n)
    for node in instance.nodes:
        ctx = RoundContext(node.node_id, 0, [], None)
        node.on_round(ctx)
        for recipient, payload in ctx.staged:
            network.stage(node.node_id, recipient, payload, 0,
                          honest_sender=True)
    return instance, network.deliver()


def _state(node):
    return (dict(node.best_cert),
            {key: dict(group) for key, group in node.votes_seen.items()},
            {key: dict(group) for key, group in node.commits_seen.items()},
            {key: list(group) for key, group in node.proposals.items()})


class TestNodeStateFallbacks:
    def test_plain_round_matches_the_per_delivery_loop(self):
        instance, inboxes = _iteration_one_votes()
        reference, _ = _iteration_one_votes()
        assert inboxes.plain
        for node, twin in zip(instance.nodes, reference.nodes):
            assert node._apply_tally(node._round_tally(inboxes))
            twin._absorb_deliveries(inboxes[twin.node_id])
            assert _state(node) == _state(twin)

    def test_foreign_entry_in_a_group_falls_back_untouched(self):
        instance, inboxes = _iteration_one_votes()
        node = instance.nodes[0]
        own_group = node.votes_seen[(1, node.last_vote)]
        own_group[3] = object()  # a vote heard outside this round
        before = _state(node)
        assert not node._apply_tally(node._round_tally(inboxes))
        assert _state(node) == before

    def test_own_entry_other_than_the_multicast_falls_back(self):
        instance, inboxes = _iteration_one_votes()
        node = instance.nodes[0]
        node.votes_seen[(1, node.last_vote)][0] = object()
        assert not node._apply_tally(node._round_tally(inboxes))

    def test_own_certificate_not_yet_absorbed_falls_back(self):
        instance, _ = _iteration_one_votes()
        config = instance.services["config"]
        node = instance.nodes[0]
        # Node 0 multicasts a Status carrying an iteration-1 certificate
        # its own state no longer ranks (the per-delivery loop would
        # never absorb it, since a node does not hear itself).
        voters = range(config.threshold)
        certificate = certificate_from_votes(1, 1, {
            voter: config.authenticator.attempt(voter, ("Vote", 1, 1))
            for voter in voters}, config.threshold)
        network = SynchronousNetwork(len(instance.nodes))
        auth = config.authenticator.attempt(0, ("Status", 2, 1))
        network.stage(0, None, StatusMsg(iteration=2, bit=1,
                                         certificate=certificate, sender=0,
                                         auth=auth), 2, honest_sender=True)
        inboxes = network.deliver()
        tally = node._round_tally(inboxes)
        assert tally is not None
        assert not node._apply_tally(tally)
        # Every other node absorbs it.
        other = instance.nodes[1]
        assert other._apply_tally(tally)
        assert other.best_cert[1] is certificate

    def test_mixed_kinds_build_no_tally(self):
        instance, _ = _iteration_one_votes()
        authenticator = instance.services["config"].authenticator
        network = SynchronousNetwork(len(instance.nodes))
        network.stage(1, None, StatusMsg(
            iteration=2, bit=None, certificate=None, sender=1,
            auth=authenticator.attempt(1, ("Status", 2, None))),
            2, honest_sender=True)
        network.stage(2, None, VoteMsg(
            iteration=1, bit=1, sender=2, proposal=None,
            auth=authenticator.attempt(2, ("Vote", 1, 1))),
            2, honest_sender=True)
        inboxes = network.deliver()
        assert inboxes.plain
        assert instance.nodes[0]._round_tally(inboxes) is None
