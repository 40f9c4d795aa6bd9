"""Registry-wide batteries: every ``PROTOCOLS`` entry, no hand-kept list.

Two suites parametrized directly over the scenario registry, so
``adaptive-ba`` and any future family get coverage the moment they are
registered — and a drop-out guard asserting one collected case per
registry key, so a silently filtered entry fails loudly:

- **Properties**: agreement, validity, and termination-within-budget
  under a seeded benign configuration and under a seeded crash
  adversary (the mildest Byzantine behaviour every registry entry is
  expected to survive at its supported resilience).
- **Scheduler conformance**: one seeded conditioned execution per entry
  on the event engine and on the lock-step test reference, asserting
  byte-identical results/stats — previously only the leader family and
  the differential five had this.

Build configurations are derived from the builder signature (input
style, ``params``, ``conditions``, a required ``ba_builder``) — not
from per-protocol knowledge — so registering a protocol is all it takes
to be covered.
"""

import dataclasses
import inspect

import pytest

from repro.adversaries import CrashAdversary
from repro.harness.runner import builder_accepts, run_instance
from repro.harness.scenarios import PROTOCOLS
from repro.sim.conditions import NETWORKS
from repro.types import SecurityParameters
from tests.engines import lockstep

#: The broadcast sender every sender-style builder defaults to.
SENDER = 0

REGISTRY_KEYS = tuple(sorted(PROTOCOLS))


def _build_config(key):
    """Derive ``(n, f, builder_kwargs)`` from the registry entry alone.

    Committee-sampling protocols (builders taking ``params``) need a larger
    system for their Chernoff-bounded committees to be honest-majority
    at the test seeds; everything else runs at the smallest
    ``n > 3f`` system with headroom.
    """
    entry = PROTOCOLS[key]
    kwargs = {}
    if builder_accepts(entry.builder, "params"):
        n, f = 32, 8
        kwargs["params"] = SecurityParameters(lam=12)
    else:
        n, f = 10, 3
    if builder_accepts(entry.builder, "sender_input"):
        kwargs["sender_input"] = 1
    else:
        kwargs["inputs"] = [i % 2 for i in range(n)]
    # Compiled protocols with a required inner-builder parameter get the
    # quadratic BA — read off the signature, not a per-key table.
    signature = inspect.signature(entry.builder)
    ba_builder = signature.parameters.get("ba_builder")
    if ba_builder is not None and ba_builder.default is inspect.Parameter.empty:
        kwargs["ba_builder"] = PROTOCOLS["quadratic"].builder
    return n, f, kwargs


def _execute(key, seed, adversary=None, conditions=None):
    entry = PROTOCOLS[key]
    n, f, kwargs = _build_config(key)
    if conditions is not None and builder_accepts(entry.builder,
                                                  "conditions"):
        kwargs["conditions"] = conditions
    instance = entry.builder(n=n, f=f, seed=seed, **kwargs)
    return run_instance(instance, f, adversary, seed=seed,
                        conditions=conditions)


class TestRegistryProperties:
    def test_one_case_per_registry_key(self):
        """Drop-out guard: the parametrization source is exactly the
        registry — a filtered or stale case list fails here, not by
        silently skipping a protocol."""
        assert sorted(REGISTRY_KEYS) == sorted(PROTOCOLS)
        assert len(REGISTRY_KEYS) == len(PROTOCOLS)

    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_benign_agreement_validity_termination(self, key):
        entry = PROTOCOLS[key]
        result = _execute(key, seed=5)
        assert result.all_decided(), key
        assert result.consistent(), key
        assert result.agreement_valid(), key
        assert result.rounds_executed <= result.rounds_budget, key
        if builder_accepts(entry.builder, "sender_input"):
            # Honest-sender validity: everyone outputs the broadcast.
            assert result.broadcast_valid(SENDER, 1), key

    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_crash_adversary_agreement_validity_termination(self, key):
        result = _execute(key, seed=5, adversary=CrashAdversary())
        assert result.all_decided(), key
        assert result.consistent(), key
        assert result.agreement_valid(), key
        assert result.rounds_executed <= result.rounds_budget, key


class TestRegistrySchedulerConformance:
    def test_one_case_per_registry_key(self):
        assert sorted(REGISTRY_KEYS) == sorted(PROTOCOLS)

    @staticmethod
    def _snapshot(result):
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
                        result.metrics.max_message_bits,
                        dict(result.metrics.per_round_honest_multicasts)),
            "network_stats": dataclasses.asdict(result.network_stats),
        }

    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_event_engine_matches_lockstep(self, key):
        """One seeded conditioned execution per registry entry, replayed
        on the event engine and on the lock-step reference:
        byte-identical observable results."""
        conditions = NETWORKS["lan"]
        event = _execute(key, seed=3, conditions=conditions)
        with lockstep():
            reference = _execute(key, seed=3, conditions=conditions)
        assert self._snapshot(event) == self._snapshot(reference), key
        # Real conditioned executions, not fast-path ones.
        assert event.network_stats is not None
        assert event.consistent(), key
