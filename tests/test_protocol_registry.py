"""The two-field protocol registry: builder plus observables.

- **Observables**: each family's per-execution values reach artifact
  rows as ``mean_<name>`` columns and ``repro run`` as one line each,
  driven by the registry entry alone — pinned against the extractor on
  an independent execution, at zero trials, for entries without any,
  and for a throwaway entry registered at test time.
- **Capabilities**: what the binding layer forwards to a builder
  (``sender_input``, ``params``, ``coin_cache``, ``mode``,
  ``conditions``) is read off the builder signature; the derivation is
  pinned for the entries that carried explicit flags before.
"""

import pytest

from repro.cli import main
from repro.harness.runner import builder_accepts, run_instance
from repro.harness.scenarios import (
    INPUTS,
    PROTOCOLS,
    ProtocolEntry,
    ScenarioSpec,
    SweepSpec,
    run_sweep,
)
from repro.protocols import build_quadratic_ba
from tests.test_registry_properties import _build_config

#: Every row carries these mean columns, whatever the protocol.
BASE_MEANS = {"mean_rounds", "mean_multicasts", "mean_multicast_bits",
              "mean_corruptions"}

OBSERVING = tuple(sorted(key for key, entry in PROTOCOLS.items()
                         if entry.observables))
SILENT = tuple(sorted(key for key, entry in PROTOCOLS.items()
                      if not entry.observables))


def _one_cell_row(key, seeds):
    n, f, kwargs = _build_config(key)
    kwargs.pop("inputs", None)  # the spec's input distribution supplies it
    spec = ScenarioSpec(name=key, protocol=key,
                        fixed={"n": n, "f": f, **kwargs},
                        inputs="mixed", seeds=seeds)
    result = run_sweep(SweepSpec(name="registry-observables",
                                 scenarios=(spec,)))
    (row,) = result.rows()
    return row


def _means(row):
    return {key for key in row if key.startswith("mean_")}


class TestObservables:
    def test_every_family_declares_its_payoff(self):
        """Drop-out guard: the early-stop, leader and adaptive families
        keep reporting through the registry."""
        assert {"quadratic-early-stop", "phase-king-early-stop",
                "leader-ba", "leader-chain", "adaptive-ba"} <= set(OBSERVING)

    @pytest.mark.parametrize("key", OBSERVING)
    def test_one_seed_row_equals_the_extractor(self, key):
        seed = 5
        entry = PROTOCOLS[key]
        row = _one_cell_row(key, seeds=(seed,))
        n, f, kwargs = _build_config(key)
        assert kwargs["inputs"] == INPUTS["mixed"](n)
        if builder_accepts(entry.builder, "conditions"):
            kwargs["conditions"] = None
        execution = run_instance(
            entry.builder(n=n, f=f, seed=seed, **kwargs), f, seed=seed)
        for name, extract in entry.observables.items():
            assert row[f"mean_{name}"] == extract(execution), (key, name)
        assert _means(row) == BASE_MEANS | {
            f"mean_{name}" for name in entry.observables}

    @pytest.mark.parametrize("key", OBSERVING)
    def test_zero_seed_row_still_emits_every_column(self, key):
        row = _one_cell_row(key, seeds=())
        assert row["trials"] == 0
        for name in PROTOCOLS[key].observables:
            assert row[f"mean_{name}"] == 0.0, (key, name)

    @pytest.mark.parametrize("key", SILENT)
    def test_entries_without_observables_gain_no_columns(self, key):
        assert _means(_one_cell_row(key, seeds=(5,))) == BASE_MEANS

    def test_throwaway_entry_reaches_rows_and_run_output(
            self, monkeypatch, capsys):
        """A new family needs no harness edit: registering the entry is
        enough for its sweep column and its ``repro run`` line."""
        monkeypatch.setitem(PROTOCOLS, "throwaway", ProtocolEntry(
            build_quadratic_ba,
            {"decided_nodes": lambda result: len(result.outputs)}))
        spec = ScenarioSpec(name="throwaway", protocol="throwaway",
                            fixed={"n": 7, "f": 2}, seeds=(0, 1))
        (row,) = run_sweep(SweepSpec(name="throwaway",
                                     scenarios=(spec,))).rows()
        assert row["mean_decided_nodes"] == 7.0
        assert main(["run", "--protocol", "throwaway", "-n", "7",
                     "-f", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "decided_nodes:       7" in lines


#: The capabilities the registry used to declare as flags, as the
#: builder signatures now report them (entries absent here take none).
CAPABILITIES = {
    "subquadratic": {"params", "coin_cache", "mode"},
    "phase-king-subquadratic": {"params", "coin_cache", "mode"},
    "round-eligibility": {"params", "mode"},
    "quadratic-early-stop": {"conditions"},
    "phase-king-early-stop": {"conditions"},
    "leader-ba": {"conditions"},
    "leader-chain": {"conditions"},
    "adaptive-ba": {"conditions"},
    "dolev-strong": {"sender_input"},
    "naive-broadcast": {"sender_input"},
    "broadcast-from-ba": {"sender_input"},
    "quadratic": set(),
    "phase-king": set(),
    "static-committee": set(),
}


class TestSignatureCapabilities:
    @pytest.mark.parametrize("key", sorted(CAPABILITIES))
    def test_signature_matches_the_former_flags(self, key):
        builder = PROTOCOLS[key].builder
        derived = {name for name in ("sender_input", "params", "coin_cache",
                                     "mode", "conditions")
                   if builder_accepts(builder, name)}
        assert derived == CAPABILITIES[key]

    def test_wrapped_builders_keep_their_capabilities(self):
        """Instrumentation that wraps a builder with ``__wrapped__`` set
        (as the per-layer tracer does) must not hide its keywords."""
        builder = PROTOCOLS["leader-ba"].builder

        def wrapper(*args, **kwargs):
            return builder(*args, **kwargs)

        assert not builder_accepts(wrapper, "conditions")
        wrapper.__wrapped__ = builder
        assert builder_accepts(wrapper, "conditions")
