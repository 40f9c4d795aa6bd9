"""Perf smoke guard: verification work must stay bounded as n grows.

Counts ``authenticator.check`` invocations — not wall time, so CI
hardware variance cannot flake it.  Before the content-addressed
verification caches, the n = 96 quadratic-BA run below performed ~921k
checks; with them it performs a few hundred.  The budget is deliberately
generous (50 per node) so legitimate protocol changes don't trip it, while
any regression to per-copy re-verification (which is Θ(n² · threshold))
overshoots it by orders of magnitude.
"""

from repro.harness.profiling import profile_check_calls
from repro.harness.runner import run_instance
from repro.protocols.aba import AbaNode
from repro.protocols.quadratic_ba import build_quadratic_ba


def test_quadratic_ba_n96_check_call_budget():
    n, f = 96, 47
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    profile = profile_check_calls(instance, f, seed=1)

    # The run must still be a correct agreement...
    assert profile.result.consistent()
    assert profile.result.all_decided()
    # ...within the call budget (measured: 385 at n=96, seed 1).
    budget = 50 * n
    assert profile.check_calls <= budget, (
        f"authenticator.check called {profile.check_calls} times, "
        f"budget {budget}: verification memoization has regressed")


def test_quadratic_ba_n96_absorbs_each_round_once(monkeypatch):
    """A clean run absorbs every round from its shared tally: the tally
    is built once per round and the per-recipient handler loop never
    runs.  Counts, not wall time, so a regression back to per-recipient
    absorption (n handler passes over the same n multicasts per round)
    fails here by name."""
    calls = {"_build_tally": 0, "_apply_tally": 0, "_absorb_deliveries": 0}
    for name in calls:
        original = getattr(AbaNode, name)

        def counted(node, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(node, *args)

        monkeypatch.setattr(AbaNode, name, counted)
    n, f = 96, 47
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    result = run_instance(instance, f, seed=1)

    assert result.consistent() and result.all_decided()
    assert calls["_absorb_deliveries"] == 0
    assert calls["_build_tally"] == result.rounds_executed
    assert calls["_apply_tally"] == n * result.rounds_executed
