"""Tests for the CLI and the trace-analysis helpers."""

import pytest

from repro.cli import main
from repro.harness import run_instance
from repro.protocols import build_quadratic_ba, build_subquadratic_ba
from repro.sim.trace import (
    committee_per_topic,
    peak_round_multicasts,
    summarize_transcript,
)
from repro.types import SecurityParameters


class TestTraceAnalysis:
    def _result(self):
        n, f = 120, 30
        params = SecurityParameters(lam=20, epsilon=0.1)
        instance = build_subquadratic_ba(n, f, [1] * n, seed=0, params=params)
        return run_instance(instance, f, seed=0), n

    def test_speaker_count_is_sublinear(self):
        result, n = self._result()
        summary = summarize_transcript(result.transcript)
        assert 0 < summary.speaker_count < n

    def test_speaker_count_matches_metrics_loosely(self):
        result, _n = self._result()
        summary = summarize_transcript(result.transcript)
        assert (summary.speaker_count
                <= result.metrics.multicast_complexity_messages)

    def test_kinds_are_protocol_messages(self):
        result, _n = self._result()
        summary = summarize_transcript(result.transcript)
        assert "VoteMsg" in summary.messages_by_kind
        assert "CommitMsg" in summary.messages_by_kind

    def test_committee_per_topic_reads_tickets(self):
        result, _n = self._result()
        committees = committee_per_topic(result.transcript)
        vote_topics = [t for t in committees if t[0] == "Vote"]
        assert vote_topics
        for topic in vote_topics:
            assert committees[topic]

    def test_peak_round(self):
        result, _n = self._result()
        summary = summarize_transcript(result.transcript)
        assert peak_round_multicasts(summary) >= 1
        assert peak_round_multicasts(summarize_transcript([])) == 0

    def test_quadratic_speakers_are_everyone(self):
        n, f = 11, 5
        instance = build_quadratic_ba(n, f, [1] * n, seed=0)
        result = run_instance(instance, f, seed=0)
        summary = summarize_transcript(result.transcript)
        assert summary.speaker_count == n


class TestCli:
    def test_run_subquadratic(self, capsys):
        code = main(["run", "--protocol", "subquadratic", "-n", "100",
                     "-f", "25", "--adversary", "crash", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent:          True" in out
        assert "distinct speakers:" in out

    def test_run_quadratic_equivocate(self, capsys):
        code = main(["run", "--protocol", "quadratic", "-n", "9", "-f", "4",
                     "--adversary", "equivocate", "--input", "ones"])
        assert code == 0
        assert "quadratic-ba" in capsys.readouterr().out

    def test_experiment_command(self, capsys):
        code = main(["experiment", "E2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Dolev–Reischuk" in out

    def test_params_command(self, capsys):
        code = main(["params", "-n", "1000", "--corrupt", "0.25",
                     "--target", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chosen λ:" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "E99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRegistryParity:
    """The CLI surfaces are regenerated from the live registries — new
    sweeps/protocols can never be silently missing from them again."""

    def test_epilog_names_every_sweep_and_runnable_protocol(self):
        from repro.cli import _epilog, _runnable
        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.sweep_library import SWEEPS

        epilog = _epilog()
        for name in SWEEPS:
            assert name in epilog, f"sweep {name} missing from epilog"
        for name in _runnable():
            assert name in epilog, f"protocol {name} missing from epilog"
        last = max(int(name[1:]) for name in ALL_EXPERIMENTS)
        assert f"E1..E{last}" in epilog
        assert "report" in epilog

    def test_sweep_list_matches_registry_exactly(self, capsys):
        from repro.harness.sweep_library import SWEEPS

        assert main(["sweep", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines] == sorted(SWEEPS)

    def test_run_protocols_derived_from_scenario_registry(self):
        # Every registry builder taking per-node inputs is runnable; the
        # sender-style broadcast builders stay sweep-only.
        from repro.cli import _runnable
        from repro.harness.scenarios import PROTOCOLS as REGISTRY

        assert set(REGISTRY) - set(_runnable()) == {
            "dolev-strong", "naive-broadcast", "broadcast-from-ba"}
        for key, entry in _runnable().items():
            assert entry is REGISTRY[key]

    def test_mode_flag_reaches_every_mode_taking_protocol(self, monkeypatch):
        # --mode must never be silently dropped: the CLI forwards it to
        # exactly the builders whose signature takes ``mode`` (including
        # round-eligibility, which takes mode but shares no lottery).
        import dataclasses

        from repro.cli import _runnable
        from repro.harness.scenarios import PROTOCOLS as REGISTRY

        class Built(Exception):
            pass

        forwarded = {}
        for key, entry in _runnable().items():
            def record(*args, _key=key, **kwargs):
                forwarded[_key] = kwargs
                raise Built
            record.__wrapped__ = entry.builder  # keeps the signature
            monkeypatch.setitem(
                REGISTRY, key, dataclasses.replace(entry, builder=record))
            with pytest.raises(Built):
                main(["run", "--protocol", key, "-n", "7", "--mode", "vrf"])
        assert {key for key, kwargs in forwarded.items()
                if kwargs.get("mode") == "vrf"} == {
            "subquadratic", "phase-king-subquadratic", "round-eligibility"}

    def test_run_round_eligibility_vrf_mode(self, capsys):
        code = main(["run", "--protocol", "round-eligibility", "-n", "13",
                     "-f", "2", "--lam", "8", "--mode", "vrf",
                     "--seed", "1"])
        assert code == 0
        assert "round-eligibility" in capsys.readouterr().out


class TestCliStoreAndReport:
    def _tiny(self):
        from repro.harness.scenarios import ScenarioSpec, SweepSpec

        return SweepSpec(
            name="tinycli",
            description="CLI store-flow test sweep",
            scenarios=(ScenarioSpec(
                name="subq", protocol="subquadratic",
                fixed={"n": 24, "f_fraction": 0.25, "lam": 10},
                inputs="mixed", seeds=(0, 1)),))

    def test_sweep_store_then_warm_replay_then_report(
            self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "tinycli", "--store", store_dir]) == 0
        cold = capsys.readouterr().out
        assert "store: 0 replayed, 1 computed, 0 skipped" in cold
        assert main(["sweep", "tinycli", "--store", store_dir]) == 0
        warm = capsys.readouterr().out
        assert "store: 1 replayed, 0 computed, 0 skipped" in warm
        assert main(["report", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "book.md" in out and "book.json" in out
        assert "1 sweep(s), 1 cell(s)" in out
        assert "tinycli" in (tmp_path / "store" / "book.md").read_text()

    def test_sweep_shard_flag(self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "tinycli", "--store", store_dir,
                     "--shard", "2/2"]) == 0
        out = capsys.readouterr().out
        assert "[shard 2/2]" in out

    def test_partial_shard_artifacts_warn(self, capsys, tmp_path,
                                          monkeypatch):
        from repro.harness.scenarios import ScenarioSpec, SweepSpec
        from repro.harness.sweep_library import SWEEPS

        two_cells = SweepSpec(
            name="tinycli",
            scenarios=(ScenarioSpec(
                name="subq", protocol="subquadratic",
                grid={"n": (24, 32)},
                fixed={"f_fraction": 0.25, "lam": 10},
                inputs="mixed", seeds=(0,)),))
        monkeypatch.setitem(SWEEPS, "tinycli", two_cells)
        assert main(["sweep", "tinycli",
                     "--store", str(tmp_path / "store"),
                     "--shard", "1/2",
                     "--out-dir", str(tmp_path / "artifacts")]) == 0
        captured = capsys.readouterr()
        assert "artifacts are PARTIAL" in captured.err
        assert "1 cell(s) skipped by shard 1/2" in captured.err

    def test_bad_shard_exits_2(self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        assert main(["sweep", "tinycli", "--store",
                     str(tmp_path / "store"), "--shard", "9/4"]) == 2
        assert "shard" in capsys.readouterr().err

    def test_shard_without_store_is_refused(self, capsys, monkeypatch):
        # A shard alone would write partial artifacts that look
        # complete; only a shared store makes shards union.
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        assert main(["sweep", "tinycli", "--shard", "1/2"]) == 2
        assert "--shard requires --store" in capsys.readouterr().err

    def test_report_without_store_exits_2(self, capsys, tmp_path):
        assert main(["report", "--store", str(tmp_path / "absent")]) == 2
        assert "no experiment store" in capsys.readouterr().err

    def test_report_with_bad_baseline_exits_2(
            self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "tinycli", "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["report", "--store", store_dir,
                     "--baseline", str(tmp_path / "missing.json")]) == 2
        assert "report:" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        assert main(["report", "--store", store_dir,
                     "--baseline", str(bad)]) == 2
        assert "report:" in capsys.readouterr().err

    def test_resume_uses_default_store_dir(
            self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "tinycli", "--resume"]) == 0
        capsys.readouterr()
        assert (tmp_path / ".repro-store" / "sweeps"
                / "tinycli.json").exists()
        assert main(["sweep", "tinycli", "--resume"]) == 0
        assert "1 replayed, 0 computed" in capsys.readouterr().out
