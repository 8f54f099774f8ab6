"""Tests for the perf-regression gate (repro.bench.regress)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import regress
from repro.bench.regress import Issue, compare


def make_doc(**overrides) -> dict:
    doc = {
        "schema": "repro-bench/1",
        "label": "test",
        "created": "2026-01-01T00:00:00+0000",
        "profile": "quick",
        "provenance": {"python": "3.11", "numpy": "2.0", "platform": "test"},
        "scenarios": {
            "scen": {
                "metrics": {"time_s": 1.0, "bw": 2.0e9},
                "phases": {"dev_build": {"seconds": 0.01, "count": 4}},
                "wall_seconds": 1.0,
            }
        },
        "harness": {"wall_seconds": 1.0},
    }
    doc.update(overrides)
    return doc


def failures(issues: list[Issue]) -> list[str]:
    return [i.metric for i in issues if i.is_failure]


class TestCompare:
    def test_identical_docs_pass(self):
        base = make_doc()
        assert failures(compare(copy.deepcopy(base), base)) == []

    def test_perturbed_metric_fails_and_is_named(self):
        base = make_doc()
        cur = copy.deepcopy(base)
        cur["scenarios"]["scen"]["metrics"]["time_s"] *= 1.2  # 20% drift
        issues = compare(cur, base)
        assert "scen.time_s" in failures(issues)
        msg = next(i for i in issues if i.metric == "scen.time_s").message
        assert "20.0%" in msg

    def test_within_tolerance_passes(self):
        base = make_doc()
        cur = copy.deepcopy(base)
        cur["scenarios"]["scen"]["metrics"]["time_s"] *= 1.01  # 1% < 5%
        assert failures(compare(cur, base)) == []

    def test_both_directions_gated(self):
        base = make_doc()
        cur = copy.deepcopy(base)
        cur["scenarios"]["scen"]["metrics"]["time_s"] *= 0.8  # "speedup"
        assert "scen.time_s" in failures(compare(cur, base))

    def test_per_metric_tolerance_override(self):
        base = make_doc()
        base["tolerances"] = {"scen.time_s": 0.5}
        cur = copy.deepcopy(base)
        cur["scenarios"]["scen"]["metrics"]["time_s"] *= 1.2
        assert failures(compare(cur, base)) == []

    def test_exact_zero_gate(self):
        """A zero baseline with tolerance 0 (``index_map_bytes``) passes
        only at 0, and the failure reads as leaving 0."""
        base = make_doc()
        base["scenarios"]["scen"]["metrics"]["map_bytes"] = 0.0
        base["tolerances"] = {"scen.map_bytes": 0.0}
        cur = copy.deepcopy(base)
        assert failures(compare(cur, base)) == []
        cur["scenarios"]["scen"]["metrics"]["map_bytes"] = 8.0
        issues = compare(cur, base)
        assert failures(issues) == ["scen.map_bytes"]
        msg = next(i for i in issues if i.metric == "scen.map_bytes").message
        assert "moved off 0 (8 vs baseline 0" in msg

    def test_missing_metric_fails(self):
        base = make_doc()
        cur = copy.deepcopy(base)
        del cur["scenarios"]["scen"]["metrics"]["bw"]
        assert "scen.bw" in failures(compare(cur, base))

    def test_missing_scenario_fails(self):
        base = make_doc()
        cur = copy.deepcopy(base)
        cur["scenarios"] = {}
        assert "scen" in failures(compare(cur, base))

    def test_extra_metric_and_scenario_warn_only(self):
        base = make_doc()
        cur = copy.deepcopy(base)
        cur["scenarios"]["scen"]["metrics"]["new_metric"] = 1.0
        cur["scenarios"]["new_scen"] = {
            "metrics": {}, "phases": {}, "wall_seconds": 0.0
        }
        issues = compare(cur, base)
        assert failures(issues) == []
        warns = [i.metric for i in issues if not i.is_failure]
        assert "scen.new_metric" in warns and "new_scen" in warns

    def test_profile_mismatch_fails(self):
        base = make_doc()
        cur = make_doc(profile="full")
        assert "profile" in failures(compare(cur, base))

    def test_schema_mismatch_fails(self):
        base = make_doc()
        cur = make_doc(schema="something-else/9")
        assert "schema" in failures(compare(cur, base))

    def test_wall_clock_is_regression_only(self):
        base = make_doc()
        fast = copy.deepcopy(base)
        fast["scenarios"]["scen"]["wall_seconds"] = 0.01  # improvement: fine
        assert failures(compare(fast, base)) == []
        slow = copy.deepcopy(base)
        slow["scenarios"]["scen"]["wall_seconds"] = (
            base["scenarios"]["scen"]["wall_seconds"] * regress.WALL_FACTOR
            + regress.WALL_FLOOR_S + 1.0
        )
        assert "scen.wall_seconds" in failures(compare(slow, base))

    def test_phase_count_must_match_exactly(self):
        base = make_doc()
        cur = copy.deepcopy(base)
        cur["scenarios"]["scen"]["phases"]["dev_build"]["count"] = 5
        assert "scen.phases.dev_build.count" in failures(compare(cur, base))


class TestSubsetGate:
    def test_only_restricts_to_named_scenarios(self):
        base = make_doc()
        base["scenarios"]["other"] = {
            "metrics": {"x": 1.0}, "phases": {}, "wall_seconds": 0.1
        }
        cur = make_doc()  # ran only "scen"; "other" missing is fine
        assert failures(compare(cur, base, only=["scen"])) == []
        # without the subset, the un-run scenario fails the gate
        assert "other" in failures(compare(cur, base))

    def test_only_still_gates_the_named_scenario(self):
        base = make_doc()
        cur = copy.deepcopy(base)
        cur["scenarios"]["scen"]["metrics"]["time_s"] *= 1.2
        assert "scen.time_s" in failures(compare(cur, base, only=["scen"]))

    def test_empty_intersection_fails(self):
        # a subset gate that would check nothing must not pass
        issues = compare(make_doc(), make_doc(), only=["not_in_baseline"])
        assert "scenarios" in failures(issues)


class TestLoadBaseline:
    def test_valid_baseline_loads(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(make_doc()))
        assert regress.load_baseline(str(path))["schema"] == "repro-bench/1"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            regress.load_baseline(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[1, 2]", '{"schema": "other/1"}', '{"scenarios": {}}'],
        ids=["invalid-json", "not-object", "wrong-schema", "no-schema"],
    )
    def test_malformed_baseline_raises_valueerror(self, tmp_path, text):
        path = tmp_path / "baseline.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            regress.load_baseline(str(path))


class TestRunCheck:
    def test_exit_codes(self, tmp_path, capsys):
        base = make_doc()
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(base))
        assert regress.run_check(copy.deepcopy(base), str(path)) == 0
        bad = copy.deepcopy(base)
        bad["scenarios"]["scen"]["metrics"]["time_s"] *= 1.2
        assert regress.run_check(bad, str(path)) == 1
        out = capsys.readouterr().out
        assert "scen.time_s" in out  # the offending metric is named

    def test_missing_baseline_is_hard_failure(self, tmp_path, capsys):
        rc = regress.run_check(make_doc(), str(tmp_path / "nope.json"))
        assert rc == 1
        assert "[FAIL] baseline:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text", ["{broken", '{"schema": "wrong/0"}'],
        ids=["invalid-json", "wrong-schema"],
    )
    def test_malformed_baseline_is_hard_failure(self, tmp_path, capsys, text):
        # the regression this guards: a gate that cannot read its baseline
        # used to warn and pass — it must exit nonzero
        path = tmp_path / "baseline.json"
        path.write_text(text)
        assert regress.run_check(make_doc(), str(path)) == 1
        assert "[FAIL] baseline:" in capsys.readouterr().out

    def test_update_baseline_refuses_malformed_previous(self, tmp_path, capsys,
                                                        monkeypatch):
        # --update-baseline must not silently overwrite a baseline it
        # cannot parse (a fresh/missing one is fine)
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "baseline.json").write_text("{broken")
        rc = main([
            "--suite", "--quick", "--scenario", "world_stats",
            "--json", str(tmp_path / "BENCH_t.json"), "--label", "t",
            "--update-baseline",
        ])
        assert rc == 1
        assert "malformed baseline" in capsys.readouterr().err
        assert (tmp_path / "benchmarks" / "baseline.json").read_text() == "{broken"


class TestEndToEnd:
    """The full loop: suite run -> baseline -> pass, perturb -> fail."""

    def test_fresh_identical_run_passes_perturbed_fails(self, tmp_path, capsys):
        from repro.bench.__main__ import main
        from repro.bench.profiles import QUICK
        from repro.bench.suite import run_suite, write_suite_json

        doc = run_suite(
            QUICK, names=["world_stats"], label="t0", verbose=False
        )
        baseline_path = tmp_path / "baseline.json"
        write_suite_json(doc, str(baseline_path))

        # a fresh identical run must pass the gate through the real CLI
        out_json = tmp_path / "BENCH_t1.json"
        rc = main([
            "--suite", "--quick", "--scenario", "world_stats",
            "--json", str(out_json), "--label", "t1",
            "--check", str(baseline_path),
        ])
        assert rc == 0
        written = json.loads(out_json.read_text())
        assert written["schema"] == "repro-bench/1"
        assert written["profile"] == "quick"
        assert written["scenarios"]["world_stats"]["metrics"]

        # perturb one simulated metric by 20%: gate must fail, naming it
        perturbed = json.loads(baseline_path.read_text())
        perturbed["scenarios"]["world_stats"]["metrics"]["T_pingpong_s"] *= 1.2
        baseline_path.write_text(json.dumps(perturbed))
        capsys.readouterr()  # drop earlier output
        rc = main([
            "--suite", "--quick", "--scenario", "world_stats",
            "--json", str(tmp_path / "BENCH_t2.json"), "--label", "t2",
            "--check", str(baseline_path),
        ])
        assert rc == 1
        assert "world_stats.T_pingpong_s" in capsys.readouterr().out
