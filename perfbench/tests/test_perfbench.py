"""Tests of the repository benchmark: oracle, tracer, workloads, CLI, files.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
Workload tests shrink the workloads through their parameter tables.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layertrace
import oracle
import run as bench
import workloads
from layertrace import LAYERS, LayerTrace
from measure import tail_percentile
from workloads import run_pass

from conftest import BENCH, ROOT


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a pass takes well under a second or two."""
    monkeypatch.setitem(workloads.PAPER, "n_vt", 96)
    monkeypatch.setitem(workloads.PAPER, "ld_pad", 32)
    monkeypatch.setitem(workloads.PAPER, "n_transpose", 64)
    monkeypatch.setitem(workloads.PAPER, "engine_round_trips", 2)
    monkeypatch.setitem(workloads.WIDE, "ranks", 128)
    monkeypatch.setitem(workloads.WIDE, "rounds", 2)
    monkeypatch.setitem(workloads.TENANT, "rounds", 3)


# -- oracle ---------------------------------------------------------------------


def _shapes():
    from repro.datatype.ddt import contiguous, indexed, vector
    from repro.datatype.primitives import DOUBLE
    from repro.workloads.matrices import (
        lower_triangular_type,
        submatrix_type,
        transpose_type,
    )

    lengths, disps = [3, 1, 5, 2], [0, 7, 9, 20]
    return [
        (contiguous(40, DOUBLE).commit(), oracle.contiguous_layout(40)),
        (vector(6, 3, 5, DOUBLE).commit(), oracle.strided_layout(6, 3, 5)),
        (submatrix_type(7, 9), oracle.strided_layout(7, 7, 9)),
        (lower_triangular_type(9), oracle.triangular_layout(9)),
        (transpose_type(8), oracle.transpose_layout(8)),
        (indexed(lengths, disps, DOUBLE).commit(),
         oracle.indexed_layout(lengths, disps)),
    ]


@pytest.mark.parametrize("index", range(6))
def test_layout_agrees_with_the_program_on_correct_code(index):
    from repro.datatype.convertor import pack_bytes

    dt, layout = _shapes()[index]
    words = oracle.make_pad(3, layout.words)
    packed = pack_bytes(dt, 1, words.view(np.uint8))
    assert np.array_equal(packed.view("<u8"), layout.packed(words))
    assert layout.gap_mask().sum() == layout.words - layout.nelems


@pytest.mark.parametrize("index", range(6))
def test_oracle_rejects_shifted_stale_and_misrouted_payloads(index):
    _dt, layout = _shapes()[index]
    pad = oracle.make_pad(5, layout.words + 1)
    payload = layout.packed(pad[: layout.words]) ^ oracle.content_key(5, 0, 1, 2, 3)
    buf = np.zeros(layout.words, dtype=np.uint64)
    layout.write(buf, payload)
    assert layout.matches(buf, payload)
    other = layout.packed(pad[: layout.words]) ^ oracle.content_key(5, 0, 1, 2, 4)
    assert not layout.matches(buf, other), "stale/misrouted payload accepted"
    shifted = np.roll(payload, 1)
    assert not layout.matches(buf, shifted), "reordered payload accepted"


def test_payload_words_are_finite_doubles():
    pad = oracle.make_pad(1, 4096) ^ oracle.content_key(1, 2, 3, 4, 5)
    assert np.isfinite(pad.view("<f8")).all()


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(list(range(10_000)))[1] == 99.9
    assert tail_percentile(list(range(1_000)))[1] == 99.0
    assert tail_percentile(list(range(108)))[1] == 90.0
    assert tail_percentile(list(range(99)))[1] == 50.0
    value, q, n = tail_percentile([5.0, 1.0])
    assert (value, q, n) == (5.0, 100.0, 2)


# -- workloads --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_pass_delivers_everything(small, name):
    res = run_pass(name, seed=11)
    assert res.error == ""
    assert res.failed == 0 and res.attempted > 0
    assert res.messages > 0 and res.latencies
    assert res.sim_elapsed_s > 0


def test_broken_unpack_is_caught_not_fatal(small, monkeypatch):
    from repro.datatype.convertor import Convertor

    monkeypatch.setattr(Convertor, "unpack_range", lambda self, data, lo, hi: None)
    res = run_pass("tenant_mix", seed=2)
    assert res.failed > 0
    assert res.attempted >= res.failed


def test_deadlock_counts_unfinished_deliveries(small, monkeypatch):
    from repro.mpi.matching import MatchingEngine

    monkeypatch.setattr(MatchingEngine, "arrive", lambda self, env, arrival: None)
    res = run_pass("wide_eager", seed=2)
    assert "deadlock" in res.error
    assert res.failed > 0
    assert any("never completed" in f for f in res.failures)


def test_same_seed_same_model_different_seed_differs(small):
    a = run_pass("tenant_mix", seed=4)
    b = run_pass("tenant_mix", seed=4)
    c = run_pass("tenant_mix", seed=5)
    assert bench.model_signature(a) == bench.model_signature(b)
    assert a.sim_elapsed_s != c.sim_elapsed_s


def test_fig12_transpose_round_trips_match_recorded_paper_numbers(monkeypatch):
    """EXPERIMENTS.md Fig 12: sm-2gpu N=1024 transpose, 48.1 ms vs 283 ms.

    Seed 4 draws the unjittered N=1024 transpose.
    """
    monkeypatch.setitem(workloads.PAPER, "envs", ("sm-2gpu",))
    monkeypatch.setitem(workloads.PAPER, "n_vt", 64)
    monkeypatch.setitem(workloads.PAPER, "ld_pad", 16)
    monkeypatch.setitem(workloads.PAPER, "engine_round_trips", 2)
    res = run_pass("paper_ddt", seed=4)
    assert res.details["n"]["transpose"] == 1024
    assert res.failed == 0
    engine = res.details["sm-2gpu.transpose.engine_rt_ms"]
    mvapich = res.details["sm-2gpu.transpose.mvapich_rt_ms"]
    assert engine == pytest.approx(48.075, rel=1e-4)
    assert mvapich == pytest.approx(283.231, rel=1e-4)


# -- tracer ---------------------------------------------------------------------------


def _traced(name: str, seed: int = 3):
    untraced = run_pass(name, seed, resource_trace=True)
    trace = LayerTrace(name)
    with trace.installed():
        traced = run_pass(name, seed, tracer=trace, resource_trace=True)
    return untraced, traced, trace


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_does_not_perturb_the_model(small, name):
    untraced, traced, trace = _traced(name)
    assert bench.model_signature(untraced) == bench.model_signature(traced)
    metrics = bench.layer_metrics(untraced, traced, trace.summary())
    assert list(metrics) == list(bench.LAYER)
    # every virtual-time and count metric exists untraced and matches
    for key, value in untraced.counters.items():
        assert traced.counters[key] == value, key


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_self_times_add_up_to_traced_wall(small, name):
    _u, _t, trace = _traced(name)
    self_s = trace.layer_self_s()
    assert set(self_s) == set(LAYERS)
    assert all(v >= -1e-9 for v in self_s.values())
    assert math.isclose(sum(self_s.values()), trace.root_s, rel_tol=1e-9)
    assert sum(trace.name_self_s.values()) == pytest.approx(trace.root_s, rel=1e-9)


def test_baseline_byte_loop_is_charged_to_baselines(small, monkeypatch):
    monkeypatch.setitem(workloads.PAPER, "envs", ("sm-2gpu",))
    monkeypatch.setitem(workloads.PAPER, "n_transpose", 256)
    _u, _t, trace = _traced("paper_ddt")
    self_s = trace.layer_self_s()
    assert trace.name_self_s["baselines.deferred"] > 0.0
    assert self_s["baselines"] > self_s["sim"]


def test_uninstall_restores_every_binding():
    import repro.mpi.pml as pml
    import repro.mpi.protocols as protocols
    import repro.mpi.world as world
    from repro.sim.core import Future

    before = (world.isend_coro, world.RankContext.send, protocols.SENDERS["host"],
              Future.add_callback)
    trace = LayerTrace("x")
    with trace.installed():
        assert world.isend_coro is not before[0]
        assert world.isend_coro is pml.isend_coro
        assert world.RankContext.send is world.RankContext.isend
        assert world.RankContext.send is not before[1]
        assert protocols.SENDERS["host"] is not before[2]
    after = (world.isend_coro, world.RankContext.send, protocols.SENDERS["host"],
             Future.add_callback)
    assert after == before


def test_every_trace_target_is_bound():
    trace = LayerTrace("x")
    with trace.installed():
        names = set(trace.names)
    assert len(names) >= len(layertrace.TARGETS)


def test_spans_are_written_with_parents(small, tmp_path):
    trace = LayerTrace("wide_eager")
    with trace.installed():
        run_pass("wide_eager", 1, tracer=trace)
    path = tmp_path / "spans.json"
    trace.write(str(path))
    doc = json.loads(path.read_text())
    assert doc["workload"] == "wide_eager"
    spans = doc["spans"]
    assert len(spans) == trace.span_count()
    roots = [s for s in spans if s[4] == -1]
    assert roots and all(s[1] == "bench" for s in roots)
    assert all(s[2] <= s[3] for s in spans)


# -- the command and the files --------------------------------------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_cli_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tenant_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    doc = _last_json(out.stdout)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    assert list(doc["metrics"]) == list(bench.E2E)
    for name, m in doc["metrics"].items():
        assert m["unit"] == bench.E2E[name][0] and m["value"] > 0
    for name in list(bench.E2E) + ["error_rate"]:
        assert name in out.stdout


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tenant_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(bench.E2E)
    for m in doc["end_to_end"]:
        assert (m["unit"], m["better"]) == bench.E2E[m["name"]][:2]
        assert 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert [m["name"] for m in doc["per_layer"]] == list(bench.LAYER)
    for m in doc["per_layer"]:
        assert (m["unit"], m["better"]) == bench.LAYER[m["name"]][:2]


def test_provenance_file_is_current():
    recorded = json.loads((BENCH / "provenance.json").read_text())
    assert recorded == json.loads(json.dumps(bench.provenance()))
