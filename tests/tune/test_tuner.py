"""Tests for the frozen-decision autotuner (repro.tune.tuner)."""

from __future__ import annotations

import pytest

from repro.datatype.canonical import canonicalize
from repro.datatype.ddt import contiguous, vector
from repro.datatype.primitives import BYTE, DOUBLE
from repro.mpi.config import MpiConfig
from repro.tune import Autotuner, DecisionTable
from repro.tune.tuner import (
    SendChoice,
    parse_send_choice,
    send_choice_str,
    struct_sig,
)


def table_with(*obs) -> DecisionTable:
    t = DecisionTable()
    for key, choice, seconds, nbytes in obs:
        t.observe(key, choice, seconds, nbytes)
    return t


class TestChoiceStrings:
    def test_roundtrip(self):
        s = send_choice_str(1 << 20, 4, "ipc_rdma")
        assert s == "frag=1048576,depth=4,proto=ipc_rdma"
        assert parse_send_choice(s) == SendChoice(1 << 20, 4, "ipc_rdma")

    def test_no_preference_encodes_as_dash(self):
        s = send_choice_str(4096, 2, None)
        assert s.endswith("proto=-")
        assert parse_send_choice(s) == SendChoice(4096, 2, None)

    @pytest.mark.parametrize(
        "s", ["eager", "staged", "frag=x,depth=2,proto=-", "frag=0,depth=2",
              "frag=4096,depth=0,proto=-", "frag=4096"]
    )
    def test_non_send_or_malformed_is_none(self, s):
        assert parse_send_choice(s) is None


class TestStructSig:
    def test_vector_keeps_geometry_not_count(self):
        small = canonicalize(vector(64, 4, 12, DOUBLE).commit(), 1)
        large = canonicalize(vector(512, 4, 12, DOUBLE).commit(), 1)
        assert struct_sig(small) == struct_sig(large) == "v32x96"

    def test_contig(self):
        form = canonicalize(contiguous(4096, BYTE).commit(), 1)
        assert struct_sig(form) == "contig"


class TestConstruction:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Autotuner(mode="off")
        with pytest.raises(ValueError):
            Autotuner(mode="On")

    def test_band_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Autotuner(DecisionTable(bands=(1024,)), bands=(2048,))

    def test_from_config_off_is_none(self):
        assert Autotuner.from_config(MpiConfig()) is None

    def test_from_config_builds_mode(self, tmp_path):
        t = table_with(("k", "staged", 1.0, 100))
        path = t.save(str(tmp_path / "table.json"))
        tuner = Autotuner.from_config(
            MpiConfig(autotune="on", tuner_table=path, tuner_seed=3)
        )
        assert tuner.mode == "on" and tuner.seed == 3
        assert tuner.table.entries == t.entries

    def test_from_config_malformed_table_fails_loudly(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"schema": "wrong/0"}')
        with pytest.raises(ValueError):
            Autotuner.from_config(MpiConfig(autotune="on", tuner_table=str(path)))


class TestDecide:
    KEY = "p2p/contig/le4096/intra/d"

    def test_observe_mode_never_decides(self):
        t = table_with((self.KEY, "frag=4096,depth=2,proto=copyinout", 1.0, 100))
        tuner = Autotuner(t, mode="observe")
        assert tuner.decide_send(self.KEY) is None
        assert tuner.decide_coll("coll/x", ("staged",)) is None
        assert tuner.decide_plan("plan/x", ("a", "b")) is None

    def test_decide_send_picks_cheapest_and_records(self):
        t = table_with(
            (self.KEY, "frag=1048576,depth=4,proto=-", 2.0, 1000),
            (self.KEY, "frag=4096,depth=2,proto=copyinout", 1.0, 1000),
            (self.KEY, "eager", 0.1, 1000),  # non-send choice is skipped
        )
        tuner = Autotuner(t, mode="on")
        choice = tuner.decide_send(self.KEY)
        assert choice == SendChoice(4096, 2, "copyinout")
        assert tuner.decisions[self.KEY] == "frag=4096,depth=2,proto=copyinout"

    def test_decide_send_no_history_is_none(self):
        tuner = Autotuner(DecisionTable(), mode="on")
        assert tuner.decide_send(self.KEY) is None
        assert tuner.decisions == {}

    def test_decisions_are_frozen_at_construction(self):
        t = table_with((self.KEY, "frag=4096,depth=2,proto=-", 1.0, 1000))
        tuner = Autotuner(t, mode="on")
        # a much cheaper in-run observation must not steer this run
        tuner.observe_send(self.KEY, 1 << 20, 8, "ipc_rdma", 1e-9, 1000)
        assert tuner.decide_send(self.KEY) == SendChoice(4096, 2, None)

    def test_decide_coll_respects_feasible(self):
        key = "coll/alltoall/dev/le32768/n2x4"
        t = table_with((key, "direct", 1.0, 100), (key, "staged", 2.0, 100))
        tuner = Autotuner(t, mode="on")
        assert tuner.decide_coll(key, ("staged", "direct")) == "direct"
        assert tuner.decide_coll(key, ("staged",)) == "staged"
        assert tuner.decide_coll(key, ("pairwise",)) is None

    def test_decide_plan_requires_full_coverage(self):
        key = "plan/v32x96/le32768"
        t = table_with((key, "gather", 1.0, 100))
        tuner = Autotuner(t, mode="on")
        # only one of two feasible plans has history: static model wins
        assert tuner.decide_plan(key, ("gather", "vector_kernel")) is None
        t2 = table_with(
            (key, "gather", 1.0, 100), (key, "vector_kernel", 2.0, 100)
        )
        tuner2 = Autotuner(t2, mode="on")
        assert tuner2.decide_plan(key, ("gather", "vector_kernel")) == "gather"

    def test_decide_plan_single_feasible_is_none(self):
        key = "plan/contig/le4096"
        tuner = Autotuner(table_with((key, "contig", 1.0, 100)), mode="on")
        assert tuner.decide_plan(key, ("contig",)) is None


class TestDigest:
    def test_digest_is_order_independent(self):
        t = table_with(
            ("a", "frag=4096,depth=2,proto=-", 1.0, 100),
            ("b", "frag=4096,depth=2,proto=-", 1.0, 100),
        )
        t1 = Autotuner(t, mode="on")
        t1.decide_send("a")
        t1.decide_send("b")
        t2 = Autotuner(t, mode="on")
        t2.decide_send("b")
        t2.decide_send("a")
        assert t1.decisions_digest() == t2.decisions_digest()

    def test_digest_changes_with_decisions(self):
        t = table_with(("a", "frag=4096,depth=2,proto=-", 1.0, 100))
        tuner = Autotuner(t, mode="on")
        empty = tuner.decisions_digest()
        tuner.decide_send("a")
        assert tuner.decisions_digest() != empty


class TestKeys:
    def test_p2p_key_shape(self):
        tuner = Autotuner(DecisionTable(), mode="observe")
        form = canonicalize(vector(512, 4, 12, DOUBLE).commit(), 1)
        key = tuner.p2p_key(form, 16 << 10, True, "device")
        assert key == "p2p/v32x96/le32768/intra/d"
        key = tuner.p2p_key(form, 16 << 10, False, "host")
        assert key == "p2p/v32x96/le32768/inter/h"

    def test_coll_and_plan_keys(self):
        tuner = Autotuner(DecisionTable(), mode="observe")
        assert (
            tuner.coll_key("alltoall", 8 << 10, True, 2, 4)
            == "coll/alltoall/dev/le32768/n2x4"
        )
        form = canonicalize(contiguous(4096, BYTE).commit(), 1)
        assert tuner.plan_key(form, 4096) == "plan/contig/le4096"


class TestEagerObservation:
    @pytest.mark.parametrize(
        "make_dt",
        [lambda: contiguous(256, BYTE), lambda: vector(16, 2, 4, DOUBLE)],
        ids=["contiguous", "vector"],
    )
    def test_every_eager_send_records_a_sample(self, make_dt):
        """Each eager send leaves one informational ``eager`` sample,
        whatever the datatype's shape."""
        from repro.bench.harness import make_env

        dt = make_dt().commit()
        env = make_env("cpu", config=MpiConfig(autotune="observe"))
        bufs = [
            env.world.procs[r].node.host_memory.alloc(dt.extent) for r in (0, 1)
        ]

        def rank0(mpi):
            for _ in range(3):
                yield mpi.send(bufs[0], dt, 1, dest=1, tag=0)

        def rank1(mpi):
            for _ in range(3):
                yield mpi.recv(bufs[1], dt, 1, source=0, tag=0)

        env.world.run([rank0, rank1])
        cells = [
            choices["eager"]
            for choices in env.world.tuner.table.entries.values()
            if "eager" in choices
        ]
        assert [(n, b) for n, _s, b in cells] == [(3, 3 * dt.size)]
