"""Byte movement of the MVAPICH-style baseline and the strided-row helper.

``MvapichLikeTransfer._move_runs`` moves each vector run with one strided
copy (:func:`repro.datatype.strided_rows`).  The per-block loop it
replaced is kept here as the reference: both must produce the same packed
stream and the same unpacked user buffer for every layout, including
runs with negative strides and the batched tail past
``MAX_MODELED_CALLS``.  Also pins the cached ``Datatype.granularity``.
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mvapich import MvapichLikeTransfer, VectorRun, vectorize_spans
from repro.datatype import ddt as ddt_module
from repro.datatype import strided_rows
from repro.datatype.convertor import pack_bytes, stream_unit
from repro.datatype.ddt import Datatype, contiguous, hvector, indexed, resized, vector
from repro.datatype.primitives import BYTE, DOUBLE
from repro.workloads.matrices import lower_triangular_type
from tests.baselines.test_mvapich import _procs
from tests.datatype.strategies import datatypes, reference_pack

move_runs = MvapichLikeTransfer._move_runs


def reference_move_runs(runs, user, stage, pos, direction: str) -> None:
    """The per-block loop ``_move_runs`` used to run: one slice per row."""
    sv = stage.bytes if hasattr(stage, "bytes") else stage
    for run in runs:
        for i in range(run.count):
            u0 = run.first_disp + i * run.stride
            s0 = pos + i * run.blocklength
            if direction == "pack":
                sv[s0 : s0 + run.blocklength] = user[u0 : u0 + run.blocklength]
            else:
                user[u0 : u0 + run.blocklength] = sv[s0 : s0 + run.blocklength]
        pos += run.nbytes


def runs_from_zero(dt: Datatype, count: int) -> tuple[list[VectorRun], int]:
    """Vector runs of ``count`` elements shifted so the lowest byte is 0,
    and the buffer size they need (negative-stride types reach below
    their first displacement)."""
    spans = dt.spans_for_count(count)
    lo = spans.true_lb
    runs = [
        VectorRun(r.first_disp - lo, r.blocklength, r.stride, r.count)
        for r in vectorize_spans(spans)
    ]
    return runs, max(spans.true_ub - lo, 1)


def check_equivalent(dt: Datatype, count: int, seed: int = 0) -> list[VectorRun]:
    """Pack and unpack through both implementations; assert equal bytes."""
    rng = np.random.default_rng(seed)
    runs, extent = runs_from_zero(dt, count)
    total = sum(r.nbytes for r in runs)
    pos = int(rng.integers(0, 16))  # runs start mid-stage in a batch
    user = rng.integers(0, 255, extent, dtype=np.uint8)

    got = np.zeros(pos + total, np.uint8)
    want = np.zeros(pos + total, np.uint8)
    move_runs(runs, user, got, pos, "pack")
    reference_move_runs(runs, user, want, pos, "pack")
    assert np.array_equal(got, want)

    stage = rng.integers(0, 255, pos + total, dtype=np.uint8)
    got_user = rng.integers(0, 255, extent, dtype=np.uint8)
    want_user = got_user.copy()
    move_runs(runs, got_user, stage, pos, "unpack")
    reference_move_runs(runs, want_user, stage, pos, "unpack")
    assert np.array_equal(got_user, want_user)
    return runs


class TestMoveRunsEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(dt=datatypes(), count=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_random_datatypes(self, dt, count, seed):
        check_equivalent(dt, count, seed)
        spans = dt.spans_for_count(count)
        if spans.true_lb >= 0:
            # and the packed stream is the typemap oracle's
            user = np.random.default_rng(seed).integers(
                0, 255, max(spans.true_ub, 1), dtype=np.uint8
            )
            out = np.zeros(spans.size, np.uint8)
            move_runs(vectorize_spans(spans), user, out, 0, "pack")
            assert np.array_equal(out, reference_pack(dt, count, user))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: indexed([1] * 4, [9, 6, 3, 0], DOUBLE),
            lambda: hvector(5, 2, -48, DOUBLE),
            lambda: indexed([2, 2, 2, 1], [30, 20, 10, 0], BYTE),
        ],
        ids=["indexed-descending", "hvector-negative", "bytes-descending"],
    )
    def test_negative_strides(self, make):
        dt = make().commit()
        runs = check_equivalent(dt, 2)
        assert any(r.stride < 0 and r.count > 1 for r in runs)

    def test_zero_stride_pack(self):
        """A zero-stride run reads one block ``count`` times."""
        run = VectorRun(first_disp=3, blocklength=4, stride=0, count=3)
        user = np.arange(16, dtype=np.uint8)
        got, want = np.zeros(12, np.uint8), np.zeros(12, np.uint8)
        move_runs([run], user, got, 0, "pack")
        reference_move_runs([run], user, want, 0, "pack")
        assert np.array_equal(got, want)
        assert got.tolist() == [3, 4, 5, 6] * 3

    def test_stage_buffer_object(self):
        """Staging regions are Buffers; their ``.bytes`` is the target."""
        stage = types.SimpleNamespace(bytes=np.zeros(24, np.uint8))
        user = np.arange(64, dtype=np.uint8)
        run = VectorRun(first_disp=8, blocklength=8, stride=16, count=3)
        move_runs([run], user, stage, 0, "pack")
        assert stage.bytes.tolist() == list(range(8, 16)) + list(
            range(24, 32)
        ) + list(range(40, 48))

    @pytest.mark.parametrize("direction", ["pack", "unpack"])
    @pytest.mark.parametrize(
        "run",
        [
            VectorRun(first_disp=8, blocklength=8, stride=16, count=4),  # ends at 64
            VectorRun(first_disp=-8, blocklength=8, stride=16, count=2),
            VectorRun(first_disp=8, blocklength=8, stride=-16, count=2),
        ],
        ids=["past-end", "negative-first", "negative-stride-below-zero"],
    )
    def test_overrun_raises(self, run, direction):
        user = np.zeros(60, np.uint8)
        stage = np.zeros(run.nbytes, np.uint8)
        with pytest.raises(ValueError, match="exceed"):
            move_runs([run], user, stage, 0, direction)

    def test_stage_overrun_raises(self):
        run = VectorRun(first_disp=0, blocklength=8, stride=8, count=4)
        with pytest.raises(ValueError):
            move_runs([run], np.zeros(32, np.uint8), np.zeros(24, np.uint8), 0, "pack")


class _SmallBatch(MvapichLikeTransfer):
    MAX_MODELED_CALLS = 4


class _SmallBatchReference(_SmallBatch):
    _move_runs = staticmethod(reference_move_runs)


class TestBatchedTransfer:
    """Past ``MAX_MODELED_CALLS`` the remaining runs move in one batched
    call; bytes, simulated time and modelled calls match the reference."""

    def _run(self, cls, kind: str):
        c, p0, p1 = _procs(kind)
        dt = lower_triangular_type(24)  # 24 runs: 3 modelled + 1 batch
        src = p0.ctx.malloc(dt.extent)
        src.bytes[:] = np.random.default_rng(5).integers(
            0, 255, dt.extent, dtype=np.uint8
        )
        dst = p1.ctx.malloc(dt.extent)
        dst.fill(0)
        xfer = cls(p0, p1)
        c.sim.run_until_complete(c.sim.spawn(xfer.transfer(src, dt, 1, dst, dt, 1)))
        ops = (p0.gpu.stream("mvapich").ops, p1.gpu.stream("mvapich").ops)
        return c.sim.now, c.sim.events_processed, dst.bytes.copy(), src, dt, ops

    @pytest.mark.parametrize("kind", ["sm", "ib"])
    def test_batch_path_matches_reference(self, kind):
        t, ev, got, src, dt, ops = self._run(_SmallBatch, kind)
        t_ref, ev_ref, want, _, _, ops_ref = self._run(_SmallBatchReference, kind)
        assert np.array_equal(got, want)
        assert np.array_equal(
            pack_bytes(dt, 1, got), pack_bytes(dt, 1, src.bytes)
        )
        assert (t, ev, ops) == (t_ref, ev_ref, ops_ref)
        assert ops == (4, 4)  # 3 modelled calls + 1 batch per side


class TestStridedRows:
    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(1, 96),
        first=st.integers(-8, 100),
        blocklength=st.integers(0, 12),
        stride=st.integers(-20, 20),
        count=st.integers(0, 8),
    )
    def test_rows_match_per_block_slices(self, size, first, blocklength, stride, count):
        buf = np.arange(size, dtype=np.int64)
        starts = [first + i * stride for i in range(count)]
        fits = all(0 <= s and s + blocklength <= size for s in starts)
        if blocklength == 0 or count == 0 or fits:
            rows = strided_rows(buf, first, blocklength, stride, count)
            assert rows.shape == (count, blocklength)
            for i, s in enumerate(starts):
                assert rows[i].tolist() == buf[s : s + blocklength].tolist()
        else:
            with pytest.raises(ValueError, match="exceed"):
                strided_rows(buf, first, blocklength, stride, count)

    def test_view_writes_through(self):
        buf = np.zeros(10, np.uint16)
        strided_rows(buf, 8, 2, -3, 3)[...] = [[1, 2], [3, 4], [5, 6]]
        assert buf.tolist() == [0, 0, 5, 6, 0, 3, 4, 0, 1, 2]

    def test_strided_source_buffer(self):
        """Element strides of a non-contiguous 1-D buffer are honoured."""
        base = np.arange(40, dtype=np.uint8)
        buf = base[::2]  # 20 elements, 2-byte element stride
        rows = strided_rows(buf, 1, 3, 5, 3)
        assert rows.tolist() == [[2, 4, 6], [12, 14, 16], [22, 24, 26]]


def uncached_granularity(dt: Datatype) -> int:
    s = dt.spans
    if s.count == 0:
        return 1
    g = int(np.gcd.reduce(np.concatenate([s.disps, s.lens])))
    g = math.gcd(g, 16) if g else 16
    return max(1, g)


@pytest.fixture
def gcd_calls(monkeypatch):
    """Count the span scans ``Datatype.granularity`` runs."""
    calls = []

    def reduce(arr):
        calls.append(len(arr))
        return np.gcd.reduce(arr)

    proxy = types.SimpleNamespace(
        gcd=types.SimpleNamespace(reduce=reduce), concatenate=np.concatenate
    )
    monkeypatch.setattr(ddt_module, "np", proxy)
    return calls


class TestGranularityCache:
    @settings(max_examples=80, deadline=None)
    @given(dt=datatypes())
    def test_equals_uncached(self, dt):
        assert dt.granularity() == uncached_granularity(dt)
        assert dt.granularity() == uncached_granularity(dt)
        clone = dt.dup()
        assert clone.granularity() == uncached_granularity(clone)

    def test_computed_once(self, gcd_calls):
        dt = vector(6, 2, 5, DOUBLE).commit()
        for _ in range(3):
            assert dt.granularity() == 8
            stream_unit(dt, 4)
        assert len(gcd_calls) == 1

    def test_dup_and_resized_compute_their_own(self, gcd_calls):
        dt = hvector(4, 1, 12, contiguous(3, BYTE)).commit()
        assert dt.granularity() == 1
        clone = dt.dup()
        assert clone.granularity() == 1
        wide = resized(dt, 0, dt.extent + 4).commit()
        assert wide.granularity() == uncached_granularity(wide)
        assert len(gcd_calls) == 3

    def test_dup_of_uncommitted_type_is_fresh(self):
        dt = vector(3, 1, 2, DOUBLE)
        clone = dt.dup()
        dt.commit()
        assert dt.granularity() == 8
        assert clone.commit().granularity() == 8

    def test_requires_commit(self):
        with pytest.raises(RuntimeError, match="before commit"):
            vector(3, 1, 2, DOUBLE).granularity()
