"""Tests for the canonical datatype IR and the compiled pack plans.

The contract under test: any two ways of building the same logical
layout canonicalize to the same key (so caches actually hit across
constructions), and every pack plan the cost model can select moves
exactly the same bytes as the legacy stack machine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatype.canonical import (
    PLAN_GATHER,
    PLAN_MEMCPY,
    PLAN_RUNS,
    PLAN_STACK,
    PLAN_STRIDED2D,
    PLAN_VECTOR_KERNEL,
    canonical_key,
    canonicalize,
    display_id,
    plan_cost,
    select_cpu_plan,
    select_gpu_plan,
)
from repro.datatype.convertor import Convertor, pack_bytes, unpack_bytes
from repro.datatype.ddt import (
    contiguous,
    hindexed,
    hvector,
    indexed,
    resized,
    struct,
    vector,
)
from repro.datatype.primitives import BYTE, DOUBLE, INT
from repro.workloads.matrices import lower_triangular_type

from .strategies import buffer_for, datatypes, reference_pack

S = 4096


def key1(dt):
    return canonical_key(dt, 1, S)


class TestEquivalentConstructions:
    """Same logical layout, different constructor trees -> same key."""

    def test_vector_hvector_hindexed_unify(self):
        c, bl, stride = 7, 3, 5
        v = vector(c, bl, stride, DOUBLE)
        hv = hvector(c, bl, stride * 8, DOUBLE)
        hi = hindexed([bl] * c, [i * stride * 8 for i in range(c)], DOUBLE)
        assert key1(v) == key1(hv) == key1(hi)
        assert canonicalize(v).kind == "vector"

    def test_contiguous_collapse(self):
        # stride == blocklength: the "vector" is really contiguous
        v = vector(6, 4, 4, DOUBLE)
        c = contiguous(24, DOUBLE)
        b = contiguous(192, BYTE)
        assert key1(v) == key1(c) == key1(b)
        assert canonicalize(v).kind == "contig"

    def test_indexed_run_merging(self):
        # touching indexed blocks coalesce into the same maximal runs
        a = indexed([2, 2, 3], [0, 2, 10], INT)
        b = indexed([4, 1, 2], [0, 10, 11], INT)
        assert key1(a) == key1(b)

    def test_struct_flattening(self):
        inner = vector(4, 2, 5, DOUBLE)
        wrapped = struct([1], [0], [inner])
        assert key1(wrapped) == key1(inner)

    def test_resized_and_dup_erased_at_count_1(self):
        base = vector(4, 2, 5, DOUBLE).commit()
        r = resized(base, base.lb, base.extent + 64)
        assert key1(r) == key1(base)
        assert key1(base.dup()) == key1(base)

    def test_resized_extent_matters_at_count_2(self):
        # at count > 1 the extent tiles the layout: keys must differ
        base = vector(4, 2, 5, DOUBLE).commit()
        r = resized(base, base.lb, base.extent + 64)
        assert canonical_key(base, 2, S) != canonical_key(r, 2, S)

    def test_count_folds_into_the_key(self):
        # contiguous(2, D) packed once == D packed twice
        assert canonical_key(contiguous(2, DOUBLE), 1, S) == canonical_key(
            contiguous(1, DOUBLE), 2, S
        )

    def test_unit_size_distinguishes_keys(self):
        dt = vector(4, 2, 5, DOUBLE)
        assert canonical_key(dt, 1, 1024) != canonical_key(dt, 1, 4096)

    def test_different_layouts_different_keys(self):
        assert key1(vector(4, 2, 5, DOUBLE)) != key1(vector(4, 2, 6, DOUBLE))
        assert key1(indexed([1, 2], [0, 4], INT)) != key1(
            indexed([2, 1], [0, 4], INT)
        )

    @given(dt=datatypes(), pad=st.integers(0, 64))
    @settings(max_examples=60, deadline=None)
    def test_dup_and_same_extent_resize_share_keys(self, dt, pad):
        assert key1(dt.dup()) == key1(dt)
        r = resized(dt, dt.lb, dt.extent + pad)
        assert key1(r) == key1(dt)


class TestDisplayId:
    def test_structural_not_positional(self):
        a = vector(5, 2, 7, DOUBLE).commit()
        b = hvector(5, 2, 56, DOUBLE).commit()  # same layout, built later
        assert a.display_id == b.display_id == display_id(a)
        assert a.display_id != contiguous(10, DOUBLE).commit().display_id

    def test_uncommitted_has_placeholder(self):
        assert display_id(vector(5, 2, 7, DOUBLE)) == "uncommitted"

    def test_repr_uses_display_id(self):
        dt = vector(5, 2, 7, DOUBLE).commit()
        assert dt.display_id in repr(dt)


class TestPlanSelection:
    def test_contig_aligned_is_memcpy(self):
        form = canonicalize(contiguous(32, DOUBLE))
        assert select_cpu_plan(form, 8) == PLAN_MEMCPY
        assert select_gpu_plan(form) == PLAN_MEMCPY

    def test_vector_aligned_is_strided(self):
        form = canonicalize(vector(8, 4, 6, DOUBLE))
        assert select_cpu_plan(form, 8) == PLAN_STRIDED2D
        assert select_gpu_plan(form) == PLAN_VECTOR_KERNEL

    def test_vector_misaligned_for_unit_falls_back(self):
        # 12-byte blocks cannot be walked in 8-byte elements
        form = canonicalize(hvector(8, 12, 24, BYTE))
        assert select_cpu_plan(form, 8) in (PLAN_GATHER, PLAN_STACK)

    def test_irregular_is_gather(self):
        form = canonicalize(indexed([1, 2, 1], [0, 3, 9], DOUBLE))
        assert form.kind == "runs"
        assert select_cpu_plan(form, 8) == PLAN_GATHER
        assert select_gpu_plan(form) == PLAN_GATHER

    def test_misaligned_base_forces_stack(self):
        form = canonicalize(contiguous(32, DOUBLE))
        assert select_cpu_plan(form, 8, base_offset=4) == PLAN_STACK

    def test_force_dev_pins_gather(self):
        form = canonicalize(vector(8, 4, 6, DOUBLE))
        assert select_gpu_plan(form, force_dev=True) == PLAN_GATHER

    def test_long_runs_select_runs_plan(self):
        # 8164 B per run on average: one slice copy per run beats the
        # element gather, and no element map is ever built
        dt = lower_triangular_type(2040)
        form = canonicalize(dt)
        assert form.kind == "runs"
        assert select_cpu_plan(form, 8) == PLAN_RUNS
        assert select_gpu_plan(form) == PLAN_GATHER  # GPU menu unchanged
        user = np.zeros(dt.spans.true_ub, dtype=np.uint8)
        packed = pack_bytes(dt, 1, user)
        unpack_bytes(dt, 1, user, packed)
        conv = Convertor(dt, 1, user, "pack")
        conv.pack_range(np.empty(4096, dtype=np.uint8), 8192, 12288)
        assert conv.plan == PLAN_RUNS
        assert not dt._gather_cache
        assert list(dt._runs_cache) == [1]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: lower_triangular_type(72),  # 292 B per run
            lambda: lower_triangular_type(128),  # 516 B per run
            # a seeded indexed shape of the multi-tenant traffic mix
            lambda: indexed(*_tenant_indexed(1234, 48), DOUBLE).commit(),
        ],
        ids=["tri72", "tri128", "tenant-indexed"],
    )
    def test_short_runs_stay_on_gather(self, make):
        form = canonicalize(make())
        assert form.kind == "runs"
        assert form.size / form.blocks < 600
        assert select_cpu_plan(form, 8) == PLAN_GATHER

    def test_runs_plan_cost_crosses_over_between_measured_points(self):
        # measured: per-run copies lose at 2 KB runs, win at 4 KB runs
        def form_with_runs(run_bytes):
            n = 64
            e = run_bytes // 8
            return canonicalize(indexed(
                [e + (i % 2) for i in range(n)],
                [i * (e + 5) for i in range(n)],
                DOUBLE,
            ))

        assert select_cpu_plan(form_with_runs(2048), 8) == PLAN_GATHER
        assert select_cpu_plan(form_with_runs(4096), 8) == PLAN_RUNS

    def test_cost_ordering_sane(self):
        form = canonicalize(contiguous(32, DOUBLE))
        assert (
            plan_cost(form, PLAN_MEMCPY)
            < plan_cost(form, PLAN_GATHER)
            < plan_cost(form, PLAN_STACK)
        )


class TestPlanEquivalence:
    """Every selected plan moves exactly the stack machine's bytes."""

    CASES = [
        ("contig", lambda: contiguous(100, DOUBLE)),
        ("vector", lambda: vector(9, 3, 7, DOUBLE)),
        ("hvector-odd", lambda: hvector(5, 3, 29, BYTE)),
        ("runs", lambda: indexed([1, 3, 2], [0, 5, 20], DOUBLE)),
        ("struct", lambda: struct([2, 1], [0, 48], [INT, DOUBLE])),
    ]

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("count", [1, 3])
    def test_pack_matches_oracle_and_stack(self, name, make, count):
        dt = make().commit()
        rng = np.random.default_rng(17)
        user = buffer_for(dt, count, rng)
        oracle = reference_pack(dt, count, user)

        packed = pack_bytes(dt, count, user)
        assert np.array_equal(packed, oracle)

        # the legacy convertor: force the stack machine on the same input
        conv = Convertor(dt, count, user, "pack")
        conv._fallback()
        assert conv.plan == PLAN_STACK
        out = np.empty(conv.total_bytes, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, oracle)

        # unpack roundtrip restores the layout bytes
        blank = np.zeros_like(user)
        unpack_bytes(dt, count, blank, packed)
        mask = np.zeros(len(user), dtype=bool)
        for d, l in dt.spans_for_count(count).iter_pairs():
            mask[d : d + l] = True
        assert np.array_equal(blank[mask], user[mask])
        assert not blank[~mask].any()

    @given(dt=datatypes(), count=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_property_pack_matches_oracle(self, dt, count):
        rng = np.random.default_rng(3)
        user = buffer_for(dt, count, rng)
        assert np.array_equal(
            pack_bytes(dt, count, user), reference_pack(dt, count, user)
        )


def _tenant_indexed(pattern: int, blocks: int) -> tuple[list, list]:
    """Block lengths and displacements (in doubles) of a seeded indexed
    type: 4-95 doubles per block, 1-47 doubles apart."""
    rng = np.random.default_rng([pattern, 3])
    lengths = rng.integers(4, 96, size=blocks)
    gaps = rng.integers(1, 48, size=blocks)
    disps = np.cumsum(gaps) + np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return lengths.tolist(), disps.tolist()


def runs_convertor(dt, count, user, direction):
    """A convertor pinned to the runs plan, whatever the cost model picks."""
    conv = Convertor(dt, count, user, direction)
    assert conv.plan != PLAN_STACK
    conv.plan = PLAN_RUNS
    return conv


class TestRunsPlanEquivalence:
    """The runs plan moves exactly the stack machine's bytes: every
    :class:`TestPlanEquivalence` case, plus decreasing displacements and
    a triangular matrix, whatever plan the cost model would pick."""

    CASES = TestPlanEquivalence.CASES + [
        ("decreasing", lambda: indexed([3, 2, 4], [20, 10, 0], DOUBLE)),
        ("hindexed-down", lambda: hindexed([16, 8, 24], [96, 40, 0], BYTE)),
        ("triangular", lambda: lower_triangular_type(12)),
    ]

    @staticmethod
    def _stack_pack(dt, count, user):
        conv = Convertor(dt, count, user, "pack")
        conv._fallback()
        out = np.empty(conv.total_bytes, dtype=np.uint8)
        conv.pack(out)
        return out

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("count", [1, 3])
    def test_whole_stream(self, name, make, count):
        dt = make().commit()
        user = buffer_for(dt, count, np.random.default_rng(5))
        want = self._stack_pack(dt, count, user)
        conv = runs_convertor(dt, count, user, "pack")
        out = np.empty(conv.total_bytes, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, want)

        blank = np.zeros_like(user)
        runs_convertor(dt, count, blank, "unpack").unpack(want)
        assert np.array_equal(self._stack_pack(dt, count, blank), want)
        assert not dt._gather_cache

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("count", [1, 2])
    def test_every_unit_range(self, name, make, count):
        """Ranges starting and ending mid-run, one-element ranges, and
        ranges spanning element boundaries of a tiled ``count``."""
        dt = make().commit()
        user = buffer_for(dt, count, np.random.default_rng(9))
        want = self._stack_pack(dt, count, user)
        u = Convertor(dt, count, user, "pack")._unit
        total = len(want)
        cuts = sorted({0, total, u, total - u, total // 2 // u * u,
                       (total // 3 + 1) // u * u})
        bounds = [(lo, hi) for lo in cuts for hi in cuts if lo < hi]
        bounds += [(k, k + u) for k in range(0, total, u)]  # one element
        pack = runs_convertor(dt, count, user, "pack")
        blank = np.zeros_like(user)
        unpack = runs_convertor(dt, count, blank, "unpack")
        for lo, hi in bounds:
            out = np.empty(hi - lo, dtype=np.uint8)
            pack.pack_range(out, lo, hi)
            assert np.array_equal(out, want[lo:hi]), (lo, hi)
            unpack.unpack_range(want[lo:hi].copy(), lo, hi)
        assert np.array_equal(self._stack_pack(dt, count, blank), want)

    def test_base_offset(self):
        dt = indexed([3, 2, 4], [20, 10, 0], DOUBLE).commit()
        user = np.random.default_rng(1).integers(0, 255, 64 + 240, dtype=np.uint8)
        conv = Convertor(dt, 1, user, "pack", base_offset=64)
        conv.plan = PLAN_RUNS
        out = np.empty(dt.size, dtype=np.uint8)
        conv.pack(out)
        assert np.array_equal(out, reference_pack(dt, 1, user[64:]))

    def test_run_past_buffer_end_raises(self):
        dt = lower_triangular_type(2040)
        user = np.zeros(dt.spans.true_ub - 8, dtype=np.uint8)
        conv = Convertor(dt, 1, user, "pack")
        assert conv.plan == PLAN_RUNS
        out = np.empty(dt.size, dtype=np.uint8)
        with pytest.raises(ValueError, match="exceed a buffer"):
            conv.pack(out)  # the last run would be silently truncated
        with pytest.raises(ValueError, match="exceed a buffer"):
            Convertor(dt, 1, user, "unpack").unpack_range(out[:8], 0, 8)


class TestDevCacheReuse:
    def test_second_construction_hits(self, gpu):
        from repro.gpu_engine.cache import DevCache

        cache = DevCache(gpu)
        c, bl, stride = 6, 2, 9
        units = cache.put(vector(c, bl, stride, DOUBLE), 1, S)
        # an equivalent type built a *different* way still hits
        hi = hindexed([bl * 8] * c, [i * stride * 8 for i in range(c)], BYTE)
        assert cache.get(hi, 1, S) is units
        assert cache.hits == 1 and cache.misses == 0
