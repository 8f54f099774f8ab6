"""The per-rank staging pool's sharing policy for whole-message host buffers.

Device buffers and ring-sized host buffers are pooled at their exact
size (``tests/mpi/test_protocol_internals.py::TestStagingPool``); host
buffers larger than the pipeline ring are sized by a whole message and
are shared best-fit instead, so a rank holds one such buffer rather than
one per message size it ever staged.
"""

from __future__ import annotations

import pytest

from repro import sanitize
from repro.bench.harness import make_env, matrix_buffers, mvapich_pingpong
from repro.cuda.uma import is_mapped_host
from repro.hw.memory import Buffer
from repro.hw.node import Cluster
from repro.mpi.config import MpiConfig
from repro.mpi.proc import MpiProcess
from repro.sanitize import SanitizeOptions, SanitizerError
from repro.workloads.matrices import MatrixWorkload, transpose_type

KB = 1024
#: a 16 KB ring: every request above it is a whole-message buffer
SMALL_RING = MpiConfig(frag_bytes=16 * KB, pipeline_depth=1)


def proc(config: MpiConfig = SMALL_RING) -> MpiProcess:
    c = Cluster(1, 1)
    return MpiProcess(0, c.nodes[0], c.nodes[0].gpus[0], config)


def whole_message_buffers(p: MpiProcess) -> list:
    """Idle host staging buffers larger than the ring: the shared lists,
    and any exact-size list above the ring (there should be none)."""
    ring = p.config.frag_bytes * p.config.pipeline_depth
    return [
        b
        for (kind, nbytes, _mapped), bufs in p._staging_pool.items()
        if kind == "host" and (nbytes is None or nbytes > ring)
        for b, _snap in bufs
    ]


class TestSharing:
    def test_larger_idle_buffer_serves_smaller_request(self):
        p = proc()
        big = p.acquire_staging("host", 64 * KB)
        p.release_staging("host", big)
        small = p.acquire_staging("host", 40 * KB)
        assert small.allocation is big.allocation
        assert small.nbytes == 40 * KB and small.offset == 0

    def test_best_fit_picks_smallest_that_fits(self):
        p = proc()
        a = p.acquire_staging("host", 64 * KB)
        b = p.acquire_staging("host", 32 * KB)
        p.release_staging("host", a)
        p.release_staging("host", b)
        got = p.acquire_staging("host", 20 * KB)
        assert got.allocation is b.allocation

    def test_miss_frees_smaller_idle_buffers(self):
        p = proc()
        small = p.acquire_staging("host", 20 * KB)
        p.release_staging("host", small)
        big = p.acquire_staging("host", 64 * KB)
        assert big.allocation is not small.allocation
        assert small.allocation.freed
        p.release_staging("host", big)
        assert [b.allocation for b in whole_message_buffers(p)] == [
            big.allocation
        ]

    def test_lent_buffer_is_not_shared(self):
        p = proc()
        a = p.acquire_staging("host", 64 * KB)
        b = p.acquire_staging("host", 20 * KB)
        assert a.allocation is not b.allocation

    def test_mapped_flag_keeps_its_own_buffers(self):
        p = proc()
        plain = p.acquire_staging("host", 64 * KB)
        p.release_staging("host", plain)
        mapped = p.acquire_staging("host", 20 * KB, zero_copy_map=True)
        assert mapped.allocation is not plain.allocation
        assert is_mapped_host(mapped)
        p.release_staging("host", mapped, zero_copy_map=True)
        again = p.acquire_staging("host", 30 * KB)
        assert again.allocation is plain.allocation
        assert not is_mapped_host(again)

    def test_ring_sized_host_buffers_stay_exact(self):
        p = proc()
        a = p.acquire_staging("host", 16 * KB)
        p.release_staging("host", a)
        b = p.acquire_staging("host", 8 * KB)
        assert b.allocation is not a.allocation
        p.release_staging("host", b)
        assert p.acquire_staging("host", 16 * KB) is a


class TestSanitizedReuse:
    def test_overrun_of_shared_buffer_reported(self):
        """A sub-buffer past the request of a reused buffer reaches into
        the redzone, although the allocation behind it is larger."""
        with sanitize.enabled(SanitizeOptions.all(mode="raise")):
            p = proc()
            big = p.acquire_staging("host", 64 * KB)
            p.release_staging("host", big)
            small = p.acquire_staging("host", 40 * KB)
            Buffer(small.allocation, 0, 40 * KB)  # in bounds: fine
            with pytest.raises(SanitizerError) as exc:
                Buffer(small.allocation, 0, 40 * KB + 8)
        assert exc.value.violation.code == "mem.oob_subbuffer"

    def test_growing_request_is_not_an_overrun(self):
        with sanitize.enabled(SanitizeOptions.all(mode="raise")):
            p = proc()
            big = p.acquire_staging("host", 64 * KB)
            p.release_staging("host", big)
            small = p.acquire_staging("host", 20 * KB)
            p.release_staging("host", small)
            again = p.acquire_staging("host", 64 * KB)
            again.bytes[:] = 1
            assert again.allocation is big.allocation

    def test_reused_bytes_read_as_uninitialized(self):
        with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
            p = proc()
            big = p.acquire_staging("host", 64 * KB)
            big.bytes[:] = 7
            p.release_staging("host", big)
            small = p.acquire_staging("host", 40 * KB)
            sanitize.runtime.MEM.check_read(small, 0, 16, "stale read")
        assert [v.code for v in rep.violations] == ["mem.uninit_read"]


@pytest.mark.parametrize("order", ["VTX", "XTV"])
@pytest.mark.parametrize("kind", ["sm-2gpu", "ib"])
def test_mvapich_v_t_x_leaves_one_buffer_per_rank(kind, order):
    """The baseline stages every message whole through host memory; V, T
    and the transpose (32, 21 and 25 KB packed, all above the ring) on
    one world share one host buffer per rank, in either order."""
    env = make_env(kind, config=SMALL_RING)
    shapes = {
        "V": (MatrixWorkload.submatrix(64, 80), None),
        "T": (MatrixWorkload.triangular(72), None),
        "X": (MatrixWorkload.contiguous_matrix(56), transpose_type(56)),
    }
    ring = SMALL_RING.frag_bytes * SMALL_RING.pipeline_depth
    for name in order:
        wl, recv_dt = shapes[name]
        assert wl.datatype.size > ring
        b0, b1 = matrix_buffers(env, wl)
        mvapich_pingpong(
            env, b0, wl.datatype, 1, b1, recv_dt or wl.datatype, 1, iters=1
        )
    for p in env.world.procs:
        idle = whole_message_buffers(p)
        assert len(idle) == 1, f"rank {p.rank}: {idle}"
        assert idle[0].allocation.requested_nbytes == shapes["V"][0].datatype.size


@pytest.mark.parametrize("kind", ["sm-2gpu", "ib"])
def test_eager_bounces_share_one_size(kind):
    """Device eager messages of several sizes (with and without
    GPUDirect) leave idle bounce buffers of one size, the eager limit,
    not one buffer per distinct message size."""
    from repro.datatype.ddt import contiguous
    from repro.datatype.primitives import DOUBLE

    cfg = MpiConfig(use_gpudirect_rdma=(kind == "ib"))
    env = make_env(kind, config=cfg)
    world = env.world
    dts = [contiguous(n, DOUBLE).commit() for n in (40, 300, 1000, 1536)]
    assert all(dt.size <= cfg.eager_limit for dt in dts)
    bufs = [p.ctx.malloc(dts[-1].size) for p in world.procs]

    def rank0(mpi):
        for dt in dts:
            yield mpi.send(bufs[0], dt, 1, dest=1, tag=1)

    def rank1(mpi):
        for dt in dts:
            yield mpi.recv(bufs[1], dt, 1, source=0, tag=1)

    world.run([rank0, rank1])
    for p in world.procs:
        sizes = {
            nbytes
            for (_kind, nbytes, _mapped), idle in p._staging_pool.items()
            if idle
        }
        assert sizes == {cfg.eager_limit}, f"rank {p.rank}: {sizes}"
