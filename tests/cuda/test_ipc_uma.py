"""Tests for CUDA IPC handles and UMA zero-copy mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuda.ipc import IpcMemHandle
from repro.cuda.uma import (
    is_mapped_host,
    map_host_buffer,
    mapped_gpu,
    unmap_host_buffer,
)


class TestIpc:
    def test_handle_requires_device_memory(self, cluster):
        host = cluster.nodes[0].host_memory.alloc(64)
        with pytest.raises(ValueError):
            IpcMemHandle.get(host)

    def test_mapped_buffer_aliases_bytes(self, cluster, rng):
        g0, g1 = cluster.nodes[0].gpus
        src = g0.memory.alloc(256)
        src.write(rng.random(32))
        handle = IpcMemHandle.get(src)
        fut = handle.open(g1)
        cluster.sim.run()
        mapped = fut.value
        assert np.array_equal(mapped.bytes, src.bytes)
        mapped.bytes[0] = 255
        assert src.bytes[0] == 255

    def test_first_open_pays_registration(self, cluster):
        g0, g1 = cluster.nodes[0].gpus
        src = g0.memory.alloc(64)
        handle = IpcMemHandle.get(src)
        handle.open(g1, registration_cache={})
        cluster.sim.run()
        assert cluster.sim.now == pytest.approx(
            cluster.params.ipc_registration_cost
        )

    def test_cached_open_is_free(self, cluster):
        g0, g1 = cluster.nodes[0].gpus
        src = g0.memory.alloc(64)
        handle = IpcMemHandle.get(src)
        cache: dict = {}
        handle.open(g1, cache)
        cluster.sim.run()
        t = cluster.sim.now
        fut = handle.open(g1, cache)
        assert fut.done  # immediate
        cluster.sim.run()
        assert cluster.sim.now == t

    def test_source_gpu_recorded(self, cluster):
        g0 = cluster.nodes[0].gpus[0]
        handle = IpcMemHandle.get(g0.memory.alloc(64))
        assert handle.source_gpu is g0


class TestUma:
    def test_mapping_round_trip(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        buf = cluster.nodes[0].host_memory.alloc(1024)
        assert not is_mapped_host(buf)
        map_host_buffer(buf, gpu)
        assert is_mapped_host(buf)
        assert mapped_gpu(buf) is gpu
        unmap_host_buffer(buf)
        assert not is_mapped_host(buf)

    def test_sub_buffers_inherit_mapping(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        buf = cluster.nodes[0].host_memory.alloc(1024)
        map_host_buffer(buf, gpu)
        assert is_mapped_host(buf[128:256])
        unmap_host_buffer(buf)

    def test_device_memory_not_mappable(self, cluster):
        gpu = cluster.nodes[0].gpus[0]
        with pytest.raises(ValueError):
            map_host_buffer(gpu.memory.alloc(64), gpu)

    def test_unmap_unmapped_rejected(self, cluster):
        buf = cluster.nodes[0].host_memory.alloc(64)
        with pytest.raises(ValueError):
            unmap_host_buffer(buf)

    def test_mapped_gpu_unmapped_rejected(self, cluster):
        buf = cluster.nodes[0].host_memory.alloc(64)
        with pytest.raises(ValueError):
            mapped_gpu(buf)

    def test_dropped_world_is_collected(self):
        """Zero-copy staging mappings live and die with their allocation:
        after a device eager send (which maps a pooled host bounce
        buffer), dropping the world frees its simulator."""
        import gc
        import weakref

        from repro.bench.harness import make_env
        from repro.datatype.ddt import contiguous
        from repro.datatype.primitives import DOUBLE

        def one_send():
            env = make_env("sm-2gpu")
            dt = contiguous(64, DOUBLE).commit()
            bufs = [env.world.procs[r].ctx.malloc(dt.size) for r in (0, 1)]

            def rank0(mpi):
                yield mpi.send(bufs[0], dt, 1, dest=1, tag=0)

            def rank1(mpi):
                yield mpi.recv(bufs[1], dt, 1, source=0, tag=0)

            env.world.run([rank0, rank1])
            return weakref.ref(env.world.sim)

        sim_ref = one_send()
        gc.collect()
        assert sim_ref() is None
