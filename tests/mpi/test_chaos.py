"""Chaos suite: seeded fault injection across every rendezvous protocol.

The tentpole invariant (docs/ROBUSTNESS.md): under any seeded plan of
dropped, duplicated or delayed data-plane messages, failed CUDA IPC
mappings and staging-allocation pressure, every transfer either delivers
byte-exact data — recovering through retransmission, duplicate
suppression, and the fallback ladder (ipc_rdma -> copyinout,
local staging -> direct remote unpack) — or fails loudly with
:class:`TransferTimeout`.  Never silent corruption.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datatype.convertor import pack_bytes
from repro.datatype.ddt import vector
from repro.datatype.primitives import DOUBLE
from repro.faults.plan import FaultSpec, TransferTimeout
from repro.mpi.config import MpiConfig, RetryPolicy
from tests.datatype.strategies import datatypes
from tests.mpi.test_property_end_to_end import build_world

#: non-contiguous on both sides -> the general (ring) pipeline
NONCONTIG = vector(64, 32, 48, DOUBLE).commit()


def faulted_roundtrip(kind, config, dt=None, count=1, seed=99):
    """One send/recv under ``config``; returns (want, got, world)."""
    dt = NONCONTIG if dt is None else dt
    world = build_world(kind, config)
    rng = np.random.default_rng(seed)
    size = max(dt.spans_for_count(count).true_ub, 1) + 64
    bufs = []
    for rank in range(2):
        proc = world.procs[rank]
        if proc.gpu is not None:
            buf = proc.ctx.malloc(size)
        else:
            buf = proc.node.host_memory.alloc(size)
        bufs.append(buf)
    bufs[0].bytes[:] = rng.integers(0, 255, size, dtype=np.uint8)
    bufs[1].fill(0)

    def s(mpi):
        yield mpi.send(bufs[0], dt, count, dest=1, tag=1)

    def r(mpi):
        yield mpi.recv(bufs[1], dt, count, source=0, tag=1)

    world.run([s, r])
    want = pack_bytes(dt, count, bufs[0].bytes)
    got = pack_bytes(dt, count, bufs[1].bytes)
    return want, got, world


FAULT_KINDS = {
    "drop": dict(am_drop=0.25),
    "dup": dict(am_dup=0.5),
    "delay": dict(am_delay=0.5),
    "ipc_open_fail": dict(ipc_open_fail=1.0),
    "staging_fail": dict(staging_fail=1.0),
    "everything": dict(am_drop=0.15, am_dup=0.2, am_delay=0.3,
                       ipc_open_fail=0.3, staging_fail=0.3),
}


@pytest.mark.parametrize("kind", ["sm-2gpu", "ib", "cpu"])
@pytest.mark.parametrize("fault", sorted(FAULT_KINDS))
def test_chaos_byte_exact(kind, fault):
    """protocol x fault-kind sweep: delivery stays byte-exact."""
    cfg = MpiConfig(
        frag_bytes=2048,
        eager_limit=0,
        faults=FaultSpec(seed=7, **FAULT_KINDS[fault]),
    )
    want, got, world = faulted_roundtrip(kind, cfg)
    assert np.array_equal(want, got)
    assert world.stats().is_complete()


def test_chaos_seeded_runs_are_identical():
    """Same seed, same workload -> identical fault history and stats."""
    cfg = MpiConfig(
        frag_bytes=2048, eager_limit=0,
        faults=FaultSpec(seed=21, am_drop=0.3, am_dup=0.3, am_delay=0.3),
    )
    _, got_a, world_a = faulted_roundtrip("ib", cfg)
    _, got_b, world_b = faulted_roundtrip("ib", cfg)
    assert np.array_equal(got_a, got_b)
    sa, sb = world_a.stats(), world_b.stats()
    assert sa.faults_injected == sb.faults_injected
    assert sa.retransmits == sb.retransmits
    assert sa.dup_drops == sb.dup_drops


def test_retransmit_and_dup_counters_surface():
    """Retry/dedupe work shows up in MpiWorld.stats()."""
    cfg = MpiConfig(
        frag_bytes=2048, eager_limit=0,
        faults=FaultSpec(seed=5, am_drop=0.4, am_dup=0.5),
    )
    want, got, world = faulted_roundtrip("ib", cfg)
    assert np.array_equal(want, got)
    ws = world.stats()
    assert ws.retransmits > 0
    assert ws.dup_drops > 0
    assert world.faults is not None and world.faults.injected > 0
    assert sum(ws.faults_injected.values()) == world.faults.injected
    d = ws.to_dict()
    assert d["retransmits"] == ws.retransmits
    assert d["dup_drops"] == ws.dup_drops
    assert d["faults_injected"] == ws.faults_injected


def test_ipc_open_failure_degrades_to_copyinout():
    """Receiver-side mapping failure renegotiates instead of crashing."""
    cfg = MpiConfig(
        frag_bytes=2048, eager_limit=0,
        faults=FaultSpec(seed=2, ipc_open_fail=1.0),
    )
    want, got, world = faulted_roundtrip("sm-2gpu", cfg)
    assert np.array_equal(want, got)
    ws = world.stats()
    # both sides record the renegotiated protocol
    assert ws.by_protocol == {"copyinout": 2}
    assert ws.fallbacks == {"copyinout": 1}
    assert ws.faults_injected.get("ipc_open_fail", 0) >= 1
    assert any(k.endswith("pml.fallback.copyinout") for k in ws.metrics)


def test_staging_pressure_degrades_to_direct_unpack():
    """Losing the optional local stage keeps the RDMA pipeline correct."""
    cfg = MpiConfig(
        frag_bytes=2048, eager_limit=0,
        faults=FaultSpec(seed=2, staging_fail=1.0),
    )
    want, got, world = faulted_roundtrip("sm-2gpu", cfg)
    assert np.array_equal(want, got)
    ws = world.stats()
    assert ws.by_protocol == {"ipc_rdma": 2}
    assert ws.fallbacks == {"direct_unpack": 1}
    assert ws.faults_injected.get("staging_fail.device", 0) >= 1
    assert any(k.endswith("pml.fallback.direct_unpack") for k in ws.metrics)


def test_unreachable_peer_times_out():
    """A dead data plane fails loudly with TransferTimeout, not a hang."""
    cfg = MpiConfig(
        frag_bytes=2048, eager_limit=0,
        retry=RetryPolicy(rto=1e-4, max_retries=2),
        faults=FaultSpec(seed=1, am_drop=1.0),
    )
    with pytest.raises(TransferTimeout):
        faulted_roundtrip("cpu", cfg)


def test_lost_acks_recovered_by_retransmission():
    """ACK-only loss: sender retransmits, receiver dedupes and re-ACKs."""
    cfg = MpiConfig(
        frag_bytes=2048, eager_limit=0,
        faults=FaultSpec(seed=3, am_drop=0.6, targets=("ack",)),
    )
    want, got, world = faulted_roundtrip("cpu", cfg)
    assert np.array_equal(want, got)
    ws = world.stats()
    assert ws.retransmits > 0
    # every retransmitted fragment was either suppressed mid-transfer or
    # re-ACKed by the post-completion tombstone handler
    late = sum(v for k, v in ws.metrics.items()
               if k.endswith("pml.late_retransmits"))
    assert ws.dup_drops + late > 0


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(dt=datatypes(), data=st.randoms())
def test_faulted_pipeline_matches_fault_free(dt, data):
    """Property: a faulted ipc_rdma run delivers what a clean run delivers."""
    seed = data.randint(0, 2**31)
    base = MpiConfig(frag_bytes=4096, pipeline_depth=2, eager_limit=0)
    want_clean, got_clean, _ = faulted_roundtrip(
        "sm-2gpu", base, dt=dt, seed=seed
    )
    faulted = base.but(
        faults=FaultSpec(
            seed=data.randint(0, 2**31),
            am_drop=0.2, am_dup=0.25, am_delay=0.3,
        )
    )
    want_f, got_f, _ = faulted_roundtrip("sm-2gpu", faulted, dt=dt, seed=seed)
    assert np.array_equal(want_clean, got_clean)
    assert np.array_equal(want_f, want_clean)
    assert np.array_equal(got_f, want_f)
