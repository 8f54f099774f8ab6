"""Seeded-bug fixtures: every checker must catch its bug class.

Each test plants one intentional bug of the kind the paper's pipeline
can produce — an out-of-bounds pack target, ring-slot reuse without
waiting for the ACK, a corrupted DEV list, nondeterministic simulation
code — and asserts the matching checker reports it with an actionable
message.  These are the sanitizers' own regression tests: a refactor
that silently stops detecting one of these classes fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitize
from repro.datatype.ddt import contiguous, vector
from repro.datatype.primitives import BYTE, DOUBLE
from repro.gpu_engine.work_units import WorkUnits
from repro.hw.memory import Buffer, Memory, MemoryKind
from repro.sanitize import SanitizeOptions, SanitizerError
from repro.workloads.matrices import lower_triangular_type


def test_oob_pack_target_caught():
    """Bug: a pack target sized to the *rounded* allocation overruns the
    requested bytes — classic off-by-alignment OOB."""
    with sanitize.enabled(SanitizeOptions.all(mode="raise")):
        mem = Memory("dev", 1 << 20, MemoryKind.DEVICE)
        buf = mem.alloc(1000)  # rounded up; [1000, rounded) is redzone
        with pytest.raises(SanitizerError) as exc:
            Buffer(buf.allocation, 0, buf.allocation.nbytes)
    v = exc.value.violation
    assert v.code == "mem.oob_subbuffer"
    assert "redzone" in v.message and "requested size 1000" in v.message


def test_use_after_free_caught():
    """Bug: touching a staging buffer after releasing it."""
    with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
        mem = Memory("dev", 1 << 20, MemoryKind.DEVICE)
        buf = mem.alloc(4096, label="staging")
        buf.free()
        with pytest.raises(ValueError):
            buf.fill(0)
    (v,) = rep.by_code("mem.use_after_free")
    assert "'staging'" in v.message


def test_ghost_slot_unpack_caught(cluster):
    """Bug: unpacking a ring slot no pack kernel ever filled.

    The receiver trusts a (forged/corrupt) notification and launches an
    unpack of a staging segment that holds only poison.
    """
    from repro.gpu_engine.engine import GpuDatatypeEngine

    dt = lower_triangular_type(64)
    gpu = cluster.nodes[0].gpus[0]
    with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
        engine = GpuDatatypeEngine(gpu)
        dst = gpu.memory.alloc(dt.extent)
        job = engine.unpack_job(dt, 1, dst)
        ghost = gpu.memory.alloc(job.total_bytes, label="ring")  # never packed
        frag = job.single_fragment()
        cluster.sim.run_until_complete(
            cluster.sim.spawn(job.process_fragment(frag, ghost))
        )
    (v,) = rep.by_code("mem.uninit_read")
    assert "no writer ever filled this range" in v.message
    assert "unpack-kernel" in v.where


def test_slot_reuse_without_ack_caught(monkeypatch):
    """Bug: the sender repacks a ring slot without waiting for the ACK of
    the fragment that previously lived there (the slot_free gate from
    docs/ROBUSTNESS.md removed) — under dropped messages the retransmit
    path then overlaps a slot the receiver is still unpacking."""
    from repro.faults.plan import FaultSpec
    from repro.mpi.config import MpiConfig
    from repro.mpi.protocols.common import TransferState
    from repro.sim.core import Future
    from tests.mpi.test_chaos import faulted_roundtrip

    def no_gate(self, i):
        fut = Future(self.proc.sim, label="slot-gate-bypassed")
        fut.resolve(None)
        return fut

    monkeypatch.setattr(TransferState, "slot_free", no_gate)
    with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
        faulted_roundtrip(
            "sm-2gpu",
            MpiConfig(
                frag_bytes=2048,
                eager_limit=0,
                rdma_mode="put",
                faults=FaultSpec(seed=11, am_drop=0.25),
            ),
        )
    races = rep.by_code("race.unordered_access")
    assert races, "removing the slot_free gate must surface the ring race"
    assert any("no happens-before edge" in v.message for v in races)


def test_overlapping_dev_list_caught(cluster, monkeypatch):
    """Bug: the CPU-side DEV conversion emits two units packing into the
    same destination bytes (a broken split would corrupt the stream)."""
    import repro.gpu_engine.engine as engine_mod
    from repro.gpu_engine.engine import GpuDatatypeEngine

    real_split = engine_mod.split_units

    def bad_split(devs, unit_size):
        units = real_split(devs, unit_size)
        bad = WorkUnits(
            units.src_disps.copy(),
            units.dst_disps.copy(),
            units.lens.copy(),
            units.unit_size,
        )
        if bad.count > 1:
            bad.dst_disps[1] = bad.dst_disps[0]
        return bad

    monkeypatch.setattr(engine_mod, "split_units", bad_split)
    dt = lower_triangular_type(64)
    gpu = cluster.nodes[0].gpus[0]
    with sanitize.enabled(SanitizeOptions.all(mode="raise")):
        engine = GpuDatatypeEngine(gpu)
        src = gpu.memory.alloc(dt.extent)
        with pytest.raises(SanitizerError) as exc:
            engine.pack_job(dt, 1, src)
    v = exc.value.violation
    assert v.code == "dev.overlap"
    assert "DEV" in v.where


def test_nondeterministic_sim_code_caught(tmp_path):
    """Bug: simulation code reading the wall clock — every schedule (and
    every race verdict) becomes unreproducible."""
    from repro.sanitize.lint import run_lint

    bad = tmp_path / "repro" / "sim" / "sneaky.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import time\n\ndef backoff():\n    return time.time() % 1\n"
    )
    out = run_lint([str(tmp_path)])
    assert len(out) == 1
    assert out[0].code == "SAN-L001"
    assert "simulator clock" in out[0].message


def test_metric_kind_conflict_caught(tmp_path):
    """Bug: one metric name registered as two instrument kinds."""
    from repro.sanitize.lint import run_lint

    d = tmp_path / "repro" / "obs"
    d.mkdir(parents=True)
    (d / "a.py").write_text("m.counter('x.y').inc()\n")
    (d / "b.py").write_text("m.histogram('x.y').observe(1.0)\n")
    out = run_lint([str(tmp_path)])
    assert {v.code for v in out} == {"SAN-L003"}


def test_seeded_deadlock_caught():
    """Bug: a cyclic blocking sendrecv — every rank rendezvous-sends to
    its neighbour and nobody posts a receive first.  The verifier must
    name each rank's blocked call site (peer, tag, comm) and the cycle
    instead of a silent hang."""
    from repro.bench.harness import make_env
    from repro.sim.core import SimulationError

    dt = contiguous(4096, DOUBLE).commit()  # 32 KB: over the eager limit
    with sanitize.enabled(
        SanitizeOptions(verify=True, mode="record")
    ) as rep:
        env = make_env("cpu")
        bufs = []
        for rank in (0, 1):
            b = env.world.procs[rank].node.host_memory.alloc(dt.size)
            b.fill(0)
            bufs.append(b)

        def program(rank):
            def run(mpi):
                peer = 1 - rank
                yield mpi.send(bufs[rank], dt, 1, dest=peer, tag=5)
                yield mpi.recv(bufs[rank], dt, 1, source=peer, tag=5)
            return run

        with pytest.raises(SimulationError, match="deadlock") as exc:
            env.world.run([program(0), program(1)])
    msg = str(exc.value)
    assert "wait cycle" in msg and "r0 -> r1 -> r0" in msg
    viols = rep.by_code("verify.deadlock")
    assert len(viols) == 2
    assert all("tag=5" in v.message and "comm=0" in v.message for v in viols)
    assert {v.where for v in viols} == {"r0", "r1"}


def test_seeded_request_leak_caught():
    """Bug: an isend whose matching receive never arrives — the program
    'succeeds', the request is a zombie; finalize must name it."""
    from repro.bench.harness import make_env

    dt = contiguous(4096, DOUBLE).commit()
    with sanitize.enabled(SanitizeOptions(verify=True, mode="record")):
        env = make_env("cpu")
        b0 = env.world.procs[0].node.host_memory.alloc(dt.size)
        b0.fill(0)

        def rank0(mpi):
            mpi.isend(b0, dt, 1, dest=1, tag=9)
            return
            yield  # pragma: no cover

        def rank1(mpi):
            return
            yield  # pragma: no cover

        env.world.run([rank0, rank1])
        findings = env.world.finalize()
    leaks = [v for v in findings if v.code == "verify.request_leak"]
    assert len(leaks) == 1
    assert "rank 0 send to r1" in leaks[0].message
    assert "tag=9" in leaks[0].message and "comm=0" in leaks[0].message


def _eager_overlap_races(dt, overlap: bool) -> list:
    """Rank 0 posts an eager irecv and an isend at once, on one host
    buffer (``overlap``) or on two; rank 1 mirrors them.  Returns the
    race reports."""
    from repro.bench.harness import make_env

    with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
        env = make_env("cpu")
        mem = env.world.procs[0].node.host_memory
        bufs = [mem.alloc(dt.extent) for _ in range(4)]
        for b in bufs:
            b.fill(0)
        send0 = bufs[0] if overlap else bufs[1]

        def rank0(mpi):
            r = mpi.irecv(bufs[0], dt, 1, source=1, tag=3)
            s = mpi.isend(send0, dt, 1, dest=1, tag=3)
            yield mpi.wait_all(r, s)

        def rank1(mpi):
            s = mpi.isend(bufs[2], dt, 1, dest=0, tag=3)
            r = mpi.irecv(bufs[3], dt, 1, source=0, tag=3)
            yield mpi.wait_all(s, r)

        env.world.run([rank0, rank1])
    return rep.by_code("race.unordered_access")


EAGER_OVERLAP_TYPES = {
    "contiguous": lambda: contiguous(256, BYTE),
    "vector": lambda: vector(16, 2, 4, DOUBLE),
}


@pytest.mark.parametrize("shape", EAGER_OVERLAP_TYPES)
def test_eager_send_recv_overlap_caught(shape):
    """Bug: an eager isend packs from the buffer an outstanding eager
    irecv unpacks into — nothing orders the pack's read against the
    unpack's write, whichever placement or datatype the eager path
    takes."""
    dt = EAGER_OVERLAP_TYPES[shape]().commit()
    races = _eager_overlap_races(dt, overlap=True)
    assert len(races) == 1
    assert "cpu-unpack" in races[0].message and "cpu-pack" in races[0].message


@pytest.mark.parametrize("shape", EAGER_OVERLAP_TYPES)
def test_eager_send_recv_disjoint_clean(shape):
    """The same exchange on disjoint buffers is race-free."""
    dt = EAGER_OVERLAP_TYPES[shape]().commit()
    assert _eager_overlap_races(dt, overlap=False) == []


def test_blocking_self_send_lint_caught(tmp_path):
    """Bug: ``yield mpi.send(..., dest=mpi.rank)`` — the rendezvous
    self-deadlock shape the collectives avoid with isend-first."""
    from repro.sanitize.lint import run_lint

    bad = tmp_path / "repro" / "mpi" / "selfsend.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "def gather_self(mpi, buf, dt, tag):\n"
        "    rank = mpi.rank\n"
        "    yield mpi.send(buf, dt, 1, dest=rank, tag=tag)\n"
        "    yield mpi.recv(buf, dt, 1, source=rank, tag=tag)\n"
        "\n"
        "def also_bad(mpi, buf, dt):\n"
        "    yield mpi.send(buf, dt, 1, dest=mpi.rank, tag=0)\n"
    )
    out = [v for v in run_lint([str(tmp_path)]) if v.code == "SAN-L005"]
    assert len(out) == 2
    assert all("self-send" in v.message for v in out)
    assert "isend first" in out[0].message


def test_dropped_request_lint_caught(tmp_path):
    """Bug: an isend/irecv Request discarded or bound but never read —
    the static shape of the verify.request_leak runtime finding."""
    from repro.sanitize.lint import run_lint

    bad = tmp_path / "repro" / "mpi" / "dropreq.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "def fire_and_forget(mpi, buf, dt, peer):\n"
        "    mpi.isend(buf, dt, 1, dest=peer, tag=1)\n"  # discarded
        "    req = mpi.irecv(buf, dt, 1, source=peer, tag=2)\n"  # never read
        "    yield mpi.barrier()\n"
        "\n"
        "def correct(mpi, buf, dt, peer):\n"
        "    req = mpi.isend(buf, dt, 1, dest=peer, tag=3)\n"
        "    yield req\n"
    )
    out = [v for v in run_lint([str(tmp_path)]) if v.code == "SAN-L006"]
    assert len(out) == 2
    assert any("discarded" in v.message for v in out)
    assert any("'req'" in v.message and "never read" in v.message for v in out)


def test_violations_surface_as_metrics():
    """Violations double as repro.obs counters for dashboards."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    with sanitize.enabled(
        SanitizeOptions.all(mode="record"), metrics=registry.scoped("sanitize.")
    ) as rep:
        mem = Memory("dev", 1 << 20, MemoryKind.DEVICE)
        buf = mem.alloc(64)
        buf.free()
        with pytest.raises(ValueError):
            _ = buf.bytes
    assert rep.total == 1
    assert (
        registry.counter("sanitize.violations_total").value == 1
    )
    assert (
        registry.counter("sanitize.violations.mem.use_after_free").value == 1
    )
