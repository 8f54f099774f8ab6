"""Golden eager point-to-point behaviour: every placement, pinned exactly.

Each case runs a two-round ping-pong of one eager-sized message between
two ranks: the first round's receive is posted late (the RTS arrives
unexpected), the second is posted before the send.  The grid covers
host and device buffers, contiguous and non-contiguous datatypes, an
intra-node (``sm-2gpu``) and an inter-node GPUDirect (``ib``) transport,
receives posted at exactly the sent size, larger than it, and with a
zero count, and runs without faults and under two seeded fault plans.

The recorded simulated elapsed time, event count, received-byte digest
(over each receive buffer's full posted layout, via the ``pack_bytes``
oracle) and eager transfer counts by (role, mode) must match to the
last bit: refactors of the eager path are required to keep engine
charges, wire order and event order unchanged.

Regenerate the table (only for a change that is *meant* to move the
simulated numbers) with::

    PYTHONPATH=src python -m tests.mpi.test_eager_golden
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter

import numpy as np
import pytest

from repro import sanitize
from repro.bench.harness import make_env
from repro.datatype.convertor import pack_bytes
from repro.datatype.ddt import contiguous, vector
from repro.datatype.primitives import DOUBLE
from repro.faults.plan import FaultSpec
from repro.mpi.config import MpiConfig
from repro.sanitize import SanitizeOptions
from repro.workloads.matrices import lower_triangular_type

#: buffer placement and datatype per case
BUFFERS = {
    "host-contiguous": ("host", lambda: contiguous(128, DOUBLE)),
    "host-vector": ("host", lambda: vector(16, 2, 4, DOUBLE)),
    "device-contiguous": ("device", lambda: contiguous(128, DOUBLE)),
    "device-triangular": ("device", lambda: lower_triangular_type(16)),
}
#: transport: intra-node CUDA IPC pair, or two nodes over IB + GPUDirect
BTLS = ("sm-2gpu", "ib")
#: (send count, posted receive count)
RECVS = {"exact": (1, 1), "larger": (1, 2), "zero": (0, 0)}
#: fault plans: duplication and delay on the default data-plane targets
#: (an active plan on the eager path), and delays aimed at the eager RTS
#: itself, which reorder it against the other direction's traffic.  A
#: duplicated RTS is dropped by the matching engine's re-sequencer and
#: changes only the event count; test_duplicated_rts_is_dropped covers
#: it outside this table
FAULTS = {
    "none": None,
    "dup-delay": FaultSpec(seed=5, am_dup=0.5, am_delay=0.5),
    "rts-delay": FaultSpec(seed=1, am_delay=0.5, targets=("rts",)),
}
#: how long the first round's receiver waits before posting
LATE_POST_S = 40e-6


def run_case(buffers: str, btl: str, recv: str, faults: str) -> tuple:
    """(elapsed sim s, events, received digest, eager counts by role/mode)."""
    loc, make_dt = BUFFERS[buffers]
    dt = make_dt().commit()
    scount, rcount = RECVS[recv]
    cfg = MpiConfig(use_gpudirect_rdma=(btl == "ib"), faults=FAULTS[faults])
    env = make_env(btl, config=cfg)
    world = env.world
    rng = np.random.default_rng(2016)
    nbytes = max(rcount, 1) * dt.extent

    def alloc(rank: int):
        proc = world.procs[rank]
        if loc == "device":
            buf = proc.ctx.malloc(nbytes)
        else:
            buf = proc.node.host_memory.alloc(nbytes)
        buf.bytes[:] = rng.integers(0, 255, buf.nbytes, dtype=np.uint8)
        return buf

    sbufs = [alloc(0), alloc(1)]
    rbufs = [alloc(0), alloc(1)]

    def rank0(mpi):
        for _ in range(2):
            yield mpi.send(sbufs[0], dt, scount, dest=1, tag=1)
            yield mpi.recv(rbufs[0], dt, rcount, source=1, tag=2)

    def rank1(mpi):
        for rnd in range(2):
            if rnd == 0:
                yield mpi.sim.timeout(LATE_POST_S)
            yield mpi.recv(rbufs[1], dt, rcount, source=0, tag=1)
            yield mpi.send(sbufs[1], dt, scount, dest=0, tag=2)

    elapsed = world.run([rank0, rank1])
    world.finalize()
    h = hashlib.blake2b(digest_size=12)
    for buf in rbufs:
        h.update(pack_bytes(dt, rcount, buf.bytes).tobytes())
    ws = world.stats()
    counts = Counter(
        (t.role, t.mode) for t in ws.transfers if t.protocol == "eager"
    )
    return (
        elapsed,
        world.sim.events_processed,
        h.hexdigest(),
        tuple(sorted(counts.items())),
    )


#: (buffers, btl, recv, faults) -> run_case(...)
GOLDEN = {
    ('host-contiguous', 'sm-2gpu', 'exact', 'none'): (4.509755163192751e-05, 15, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'sm-2gpu', 'exact', 'dup-delay'): (4.509755163192751e-05, 15, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'sm-2gpu', 'exact', 'rts-delay'): (0.001006269578933716, 17, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'sm-2gpu', 'larger', 'none'): (4.509755163192751e-05, 15, 'e5d7233f45b5142a3aedcdf7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'sm-2gpu', 'larger', 'dup-delay'): (4.509755163192751e-05, 15, 'e5d7233f45b5142a3aedcdf7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'sm-2gpu', 'larger', 'rts-delay'): (0.001006269578933716, 17, 'e5d7233f45b5142a3aedcdf7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'sm-2gpu', 'zero', 'none'): (4.197235174179078e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'sm-2gpu', 'zero', 'dup-delay'): (4.197235174179078e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'sm-2gpu', 'zero', 'rts-delay'): (0.0010026298023223879, 9, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'ib', 'exact', 'none'): (5.0114606857299826e-05, 15, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'ib', 'exact', 'dup-delay'): (5.0114606857299826e-05, 15, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'ib', 'exact', 'rts-delay'): (0.001012958985900879, 17, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'ib', 'larger', 'none'): (5.0114606857299826e-05, 15, 'e5d7233f45b5142a3aedcdf7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'ib', 'larger', 'dup-delay'): (5.0114606857299826e-05, 15, 'e5d7233f45b5142a3aedcdf7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'ib', 'larger', 'rts-delay'): (0.001012958985900879, 17, 'e5d7233f45b5142a3aedcdf7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'ib', 'zero', 'none'): (4.692629616681268e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'ib', 'zero', 'dup-delay'): (4.692629616681268e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-contiguous', 'ib', 'zero', 'rts-delay'): (0.0010092350615557503, 9, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'sm-2gpu', 'exact', 'none'): (4.449554471969604e-05, 15, '0fa83835b8b7d28f1401cba7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'sm-2gpu', 'exact', 'dup-delay'): (4.449554471969604e-05, 15, '0fa83835b8b7d28f1401cba7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'sm-2gpu', 'exact', 'rts-delay'): (0.001005530481338501, 17, '0fa83835b8b7d28f1401cba7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'sm-2gpu', 'larger', 'none'): (4.449554471969604e-05, 15, 'ce035213710012e59deb53d8', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'sm-2gpu', 'larger', 'dup-delay'): (4.449554471969604e-05, 15, 'ce035213710012e59deb53d8', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'sm-2gpu', 'larger', 'rts-delay'): (0.001005530481338501, 17, 'ce035213710012e59deb53d8', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'sm-2gpu', 'zero', 'none'): (4.197235174179078e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'sm-2gpu', 'zero', 'dup-delay'): (4.197235174179078e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'sm-2gpu', 'zero', 'rts-delay'): (0.0010026298023223879, 9, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'ib', 'exact', 'none'): (4.9465266844805545e-05, 15, '0fa83835b8b7d28f1401cba7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'ib', 'exact', 'dup-delay'): (4.9465266844805545e-05, 15, '0fa83835b8b7d28f1401cba7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'ib', 'exact', 'rts-delay'): (0.0010121567775053136, 17, '0fa83835b8b7d28f1401cba7', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'ib', 'larger', 'none'): (4.9465266844805545e-05, 15, 'ce035213710012e59deb53d8', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'ib', 'larger', 'dup-delay'): (4.9465266844805545e-05, 15, 'ce035213710012e59deb53d8', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'ib', 'larger', 'rts-delay'): (0.0010121567775053136, 17, 'ce035213710012e59deb53d8', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'ib', 'zero', 'none'): (4.692629616681268e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'ib', 'zero', 'dup-delay'): (4.692629616681268e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('host-vector', 'ib', 'zero', 'rts-delay'): (0.0010092350615557503, 9, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'sm-2gpu', 'exact', 'none'): (9.276966755497528e-05, 15, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'sm-2gpu', 'exact', 'dup-delay'): (9.276966755497528e-05, 15, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'sm-2gpu', 'exact', 'rts-delay'): (0.0010607519971314846, 17, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'sm-2gpu', 'larger', 'none'): (9.276960088830861e-05, 15, 'e5d7233f45b5142a3aedcdf7', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'sm-2gpu', 'larger', 'dup-delay'): (9.276960088830861e-05, 15, 'e5d7233f45b5142a3aedcdf7', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'sm-2gpu', 'larger', 'rts-delay'): (0.0010607519304648182, 17, 'e5d7233f45b5142a3aedcdf7', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'sm-2gpu', 'zero', 'none'): (4.197235174179078e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'sm-2gpu', 'zero', 'dup-delay'): (4.197235174179078e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'sm-2gpu', 'zero', 'rts-delay'): (0.0010026298023223879, 9, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-contiguous', 'ib', 'exact', 'none'): (8.938672278034763e-05, 15, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-contiguous', 'ib', 'exact', 'dup-delay'): (8.938672278034763e-05, 15, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-contiguous', 'ib', 'exact', 'rts-delay'): (0.001057841404098648, 17, 'f8aa0a8e3e5c09be0c9c035e', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-contiguous', 'ib', 'larger', 'none'): (8.938665611368095e-05, 15, 'e5d7233f45b5142a3aedcdf7', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-contiguous', 'ib', 'larger', 'dup-delay'): (8.938665611368095e-05, 15, 'e5d7233f45b5142a3aedcdf7', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-contiguous', 'ib', 'larger', 'rts-delay'): (0.0010578413374319811, 17, 'e5d7233f45b5142a3aedcdf7', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-contiguous', 'ib', 'zero', 'none'): (4.692629616681268e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-contiguous', 'ib', 'zero', 'dup-delay'): (4.692629616681268e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-contiguous', 'ib', 'zero', 'rts-delay'): (0.0010092350615557503, 9, 'b8e1dda3ac0aa3820ad2990b', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-triangular', 'sm-2gpu', 'exact', 'none'): (9.637948626597416e-05, 17, '3ae189c5b4de620f549b3460', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-triangular', 'sm-2gpu', 'exact', 'dup-delay'): (9.637948626597416e-05, 17, '3ae189c5b4de620f549b3460', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-triangular', 'sm-2gpu', 'exact', 'rts-delay'): (0.0010658023843875518, 19, '3ae189c5b4de620f549b3460', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-triangular', 'sm-2gpu', 'larger', 'none'): (9.852760586000319e-05, 19, 'b1ee4f869668541ac325421d', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-triangular', 'sm-2gpu', 'larger', 'dup-delay'): (9.852760586000319e-05, 19, 'b1ee4f869668541ac325421d', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-triangular', 'sm-2gpu', 'larger', 'rts-delay'): (0.0010679505039815809, 21, 'b1ee4f869668541ac325421d', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-triangular', 'sm-2gpu', 'zero', 'none'): (4.197235174179078e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-triangular', 'sm-2gpu', 'zero', 'dup-delay'): (4.197235174179078e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-triangular', 'sm-2gpu', 'zero', 'rts-delay'): (0.0010026298023223879, 9, 'b8e1dda3ac0aa3820ad2990b', ((('recv', ''), 4), (('send', ''), 4))),
    ('device-triangular', 'ib', 'exact', 'none'): (9.300048591636839e-05, 17, '3ae189c5b4de620f549b3460', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-triangular', 'ib', 'exact', 'dup-delay'): (9.300048591636839e-05, 17, '3ae189c5b4de620f549b3460', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-triangular', 'ib', 'exact', 'rts-delay'): (0.001062897050588077, 19, '3ae189c5b4de620f549b3460', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-triangular', 'ib', 'larger', 'none'): (9.514860551039741e-05, 19, 'b1ee4f869668541ac325421d', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-triangular', 'ib', 'larger', 'dup-delay'): (9.514860551039741e-05, 19, 'b1ee4f869668541ac325421d', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-triangular', 'ib', 'larger', 'rts-delay'): (0.0010650451701821062, 21, 'b1ee4f869668541ac325421d', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-triangular', 'ib', 'zero', 'none'): (4.692629616681268e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-triangular', 'ib', 'zero', 'dup-delay'): (4.692629616681268e-05, 7, 'b8e1dda3ac0aa3820ad2990b', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
    ('device-triangular', 'ib', 'zero', 'rts-delay'): (0.0010092350615557503, 9, 'b8e1dda3ac0aa3820ad2990b', ((('recv', 'gpudirect'), 4), (('send', 'gpudirect'), 4))),
}


@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("recv", RECVS)
@pytest.mark.parametrize("btl", BTLS)
@pytest.mark.parametrize("buffers", BUFFERS)
def test_eager_timing_and_bytes_pinned(buffers, btl, recv, faults):
    assert run_case(buffers, btl, recv, faults) == GOLDEN[
        (buffers, btl, recv, faults)
    ]


@pytest.mark.parametrize("buffers", ["host-contiguous", "device-triangular"])
def test_duplicated_rts_is_dropped(buffers, monkeypatch):
    """Every RTS delivered twice: each copy is dropped at the matching
    engine and counted, the verifier stays clean (the copies used to sit
    in the re-sequencer and fail the finalize audit with
    ``verify.seq_gap``), and timing and bytes equal the fault-free run."""
    envs = []
    real_make_env = make_env

    def capture(*args, **kwargs):
        envs.append(real_make_env(*args, **kwargs))
        return envs[-1]

    monkeypatch.setattr(sys.modules[__name__], "make_env", capture)
    monkeypatch.setitem(
        FAULTS, "rts-dup", FaultSpec(seed=1, am_dup=1.0, targets=("rts",))
    )
    with sanitize.enabled(SanitizeOptions.all(mode="record")) as rep:
        elapsed, _events, digest, counts = run_case(
            buffers, "sm-2gpu", "exact", "rts-dup"
        )
    assert rep.violations == []
    ref = GOLDEN[(buffers, "sm-2gpu", "exact", "none")]
    assert (elapsed, digest, counts) == (ref[0], ref[2], ref[3])
    snap = envs[0].world.metrics.snapshot()
    dropped = {
        k: v for k, v in snap.items() if k.endswith("matching.dup_arrivals_dropped")
    }
    # two sends per direction, each RTS duplicated once
    assert dropped == {
        "r0.matching.dup_arrivals_dropped": 2,
        "r1.matching.dup_arrivals_dropped": 2,
    }


if __name__ == "__main__":
    print("GOLDEN = {")
    for buffers in BUFFERS:
        for btl in BTLS:
            for recv in RECVS:
                for faults in FAULTS:
                    got = run_case(buffers, btl, recv, faults)
                    print(f"    {(buffers, btl, recv, faults)!r}: {got!r},")
    print("}")
