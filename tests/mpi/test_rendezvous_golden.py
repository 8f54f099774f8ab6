"""Golden rendezvous behaviour: every protocol and mode, pinned exactly.

Each case runs a two-round ping-pong of one multi-fragment message
between two ranks (``eager_limit=0`` and 2 KB fragments, so every
message is a rendezvous of several pipeline fragments and the ring
wraps).  The first round's receive is posted late, the second round
reuses the pooled staging rings and the cached IPC mappings.  The grid
covers:

* host pairs, contiguous and vector (the ``host`` pipeline);
* a mixed host -> device pair (``copyinout`` with a CPU side);
* device pairs across nodes with UMA zero-copy on and off
  (``copyinout`` with GPU sides);
* device pairs on two GPUs of one node: the ``general`` ring with and
  without receiver local staging, contiguous against vector
  (``send_contig`` one way, ``recv_contig`` back) and ``both_contig``;
* device pairs sharing one GPU: ``general`` and ``both_contig``.

Every case runs without faults and under seeded fragment drop and
duplication plans; the CUDA IPC cases also under failed IPC opens (the
copy-in/out fallback and the sender-side retry), and the two cases
with a receiver local stage under refused staging allocations (the
``direct_unpack`` fallback).

The recorded simulated elapsed time, event count, received-byte digest
(over each receive buffer's full layout, via the ``pack_bytes`` oracle)
and rendezvous transfer counts by (role, protocol, mode, fallback) must
match to the last bit: refactors of the rendezvous protocols are
required to keep engine charges, wire order and event order unchanged.

Regenerate the table (only for a change that is *meant* to move the
simulated numbers) with::

    PYTHONPATH=src python -m tests.mpi.test_rendezvous_golden
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.bench.harness import make_env
from repro.datatype.convertor import pack_bytes
from repro.datatype.ddt import contiguous, vector
from repro.datatype.primitives import DOUBLE
from repro.faults.plan import FaultSpec
from repro.mpi.config import MpiConfig

#: 12 KB packed per message: six 2 KB fragments through a 4-deep ring
FRAG_BYTES = 2048


def _contig():
    return contiguous(1536, DOUBLE)


def _vector():
    return vector(96, 16, 24, DOUBLE)


#: case -> (env kind, (rank0 loc, rank1 loc), (rank0 dt, rank1 dt),
#: MpiConfig overrides)
CASES = {
    "host-contiguous": ("cpu", ("host", "host"), (_contig, _contig), {}),
    "host-vector": ("cpu", ("host", "host"), (_vector, _vector), {}),
    "mixed-host-device": (
        "sm-2gpu", ("host", "device"), (_contig, _vector), {}
    ),
    "copyinout-zero-copy": (
        "ib", ("device", "device"), (_vector, _vector), {"zero_copy": True}
    ),
    "copyinout-staged": (
        "ib", ("device", "device"), (_vector, _vector), {"zero_copy": False}
    ),
    "2gpu-general-local-stage": (
        "sm-2gpu", ("device", "device"), (_vector, _vector),
        {"receiver_local_staging": True},
    ),
    "2gpu-general-direct": (
        "sm-2gpu", ("device", "device"), (_vector, _vector),
        {"receiver_local_staging": False},
    ),
    "2gpu-send-recv-contig": (
        "sm-2gpu", ("device", "device"), (_contig, _vector), {}
    ),
    "2gpu-both-contig": (
        "sm-2gpu", ("device", "device"), (_contig, _contig), {}
    ),
    "1gpu-general": ("sm-1gpu", ("device", "device"), (_vector, _vector), {}),
    "1gpu-both-contig": (
        "sm-1gpu", ("device", "device"), (_contig, _contig), {}
    ),
}
#: fault plans on the default data-plane targets (frag and ack
#: notifications), failed CUDA IPC opens, and refused optional staging
FAULTS = {
    "none": None,
    "drop": FaultSpec(seed=7, am_drop=0.25),
    "dup": FaultSpec(seed=7, am_dup=0.5),
    "ipc_open_fail": FaultSpec(seed=9, ipc_open_fail=0.5),
    "staging_fail": FaultSpec(seed=1, staging_fail=1.0),
}
_IPC = tuple(k for k in CASES if k.startswith(("2gpu", "1gpu")))
#: which extra fault plans apply to which cases
EXTRA_FAULTS = {
    "ipc_open_fail": _IPC,
    "staging_fail": ("2gpu-general-local-stage", "2gpu-send-recv-contig"),
}
#: how long the first round's receiver waits before posting
LATE_POST_S = 40e-6


def grid() -> list[tuple[str, str]]:
    """Every (case, faults) pair the table pins."""
    out = []
    for case in CASES:
        for faults in FAULTS:
            if faults in EXTRA_FAULTS and case not in EXTRA_FAULTS[faults]:
                continue
            out.append((case, faults))
    return out


def run_case(case: str, faults: str) -> tuple:
    """(elapsed sim s, events, received digest, counts by role/protocol/
    mode/fallback)."""
    kind, locs, makers, overrides = CASES[case]
    dts = [make().commit() for make in makers]
    cfg = MpiConfig(
        frag_bytes=FRAG_BYTES, eager_limit=0, faults=FAULTS[faults], **overrides
    )
    env = make_env(kind, config=cfg)
    world = env.world
    rng = np.random.default_rng(2016)

    def alloc(rank: int):
        proc = world.procs[rank]
        nbytes = dts[rank].extent
        if locs[rank] == "device":
            buf = proc.ctx.malloc(nbytes)
        else:
            buf = proc.node.host_memory.alloc(nbytes)
        buf.bytes[:] = rng.integers(0, 255, buf.nbytes, dtype=np.uint8)
        return buf

    sbufs = [alloc(0), alloc(1)]
    rbufs = [alloc(0), alloc(1)]

    def rank0(mpi):
        for _ in range(2):
            yield mpi.send(sbufs[0], dts[0], 1, dest=1, tag=1)
            yield mpi.recv(rbufs[0], dts[0], 1, source=1, tag=2)

    def rank1(mpi):
        for rnd in range(2):
            if rnd == 0:
                yield mpi.sim.timeout(LATE_POST_S)
            yield mpi.recv(rbufs[1], dts[1], 1, source=0, tag=1)
            yield mpi.send(sbufs[1], dts[1], 1, dest=0, tag=2)

    elapsed = world.run([rank0, rank1])
    world.finalize()
    h = hashlib.blake2b(digest_size=12)
    for rank, buf in enumerate(rbufs):
        h.update(pack_bytes(dts[rank], 1, buf.bytes).tobytes())
    ws = world.stats()
    counts = Counter(
        (t.role, t.protocol, t.mode, t.fallback)
        for t in ws.transfers
        if t.protocol != "eager"
    )
    return (
        elapsed,
        world.sim.events_processed,
        h.hexdigest(),
        tuple(sorted(counts.items())),
    )


#: (case, faults) -> run_case(...)
GOLDEN = {
    ('host-contiguous', 'none'): (6.561496496200567e-05, 83, 'a72f41b5ede3fe070ef87983', ((('recv', 'host', '', ''), 4), (('send', 'host', '', ''), 4))),
    ('host-contiguous', 'drop'): (0.07005767049550995, 133, 'a72f41b5ede3fe070ef87983', ((('recv', 'host', '', ''), 4), (('send', 'host', '', ''), 4))),
    ('host-contiguous', 'dup'): (6.715966844558722e-05, 127, 'a72f41b5ede3fe070ef87983', ((('recv', 'host', '', ''), 4), (('send', 'host', '', ''), 4))),
    ('host-vector', 'none'): (7.874250326156615e-05, 107, 'd5bd312ac9175d164990c2df', ((('recv', 'host', '', ''), 4), (('send', 'host', '', ''), 4))),
    ('host-vector', 'drop'): (0.3220608999166488, 173, 'd5bd312ac9175d164990c2df', ((('recv', 'host', '', ''), 4), (('send', 'host', '', ''), 4))),
    ('host-vector', 'dup'): (7.874250326156615e-05, 148, 'd5bd312ac9175d164990c2df', ((('recv', 'host', '', ''), 4), (('send', 'host', '', ''), 4))),
    ('mixed-host-device', 'none'): (0.0002249322642892121, 107, '1c5cb3dd5a960fbae65ffff0', ((('recv', 'copyinout', '', ''), 4), (('send', 'copyinout', '', ''), 4))),
    ('mixed-host-device', 'drop'): (0.04412582904903859, 154, '1c5cb3dd5a960fbae65ffff0', ((('recv', 'copyinout', '', ''), 4), (('send', 'copyinout', '', ''), 4))),
    ('mixed-host-device', 'dup'): (0.0002249322642892121, 150, '1c5cb3dd5a960fbae65ffff0', ((('recv', 'copyinout', '', ''), 4), (('send', 'copyinout', '', ''), 4))),
    ('copyinout-zero-copy', 'none'): (0.00027289965773058544, 107, 'd5bd312ac9175d164990c2df', ((('recv', 'copyinout', '', ''), 4), (('send', 'copyinout', '', ''), 4))),
    ('copyinout-zero-copy', 'drop'): (0.04415611286574557, 155, 'd5bd312ac9175d164990c2df', ((('recv', 'copyinout', '', ''), 4), (('send', 'copyinout', '', ''), 4))),
    ('copyinout-zero-copy', 'dup'): (0.00027289965773058544, 154, 'd5bd312ac9175d164990c2df', ((('recv', 'copyinout', '', ''), 4), (('send', 'copyinout', '', ''), 4))),
    ('copyinout-staged', 'none'): (0.0004179859207514186, 155, 'd5bd312ac9175d164990c2df', ((('recv', 'copyinout', '', ''), 4), (('send', 'copyinout', '', ''), 4))),
    ('copyinout-staged', 'drop'): (0.04421829269275453, 203, 'd5bd312ac9175d164990c2df', ((('recv', 'copyinout', '', ''), 4), (('send', 'copyinout', '', ''), 4))),
    ('copyinout-staged', 'dup'): (0.0004179859207514186, 202, 'd5bd312ac9175d164990c2df', ((('recv', 'copyinout', '', ''), 4), (('send', 'copyinout', '', ''), 4))),
    ('2gpu-general-local-stage', 'none'): (0.0008424269429810085, 181, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', ''), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('2gpu-general-local-stage', 'drop'): (0.0844869013971823, 228, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', ''), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('2gpu-general-local-stage', 'dup'): (0.0008424269429810085, 209, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', ''), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('2gpu-general-local-stage', 'ipc_open_fail'): (0.0007145029658486585, 129, 'd5bd312ac9175d164990c2df', ((('recv', 'copyinout', '', 'copyinout'), 3), (('recv', 'ipc_rdma', 'general', ''), 1), (('send', 'copyinout', '', ''), 3), (('send', 'ipc_rdma', 'general', ''), 1))),
    ('2gpu-general-local-stage', 'staging_fail'): (0.0008389079658214685, 157, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', 'direct_unpack'), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('2gpu-general-direct', 'none'): (0.0008389079658214685, 157, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', ''), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('2gpu-general-direct', 'drop'): (0.042477814664587596, 207, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', ''), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('2gpu-general-direct', 'dup'): (0.0008389079658214685, 185, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', ''), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('2gpu-general-direct', 'ipc_open_fail'): (0.0007136232215587733, 123, 'd5bd312ac9175d164990c2df', ((('recv', 'copyinout', '', 'copyinout'), 3), (('recv', 'ipc_rdma', 'general', ''), 1), (('send', 'copyinout', '', ''), 3), (('send', 'ipc_rdma', 'general', ''), 1))),
    ('2gpu-send-recv-contig', 'none'): (0.0006090304356158691, 77, '1c5cb3dd5a960fbae65ffff0', ((('recv', 'ipc_rdma', 'recv_contig', ''), 2), (('recv', 'ipc_rdma', 'send_contig', ''), 2), (('send', 'ipc_rdma', 'recv_contig', ''), 2), (('send', 'ipc_rdma', 'send_contig', ''), 2))),
    ('2gpu-send-recv-contig', 'drop'): (0.0006090304356158691, 77, '1c5cb3dd5a960fbae65ffff0', ((('recv', 'ipc_rdma', 'recv_contig', ''), 2), (('recv', 'ipc_rdma', 'send_contig', ''), 2), (('send', 'ipc_rdma', 'recv_contig', ''), 2), (('send', 'ipc_rdma', 'send_contig', ''), 2))),
    ('2gpu-send-recv-contig', 'dup'): (0.0006090304356158691, 77, '1c5cb3dd5a960fbae65ffff0', ((('recv', 'ipc_rdma', 'recv_contig', ''), 2), (('recv', 'ipc_rdma', 'send_contig', ''), 2), (('send', 'ipc_rdma', 'recv_contig', ''), 2), (('send', 'ipc_rdma', 'send_contig', ''), 2))),
    ('2gpu-send-recv-contig', 'ipc_open_fail'): (0.006688400143119922, 80, '1c5cb3dd5a960fbae65ffff0', ((('recv', 'copyinout', '', 'copyinout'), 2), (('recv', 'ipc_rdma', 'recv_contig', ''), 2), (('send', 'copyinout', '', ''), 2), (('send', 'ipc_rdma', 'recv_contig', ''), 2))),
    ('2gpu-send-recv-contig', 'staging_fail'): (0.0006072709470360991, 65, '1c5cb3dd5a960fbae65ffff0', ((('recv', 'ipc_rdma', 'recv_contig', ''), 2), (('recv', 'ipc_rdma', 'send_contig', 'direct_unpack'), 2), (('send', 'ipc_rdma', 'recv_contig', ''), 2), (('send', 'ipc_rdma', 'send_contig', ''), 2))),
    ('2gpu-both-contig', 'none'): (0.0003809827077326564, 41, 'a72f41b5ede3fe070ef87983', ((('recv', 'ipc_rdma', 'both_contig', ''), 4), (('send', 'ipc_rdma', 'both_contig', ''), 4))),
    ('2gpu-both-contig', 'drop'): (0.0003809827077326564, 41, 'a72f41b5ede3fe070ef87983', ((('recv', 'ipc_rdma', 'both_contig', ''), 4), (('send', 'ipc_rdma', 'both_contig', ''), 4))),
    ('2gpu-both-contig', 'dup'): (0.0003809827077326564, 41, 'a72f41b5ede3fe070ef87983', ((('recv', 'ipc_rdma', 'both_contig', ''), 4), (('send', 'ipc_rdma', 'both_contig', ''), 4))),
    ('2gpu-both-contig', 'ipc_open_fail'): (0.0005988940960360439, 94, 'a72f41b5ede3fe070ef87983', ((('recv', 'copyinout', '', 'copyinout'), 3), (('recv', 'ipc_rdma', 'both_contig', ''), 1), (('send', 'copyinout', '', ''), 3), (('send', 'ipc_rdma', 'both_contig', ''), 1))),
    ('1gpu-general', 'none'): (0.000803139740008021, 157, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', ''), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('1gpu-general', 'drop'): (0.17837135264457427, 223, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', ''), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('1gpu-general', 'dup'): (0.000803139740008021, 185, 'd5bd312ac9175d164990c2df', ((('recv', 'ipc_rdma', 'general', ''), 4), (('send', 'ipc_rdma', 'general', ''), 4))),
    ('1gpu-general', 'ipc_open_fail'): (0.0007046811651054117, 123, 'd5bd312ac9175d164990c2df', ((('recv', 'copyinout', '', 'copyinout'), 3), (('recv', 'ipc_rdma', 'general', ''), 1), (('send', 'copyinout', '', ''), 3), (('send', 'ipc_rdma', 'general', ''), 1))),
    ('1gpu-both-contig', 'none'): (0.00024365646721522023, 21, 'a72f41b5ede3fe070ef87983', ((('recv', 'ipc_rdma', 'both_contig', ''), 4), (('send', 'ipc_rdma', 'both_contig', ''), 4))),
    ('1gpu-both-contig', 'drop'): (0.00024365646721522023, 21, 'a72f41b5ede3fe070ef87983', ((('recv', 'ipc_rdma', 'both_contig', ''), 4), (('send', 'ipc_rdma', 'both_contig', ''), 4))),
    ('1gpu-both-contig', 'dup'): (0.00024365646721522023, 21, 'a72f41b5ede3fe070ef87983', ((('recv', 'ipc_rdma', 'both_contig', ''), 4), (('send', 'ipc_rdma', 'both_contig', ''), 4))),
    ('1gpu-both-contig', 'ipc_open_fail'): (0.0005645625359066845, 89, 'a72f41b5ede3fe070ef87983', ((('recv', 'copyinout', '', 'copyinout'), 3), (('recv', 'ipc_rdma', 'both_contig', ''), 1), (('send', 'copyinout', '', ''), 3), (('send', 'ipc_rdma', 'both_contig', ''), 1))),
}


@pytest.mark.parametrize("case,faults", grid())
def test_rendezvous_timing_and_bytes_pinned(case, faults):
    assert run_case(case, faults) == GOLDEN[(case, faults)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case, faults in grid():
        print(f"    {(case, faults)!r}: {run_case(case, faults)!r},")
    print("}")
