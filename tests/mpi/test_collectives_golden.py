"""Golden rung timings: every collective x every rung, pinned exactly.

Each case runs one op on a 2-node x 2-GPU world with device buffers and
a non-contiguous (lower-triangular) datatype, twice in a row so the
second call hits warm caches and staging pools.  The recorded simulated
elapsed time, event count and received-byte digest must match to the
last bit: refactors of the collective ladder are required to keep
message order, staging traffic and event order unchanged, and any drift
in those shows up here as a changed float.

Regenerate the table (only for a change that is *meant* to move the
simulated numbers) with::

    PYTHONPATH=src python -m tests.mpi.test_collectives_golden
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datatype.convertor import pack_bytes
from repro.hw.node import Cluster
from repro.mpi.collectives import allgather, alltoall, alltoallv, bcast, gather
from repro.mpi.world import MpiWorld
from repro.workloads.matrices import lower_triangular_type

OPS = ("bcast", "gather", "allgather", "alltoall", "alltoallv")
RUNGS = ("pairwise", "nonblocking", "staged", "direct")
SIZE = 4
#: triangular order per protocol: 136 doubles (1088 packed bytes) per
#: block ride eager; 2080 doubles (16.6 KB) go rendezvous
ORDERS = {"eager": 16, "rendezvous": 64}


def _a2av_count(src: int, dst: int) -> int:
    """Ragged alltoallv counts with zeros (self blocks included)."""
    return (src + 2 * dst) % 3


def run_case(op: str, rung: str, proto: str) -> tuple[float, int, str]:
    """(elapsed sim s, events processed, digest of received bytes)."""
    cluster = Cluster(2, 2)
    world = MpiWorld(cluster, [(n, g) for n in range(2) for g in range(2)])
    dt = lower_triangular_type(ORDERS[proto])
    rng = np.random.default_rng(2016)

    def dev(rank: int, count: int = 1):
        buf = world.procs[rank].ctx.malloc(max(count, 1) * dt.extent)
        buf.bytes[:] = rng.integers(0, 255, buf.nbytes, dtype=np.uint8)
        return buf

    if op == "alltoallv":
        scounts = [[_a2av_count(r, d) for d in range(SIZE)] for r in range(SIZE)]
        rcounts = [[_a2av_count(s, r) for s in range(SIZE)] for r in range(SIZE)]
    else:
        scounts = rcounts = [[1] * SIZE for _ in range(SIZE)]
    sends = [[dev(r, scounts[r][d]) for d in range(SIZE)] for r in range(SIZE)]
    recvs = [[dev(r, rcounts[r][s]) for s in range(SIZE)] for r in range(SIZE)]

    def program(rank: int):
        def run(mpi):
            for call in range(2):
                root = call % SIZE
                if op == "bcast":
                    buf = sends[rank][0] if rank == root else recvs[rank][call]
                    yield from bcast(mpi, buf, dt, 1, root=root, algorithm=rung)
                elif op == "gather":
                    yield from gather(
                        mpi, sends[rank][call], dt, 1,
                        recvs[rank] if rank == root else None,
                        dt if rank == root else None, 1,
                        root=root, algorithm=rung,
                    )
                elif op == "allgather":
                    yield from allgather(
                        mpi, sends[rank][call], dt, 1, recvs[rank], dt, 1,
                        algorithm=rung,
                    )
                elif op == "alltoall":
                    yield from alltoall(
                        mpi, sends[rank], dt, 1, recvs[rank], dt, 1,
                        algorithm=rung,
                    )
                else:
                    yield from alltoallv(
                        mpi, sends[rank], dt, scounts[rank],
                        recvs[rank], dt, rcounts[rank], algorithm=rung,
                    )
        return run

    elapsed = world.run({r: program(r) for r in range(SIZE)})
    world.finalize()
    h = hashlib.blake2b(digest_size=12)
    for r in range(SIZE):
        for s in range(SIZE):
            h.update(pack_bytes(dt, rcounts[r][s], recvs[r][s].bytes).tobytes())
    return elapsed, world.sim.events_processed, h.hexdigest()


#: (op, rung, proto) -> (elapsed sim seconds, events processed, received digest)
GOLDEN = {
    ('bcast', 'pairwise', 'eager'): (6.836560703706944e-05, 26, '8406a0a6f14c79f80803b46f'),
    ('bcast', 'pairwise', 'rendezvous'): (0.00022610460180199298, 52, 'ef334601832e7712ae612b1f'),
    ('bcast', 'nonblocking', 'eager'): (6.48337702391789e-05, 26, '8406a0a6f14c79f80803b46f'),
    ('bcast', 'nonblocking', 'rendezvous'): (0.0002712866563602864, 52, 'ef334601832e7712ae612b1f'),
    ('bcast', 'staged', 'eager'): (6.130200184745584e-05, 42, '8406a0a6f14c79f80803b46f'),
    ('bcast', 'staged', 'rendezvous'): (9.991861285488688e-05, 54, 'ef334601832e7712ae612b1f'),
    ('bcast', 'direct', 'eager'): (0.00020825891149527185, 34, '8406a0a6f14c79f80803b46f'),
    ('bcast', 'direct', 'rendezvous'): (0.00021263564598108744, 34, 'ef334601832e7712ae612b1f'),
    ('gather', 'pairwise', 'eager'): (7.072483156286546e-05, 32, '29cd7a20750cf3c46249497d'),
    ('gather', 'pairwise', 'rendezvous'): (0.0005644520349946593, 70, '0d4d3f2957fe5990b01c3f3f'),
    ('gather', 'nonblocking', 'eager'): (5.559537581522953e-05, 32, '29cd7a20750cf3c46249497d'),
    ('gather', 'nonblocking', 'rendezvous'): (0.0002715441069408833, 70, '0d4d3f2957fe5990b01c3f3f'),
    ('gather', 'staged', 'eager'): (8.348516368632828e-05, 52, '29cd7a20750cf3c46249497d'),
    ('gather', 'staged', 'rendezvous'): (0.00021074694019011152, 76, '0d4d3f2957fe5990b01c3f3f'),
    ('gather', 'direct', 'eager'): (0.00020933297129228635, 42, '29cd7a20750cf3c46249497d'),
    ('gather', 'direct', 'rendezvous'): (0.00021693188516914551, 42, '0d4d3f2957fe5990b01c3f3f'),
    ('allgather', 'pairwise', 'eager'): (0.00013447764883146773, 104, 'f9f2976bdcff89479781ae11'),
    ('allgather', 'pairwise', 'rendezvous'): (0.0005092015299380666, 258, '9dd460a402bca6e38eea61f4'),
    ('allgather', 'nonblocking', 'eager'): (0.00012103564598108745, 104, 'f9f2976bdcff89479781ae11'),
    ('allgather', 'nonblocking', 'rendezvous'): (0.00028293804248515975, 256, '9dd460a402bca6e38eea61f4'),
    ('allgather', 'staged', 'eager'): (0.00011046509704699607, 152, 'f9f2976bdcff89479781ae11'),
    ('allgather', 'staged', 'rendezvous'): (0.000254081318423711, 244, '9dd460a402bca6e38eea61f4'),
    ('allgather', 'direct', 'eager'): (0.0001597598401188977, 140, 'f9f2976bdcff89479781ae11'),
    ('allgather', 'direct', 'rendezvous'): (0.00017340214216053068, 140, '9dd460a402bca6e38eea61f4'),
    ('alltoall', 'pairwise', 'eager'): (0.00013949864848186193, 104, 'e937bb2c1915321ad1f2d7e9'),
    ('alltoall', 'pairwise', 'rendezvous'): (0.0005722206148089738, 248, '116338de39932b1bb18293ea'),
    ('alltoall', 'nonblocking', 'eager'): (0.00012103564598108745, 104, 'e937bb2c1915321ad1f2d7e9'),
    ('alltoall', 'nonblocking', 'rendezvous'): (0.00028293804248515975, 256, '116338de39932b1bb18293ea'),
    ('alltoall', 'staged', 'eager'): (0.00013631001957509903, 168, 'e937bb2c1915321ad1f2d7e9'),
    ('alltoall', 'staged', 'rendezvous'): (0.00028982066255397993, 260, '116338de39932b1bb18293ea'),
    ('alltoall', 'direct', 'eager'): (0.0001597598401188977, 140, 'e937bb2c1915321ad1f2d7e9'),
    ('alltoall', 'direct', 'rendezvous'): (0.00017340214216053068, 140, '116338de39932b1bb18293ea'),
    ('alltoallv', 'pairwise', 'eager'): (0.00010711944171685397, 72, 'cbd321a91633633b5d1418aa'),
    ('alltoallv', 'pairwise', 'rendezvous'): (0.0004478865018907105, 160, 'bd5e27d0e987ea1227acad06'),
    ('alltoallv', 'nonblocking', 'eager'): (9.282832877604166e-05, 72, 'cbd321a91633633b5d1418aa'),
    ('alltoallv', 'nonblocking', 'rendezvous'): (0.00027121023245172754, 162, 'bd5e27d0e987ea1227acad06'),
    ('alltoallv', 'staged', 'eager'): (0.00012008576250449441, 128, 'cbd321a91633633b5d1418aa'),
    ('alltoallv', 'staged', 'rendezvous'): (0.00021603305251024973, 168, 'bd5e27d0e987ea1227acad06'),
    ('alltoallv', 'direct', 'eager'): (0.00014952461912494104, 100, 'cbd321a91633633b5d1418aa'),
    ('alltoallv', 'direct', 'rendezvous'): (0.00017530905848248284, 100, 'bd5e27d0e987ea1227acad06'),
}


@pytest.mark.parametrize("proto", ORDERS)
@pytest.mark.parametrize("rung", RUNGS)
@pytest.mark.parametrize("op", OPS)
def test_rung_timing_and_bytes_pinned(op, rung, proto):
    assert run_case(op, rung, proto) == GOLDEN[(op, rung, proto)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for op in OPS:
        for rung in RUNGS:
            for proto in ORDERS:
                got = run_case(op, rung, proto)
                print(f"    {(op, rung, proto)!r}: {got!r},")
    print("}")
