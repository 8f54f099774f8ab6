"""Datatype-aware collective operations over the point-to-point stack.

"Once constructed and committed, an MPI datatype can be used as an
argument for any point-to-point, collective, I/O, and one-sided
functions" (Section 1).  These collectives demonstrate exactly that: the
GPU datatype engine and protocols underneath are untouched — a broadcast
of a triangular matrix from GPU memory pipelines through the same
CUDA-IPC/copy-in-out machinery as a send.

Every collective accepts an algorithm from the :class:`CollAlgorithm`
ladder (see docs/COLLECTIVES.md), resolved per call from an explicit
``algorithm=`` override, else ``MpiConfig.coll_algorithm``, else the
per-op ``"auto"`` default:

- ``PAIRWISE`` — the classic fixed-schedule two-sided algorithm
  (binomial-tree bcast, serialized linear gather, ring allgather,
  ordered pairwise-exchange alltoall).
- ``NONBLOCKING`` — post every isend/irecv at once and wait.
- ``STAGED`` — copy-to-host: :func:`_staged` wraps a host rung (binomial
  relay, linear gather, flat exchange).  Device blocks are engine-packed
  into a device ring, moved with *one* batched D2H, exchanged
  host-to-host by the wrapped rung, then one batched H2D + per-block
  unpack.  The per-message GPU costs (kernel launches, IPC handshakes)
  are paid once, which is why it wins at small sizes (SNIPPETS.md
  `copy_to_cpu_alltoall`).
- ``DIRECT`` — one-sided: :func:`_direct` deposits each rank's receive
  slots in a metadata table and every rank puts straight into the
  peers' user buffers via :func:`repro.mpi.rma.one_sided_move` (CUDA-IPC
  scatter kernels intra-node), fenced by barriers.

Every rung works on per-peer slot maps: ``sends[p]`` / ``recvs[p]`` is
the ``(buf, dt, count)`` this rank sends to / receives from peer ``p``;
a peer without a message has no entry (so a bcast rank holds only its
tree neighbours, not ``size`` entries), and key ``rank`` is the self
block.

Mixed worlds are fine for the two-sided rungs: ``STAGED`` is a local
decision (the wire carries the same packed signature either way), so a
host-buffer rank interoperates with a device rank that stages.
``DIRECT`` changes the message pattern and must be chosen world-wide
(the shared ``MpiConfig`` or the same override).

Tag-space layout: collective traffic lives above ``_COLL_TAG_BASE``
(1 << 20), and every op owns a disjoint ``_COLL_OP_SPAN``-wide
sub-space, indexed by ``_COLL_OP_INDEX``.  Within an op, the per-rank
call sequence number (collectives are invoked in the same order on
every rank, so local counters agree globally) selects the tag.  Before
this layout, ``bcast`` seq *k* and ``gather`` seq *k* produced the
*same* tag, so overlapping collectives could cross-match fragments —
see the regression tests in tests/mpi/test_collectives.py.

Every op returns the documented **bytes moved per rank** — the packed
bytes this rank contributes — uniformly, including world size 1.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from repro.datatype.ddt import Datatype, contiguous, struct
from repro.datatype.primitives import BYTE, PREDEFINED
from repro.hw.memory import Buffer
from repro.mpi.rma import one_sided_move
from repro.sanitize import runtime as _san
from repro.sim.core import all_of

if TYPE_CHECKING:
    from repro.mpi.world import RankContext

__all__ = [
    "CollAlgorithm",
    "bcast",
    "gather",
    "allgather",
    "alltoall",
    "alltoallv",
]


class CollAlgorithm(str, Enum):
    """One rung of the collective algorithm ladder (module docstring)."""

    PAIRWISE = "pairwise"
    NONBLOCKING = "nonblocking"
    STAGED = "staged"
    DIRECT = "direct"


# -- tag space ----------------------------------------------------------------

_COLL_TAG_BASE = 1 << 20
#: width of each op's private tag sub-space (one tag per call sequence
#: number, wrapping after this many calls)
_COLL_OP_SPAN = 1 << 17
#: disjoint sub-space index per op — the tag-collision fix
_COLL_OP_INDEX = {
    "bcast": 0,
    "gather": 1,
    "allgather": 2,
    "alltoall": 3,
    "alltoallv": 4,
}


def _op_tag(op: str, seq: int) -> int:
    """The wire tag for call ``seq`` of ``op``."""
    base = _COLL_TAG_BASE + _COLL_OP_INDEX[op] * _COLL_OP_SPAN
    return base + seq % _COLL_OP_SPAN


def _start_call(
    mpi: "RankContext", op: str, algo: CollAlgorithm, nbytes: int
) -> int:
    """Bump the per-rank, per-op sequence number, count the call, and
    return the call's sequence number.

    MPI requires every rank to invoke collectives in the same order, so a
    local counter yields globally agreeing tags without communication —
    as long as only *accepted* calls bump it, so validate before calling.
    The ``coll.*`` counters are aggregated by ``WorldStats.coll_ops``.
    """
    proc = mpi.proc
    seqs = getattr(proc, "_coll_seq", None)
    if seqs is None:
        seqs = {}
        proc._coll_seq = seqs
    seq = seqs.get(op, 0)
    seqs[op] = seq + 1
    metrics = proc.metrics
    metrics.counter(f"coll.{op}.{algo.value}").inc()
    metrics.counter(f"coll.{op}.bytes").inc(nbytes)
    return seq


# -- packed wire types --------------------------------------------------------

_PACKED_CACHE: dict[tuple, Datatype] = {}


def _scale_signature(sig: tuple, count: int) -> tuple:
    """The signature of ``count`` consecutive elements of signature ``sig``."""
    if count == 0 or not sig:
        return ()
    if count == 1:
        return sig
    if len(sig) == 1:
        name, c = sig[0]
        return ((name, c * count),)
    return sig * count


def _packed_for_signature(sig: tuple) -> Datatype:
    """A committed *contiguous-layout* datatype with signature ``sig``.

    The staged path moves packed byte streams; sending them under this
    type keeps the PML signature check honest (packed send signature ==
    original send signature) while the layout is a plain dense run.
    """
    cached = _PACKED_CACHE.get(sig)
    if cached is not None:
        return cached
    if not sig:
        dtp = contiguous(0, BYTE)
    elif len(sig) == 1:
        name, c = sig[0]
        dtp = contiguous(c, PREDEFINED[name])
    else:
        lens = []
        disps = []
        types = []
        off = 0
        for name, c in sig:
            prim = PREDEFINED[name]
            lens.append(c)
            disps.append(off)
            types.append(prim)
            off += c * prim.size
        dtp = struct(lens, disps, types)
    dtp.commit()
    _PACKED_CACHE[sig] = dtp
    return dtp


def _packed_type(dt: Datatype, count: int) -> Datatype:
    """Packed wire type for ``count`` elements of ``dt``."""
    return _packed_for_signature(_scale_signature(dt.commit().signature, count))


# -- selection ----------------------------------------------------------------

_A2A_OPS = ("alltoall", "alltoallv")

#: rungs the autotuner may pick for a uniform alltoall under ``"auto"``.
#: PAIRWISE is excluded (strictly dominated by NONBLOCKING here).
_TUNABLE_A2A = ("staged", "nonblocking", "direct")


def _resolve_algorithm(
    mpi: "RankContext",
    op: str,
    explicit,
    is_device: bool,
    peer_bytes: int,
) -> CollAlgorithm:
    """Pick the rung: explicit override > MpiConfig.coll_algorithm > auto.

    ``"auto"`` keeps the classic per-op defaults and, for the alltoall
    family, stages through the host when the largest per-peer packed
    block is at or below ``coll_staged_threshold`` bytes (the measured
    staged-vs-direct crossover; bench scenario ``coll_crossover``).
    """
    choice = explicit if explicit is not None else mpi.config.coll_algorithm
    if isinstance(choice, CollAlgorithm):
        return choice
    if choice == "auto":
        tuner = mpi.proc.tuner
        if tuner is not None and op == "alltoall":
            # tuned rung — *uniform* alltoall only: symmetric inputs mean
            # every rank derives the same key against the same frozen
            # table, so the world agrees on the algorithm without any
            # extra agreement round (required for STAGED/DIRECT, which
            # assume all ranks run the same rung).  alltoallv's ragged
            # per-rank peer_bytes would diverge, so it stays static.
            key = tuner.coll_key(
                op, peer_bytes, is_device, mpi.world.num_nodes, mpi.size
            )
            tuned = tuner.decide_coll(key, _TUNABLE_A2A)
            if tuned is not None:
                return CollAlgorithm(tuned)
        if op in _A2A_OPS:
            if is_device and peer_bytes <= mpi.config.coll_staged_threshold:
                return CollAlgorithm.STAGED
            return CollAlgorithm.NONBLOCKING
        if op == "gather":
            return CollAlgorithm.NONBLOCKING
        return CollAlgorithm.PAIRWISE
    try:
        return CollAlgorithm(choice)
    except ValueError:
        raise ValueError(
            f"unknown collective algorithm {choice!r}; expected 'auto' "
            f"or one of {[a.value for a in CollAlgorithm]}"
        ) from None


# -- shared building blocks ---------------------------------------------------


def _traced(mpi: "RankContext", op: str, seq: int, algo: CollAlgorithm, body):
    """Coroutine: run rung ``body`` inside the verifier's collective frame.

    Waits inside the collective inherit ``"<op>#<seq>/<algo>"`` as their
    detail, so a hang names the exact collective call.
    """
    ver = _san.VERIFY
    if ver is None:
        yield from body
        return
    vkey = ver.coll_begin(mpi.world, mpi.rank, op, seq, algo.value)
    try:
        yield from body
    finally:
        # the verifier captured at entry: a deadlocked collective's frame
        # is closed when its generator is finalized, which may be after
        # the sanitizer was uninstalled
        ver.coll_end(vkey)


def _device_slots(slots: dict, rank: int, skip: set) -> list:
    """Distinct device slots that carry bytes, in first-seen order.

    The self slot (key ``rank``) and slots whose identity is in ``skip``
    are left out; ``skip`` is updated with every slot seen.
    """
    picked = []
    for peer, slot in slots.items():
        if peer == rank or id(slot) in skip:
            continue
        skip.add(id(slot))
        buf, dt, count = slot
        if buf.is_device and dt.size * count:
            picked.append(slot)
    return picked


def _staged(mpi: "RankContext", sends, recvs, host_rung):
    """Copy-to-host wrapper around any two-sided rung.

    Every distinct device send slot (the self slot excepted) is
    engine-packed into one device region and moved with ONE batched
    D2H; ``host_rung(host_sends, host_recvs)`` then runs with those
    slots replaced by packed host views (typed by :func:`_packed_type`,
    count 1), device receive slots landing in one compact host region;
    ONE batched H2D follows, then a per-slot unpack.  Host slots and the
    self block keep their original types, so mixed worlds interoperate.
    A send slot that is also a receive slot (a bcast forward) is sent
    from the received host view instead of being packed.
    """
    proc = mpi.proc
    rank = mpi.rank
    seen: set = set()
    ins = _device_slots(recvs, rank, seen)
    outs = _device_slots(sends, rank, seen)
    views: dict = {}
    out_total = sum(dt.size * count for _buf, dt, count in outs)
    in_total = sum(dt.size * count for _buf, dt, count in ins)
    if outs:
        dout = proc.acquire_staging("device", max(out_total, 256))
        hout = proc.acquire_staging("host", max(out_total, 256))
        lo = 0
        for slot in outs:
            buf, dt, count = slot
            hi = lo + dt.size * count
            job = proc.engine.pack_job(dt, count, buf, mpi.config.engine)
            yield from job.process_all(dout[lo:hi])
            views[id(slot)] = (hout[lo:hi], _packed_type(dt, count), 1)
            lo = hi
        yield proc.gpu.memcpy_d2h(hout[:out_total], dout[:out_total])
    if ins:
        hin = proc.acquire_staging("host", max(in_total, 256))
        din = proc.acquire_staging("device", max(in_total, 256))
        lo = 0
        for slot in ins:
            _buf, dt, count = slot
            hi = lo + dt.size * count
            views[id(slot)] = (hin[lo:hi], _packed_type(dt, count), 1)
            lo = hi

    def host(slots):
        return {
            peer: slot if peer == rank else views.get(id(slot), slot)
            for peer, slot in slots.items()
        }

    yield from host_rung(host(sends), host(recvs))
    if ins:
        yield proc.gpu.memcpy_h2d(din[:in_total], hin[:in_total])
        lo = 0
        for buf, dt, count in ins:
            hi = lo + dt.size * count
            job = proc.engine.unpack_job(dt, count, buf, mpi.config.engine)
            yield from job.process_all(din[lo:hi])
            lo = hi
        proc.release_staging("host", hin)
        proc.release_staging("device", din)
    if outs:
        proc.release_staging("device", dout)
        proc.release_staging("host", hout)


def _direct(mpi: "RankContext", op: str, seq: int, deposit, build_moves):
    """One-sided rung skeleton shared by every collective.

    One-sided moves need the peer buffer/count metadata that two-sided
    matching would normally carry.  Each rank deposits ``deposit`` (its
    receive slots; ``None`` deposits nothing) in the world-level table
    for this call, keyed by ``(op, seq)`` which every rank derives
    identically; a barrier orders deposits before reads.  Then
    ``build_moves(table)`` names this rank's puts as ``(peer, source
    slot, target slot)``, they run to completion, a second barrier
    fences them, and the table is dropped.
    """
    key = (op, seq)
    table = mpi.world._coll_rendezvous.setdefault(key, {})
    if deposit is not None:
        table[mpi.rank] = deposit
    yield mpi.barrier()
    procs = [
        mpi.sim.spawn(
            one_sided_move(mpi.proc, *src, mpi.world.procs[peer], *dst, "put"),
            label=f"coll.{op}.put r{mpi.rank}->r{peer}",
        )
        for peer, src, dst in build_moves(table)
    ]
    if procs:
        yield all_of(mpi.sim, procs, label="coll.direct")
    yield mpi.barrier()
    mpi.world._coll_rendezvous.pop(key, None)


# -- bcast --------------------------------------------------------------------


def bcast(
    mpi: "RankContext",
    buf: Buffer,
    dt: Datatype,
    count: int,
    root: int = 0,
    algorithm=None,
):
    """Broadcast ``count`` elements of ``dt`` from ``root`` to every rank.

    Coroutine: use as ``yield from bcast(mpi, ...)``.  Returns the bytes
    moved per rank (``dt.size * count``), uniformly for every world size
    — including 1, so bench sweeps need no special case.
    """
    dt.commit()
    nbytes = dt.size * count
    algo = _resolve_algorithm(mpi, "bcast", algorithm, buf.is_device, nbytes)
    seq = _start_call(mpi, "bcast", algo, nbytes)
    size = mpi.size
    if size == 1:
        return nbytes
    tag = _op_tag("bcast", seq)
    slot = (buf, dt, count)
    if algo is CollAlgorithm.DIRECT:
        body = _direct(
            mpi, "bcast", seq, slot,
            lambda table: [
                (r, slot, table[r]) for r in range(size) if r != root
            ] if mpi.rank == root else [],
        )
    else:
        if algo is CollAlgorithm.NONBLOCKING:
            # flat: the root isends to every rank at once
            if mpi.rank == root:
                parent, children = None, [r for r in range(size) if r != root]
            else:
                parent, children = root, []
        else:
            parent, children = _binomial_peers(mpi.rank, root, size)
        # a non-root receives into its buffer and forwards that same buffer
        recvs = {} if parent is None else {parent: slot}
        sends = dict.fromkeys(children, slot)
        if algo is CollAlgorithm.STAGED:
            body = _staged(
                mpi, sends, recvs, lambda s, r: _relay(mpi, s, r, tag)
            )
        else:
            body = _relay(mpi, sends, recvs, tag)
    yield from _traced(mpi, "bcast", seq, algo, body)
    return nbytes


def _binomial_peers(rank: int, root: int, size: int):
    """``(parent or None, children)`` of ``rank`` in the binomial tree.

    Children come highest bit first (Open MPI's binomial order: the
    farthest subtree starts earliest, giving the log2(P) rounds).
    """
    vrank = (rank - root) % size
    parent = None
    if vrank != 0:
        parent = ((vrank & (vrank - 1)) + root) % size  # clear lowest bit
    lowest = vrank & -vrank if vrank else size
    mask = 1
    while mask * 2 < size:
        mask <<= 1
    children = []
    while mask:
        if mask < lowest and (vrank | mask) < size:
            children.append(((vrank | mask) + root) % size)
        mask >>= 1
    return parent, children


def _relay(mpi, sends, recvs, tag):
    """Bcast step: receive from the parent, then forward to every child
    at once."""
    for src, slot in recvs.items():
        yield mpi.recv(*slot, source=src, tag=tag)
    reqs = [mpi.isend(*slot, dest=dst, tag=tag) for dst, slot in sends.items()]
    if reqs:
        yield mpi.wait_all(*reqs)


# -- gather -------------------------------------------------------------------


def gather(
    mpi: "RankContext",
    sendbuf: Buffer,
    send_dt: Datatype,
    send_count: int,
    recvbufs: Optional[Sequence[Buffer]],
    recv_dt: Optional[Datatype],
    recv_count: Optional[int] = None,
    root: int = 0,
    algorithm=None,
):
    """Gather every rank's block to the root.

    ``recvbufs`` is a per-source list of destination buffers on the root
    (slots of one larger allocation in practice); non-roots pass None.
    ``recv_count`` is required at the root and must be positive — a
    forgotten kwarg used to default to 0 and silently receive nothing.
    Coroutine: ``yield from gather(...)``.  Returns the bytes moved per
    rank (``send_dt.size * send_count``).
    """
    send_dt.commit()
    size = mpi.size
    is_root = mpi.rank == root
    if is_root:
        if recvbufs is None or recv_dt is None:
            raise ValueError(
                f"gather: root rank {root} must pass recvbufs and recv_dt"
            )
        if recv_count is None or recv_count <= 0:
            raise ValueError(
                "gather: recv_count must be a positive element count at "
                f"the root, got {recv_count!r}"
            )
        if len(recvbufs) != size:
            raise ValueError(
                f"gather: root needs one recv buffer per rank "
                f"({size}), got {len(recvbufs)}"
            )
        recv_dt.commit()
    nbytes = send_dt.size * send_count
    algo = _resolve_algorithm(mpi, "gather", algorithm, sendbuf.is_device, nbytes)
    seq = _start_call(mpi, "gather", algo, nbytes)
    tag = _op_tag("gather", seq)
    mine = (sendbuf, send_dt, send_count)
    sends = {root: mine}
    recvs = (
        {src: (b, recv_dt, recv_count) for src, b in enumerate(recvbufs)}
        if is_root else {}
    )
    if algo is CollAlgorithm.DIRECT:
        body = _direct(
            mpi, "gather", seq, recvs if is_root else None,
            lambda table: [(root, mine, table[root][mpi.rank])],
        )
    elif algo is CollAlgorithm.PAIRWISE:
        body = _gather_serial(mpi, sends, recvs, root, tag)
    elif algo is CollAlgorithm.STAGED:
        body = _staged(
            mpi, sends, recvs,
            lambda s, r: _gather_linear(mpi, s, r, root, tag),
        )
    else:
        body = _gather_linear(mpi, sends, recvs, root, tag)
    yield from _traced(mpi, "gather", seq, algo, body)
    return nbytes


def _gather_linear(mpi, sends, recvs, root, tag):
    """Linear gather: the root posts every irecv at once."""
    if mpi.rank == root:
        reqs = [
            mpi.irecv(*recvs[src], source=src, tag=tag)
            for src in range(mpi.size)
            if src != root
        ]
        # root's own contribution: a self-message through the engines
        # (isend first — a blocking self-send would rendezvous-deadlock)
        self_req = mpi.isend(*sends[root], dest=root, tag=tag)
        yield mpi.recv(*recvs[root], source=root, tag=tag)
        yield self_req
        if reqs:
            yield mpi.wait_all(*reqs)
    else:
        yield mpi.send(*sends[root], dest=root, tag=tag)


def _gather_serial(mpi, sends, recvs, root, tag):
    """Serialized linear gather: the root drains sources one at a time."""
    if mpi.rank == root:
        self_req = mpi.isend(*sends[root], dest=root, tag=tag)
        yield mpi.recv(*recvs[root], source=root, tag=tag)
        yield self_req
        for src in range(mpi.size):
            if src == root:
                continue
            yield mpi.recv(*recvs[src], source=src, tag=tag)
    else:
        yield mpi.send(*sends[root], dest=root, tag=tag)


# -- allgather ----------------------------------------------------------------


def allgather(
    mpi: "RankContext",
    sendbuf: Buffer,
    send_dt: Datatype,
    send_count: int,
    recvbufs: Sequence[Buffer],
    recv_dt: Datatype,
    recv_count: int,
    algorithm=None,
):
    """Gather every rank's block onto every rank.

    ``recvbufs[r]`` receives rank ``r``'s contribution (every rank passes
    its own ``sendbuf`` content via ``recvbufs[rank]`` too).
    Coroutine: ``yield from allgather(...)``.  Returns the bytes moved
    per rank (``send_dt.size * send_count * size``).
    """
    size = mpi.size
    if len(recvbufs) != size:
        raise ValueError(
            f"allgather: one recv buffer per rank ({size}) is "
            f"required, got {len(recvbufs)}"
        )
    send_dt.commit()
    recv_dt.commit()
    nbytes = send_dt.size * send_count
    algo = _resolve_algorithm(mpi, "allgather", algorithm, sendbuf.is_device, nbytes)
    seq = _start_call(mpi, "allgather", algo, nbytes * size)
    tag = _op_tag("allgather", seq)
    mine = (sendbuf, send_dt, send_count)
    # one send slot for every peer: the staged wrapper packs it once
    sends = dict.fromkeys(range(size), mine)
    recvs = {src: (b, recv_dt, recv_count) for src, b in enumerate(recvbufs)}
    if algo is CollAlgorithm.DIRECT:
        body = _direct(
            mpi, "allgather", seq, recvs,
            lambda table: [
                (peer, mine, table[peer][mpi.rank]) for peer in range(size)
            ],
        )
    elif algo is CollAlgorithm.NONBLOCKING:
        body = _exchange_flat(mpi, sends, recvs, tag)
    elif algo is CollAlgorithm.STAGED:
        body = _staged(
            mpi, sends, recvs, lambda s, r: _exchange_flat(mpi, s, r, tag)
        )
    else:
        body = _allgather_ring(mpi, sends, recvs, tag)
    yield from _traced(mpi, "allgather", seq, algo, body)
    return nbytes * size


def _allgather_ring(mpi, sends, recvs, tag):
    """Ring allgather: N-1 steps, each forwarding the previous block."""
    size = mpi.size
    rank = mpi.rank
    right = (rank + 1) % size
    left = (rank - 1) % size
    # seed own block locally, as a self-message through the engines
    # (isend first — a blocking self-send would rendezvous-deadlock)
    self_req = mpi.isend(*sends[rank], dest=rank, tag=tag)
    yield mpi.recv(*recvs[rank], source=rank, tag=tag)
    yield self_req
    # ring steps may share one tag: per-source FIFO ordering matches the
    # in-order posted receives
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        reqs = [
            mpi.isend(*recvs[send_block], dest=right, tag=tag),
            mpi.irecv(*recvs[recv_block], source=left, tag=tag),
        ]
        yield mpi.wait_all(*reqs)


# -- alltoall / alltoallv -----------------------------------------------------


def alltoall(
    mpi: "RankContext",
    sendbufs: Sequence[Buffer],
    send_dt: Datatype,
    send_count: int,
    recvbufs: Sequence[Buffer],
    recv_dt: Datatype,
    recv_count: int,
    algorithm=None,
):
    """Every rank sends a distinct block to every rank (uniform counts).

    ``sendbufs[d]`` is this rank's block for destination ``d``;
    ``recvbufs[s]`` receives source ``s``'s block (``sendbufs[rank]`` /
    ``recvbufs[rank]`` carry the local block through the same engines).
    Coroutine: ``yield from alltoall(...)``.  Returns the bytes moved
    per rank (``send_dt.size * send_count * size``).
    """
    moved = yield from _alltoall_common(
        mpi, "alltoall", sendbufs, send_dt, [send_count] * mpi.size,
        recvbufs, recv_dt, [recv_count] * mpi.size, algorithm,
    )
    return moved


def alltoallv(
    mpi: "RankContext",
    sendbufs: Sequence[Buffer],
    send_dt: Datatype,
    send_counts: Sequence[int],
    recvbufs: Sequence[Buffer],
    recv_dt: Datatype,
    recv_counts: Sequence[int],
    algorithm=None,
):
    """Vector alltoall: per-destination element counts (zeros allowed).

    ``send_counts[d]`` on rank ``i`` must equal ``recv_counts[i]`` on
    rank ``d`` in signature terms, exactly as for matched send/recv
    pairs.  Coroutine: ``yield from alltoallv(...)``.  Returns the bytes
    moved per rank (``send_dt.size * sum(send_counts)``).
    """
    moved = yield from _alltoall_common(
        mpi, "alltoallv", sendbufs, send_dt, list(send_counts),
        recvbufs, recv_dt, list(recv_counts), algorithm,
    )
    return moved


def _alltoall_common(
    mpi, op, sendbufs, send_dt, send_counts, recvbufs, recv_dt, recv_counts,
    algorithm,
):
    """Validate, resolve the algorithm, and dispatch one alltoall call."""
    size = mpi.size
    send_dt.commit()
    recv_dt.commit()
    if len(sendbufs) != size or len(recvbufs) != size:
        raise ValueError(
            f"{op}: one send and one recv buffer per rank ({size}) is "
            f"required, got {len(sendbufs)}/{len(recvbufs)}"
        )
    if len(send_counts) != size or len(recv_counts) != size:
        raise ValueError(
            f"{op}: one send and one recv count per rank ({size}) is "
            f"required, got {len(send_counts)}/{len(recv_counts)}"
        )
    if min(send_counts, default=0) < 0 or min(recv_counts, default=0) < 0:
        raise ValueError(f"{op}: counts must be >= 0")
    nbytes = send_dt.size * sum(send_counts)
    peer_bytes = send_dt.size * max(send_counts, default=0)
    any_device = bool(
        [d for d in range(size) if sendbufs[d].is_device and send_counts[d]]
        or [s for s in range(size) if recvbufs[s].is_device and recv_counts[s]]
    )
    algo = _resolve_algorithm(mpi, op, algorithm, any_device, peer_bytes)
    seq = _start_call(mpi, op, algo, nbytes)
    tag = _op_tag(op, seq)
    sends = {d: (sendbufs[d], send_dt, send_counts[d]) for d in range(size)}
    recvs = {s: (recvbufs[s], recv_dt, recv_counts[s]) for s in range(size)}
    tuner = mpi.proc.tuner
    t0 = mpi.proc.sim.now if tuner is not None else 0.0
    if algo is not CollAlgorithm.DIRECT:
        # no two-sided rung puts a zero-byte block on the wire, so ranks
        # that resolve different rungs (``auto`` decides from each rank's
        # own largest block) still match message for message
        sends = {d: v for d, v in sends.items() if send_dt.size * v[2]}
        recvs = {s: v for s, v in recvs.items() if recv_dt.size * v[2]}
    if algo is CollAlgorithm.PAIRWISE:
        body = _a2av_pairwise(mpi, sends, recvs, tag)
    elif algo is CollAlgorithm.STAGED:
        body = _staged(
            mpi, sends, recvs, lambda s, r: _exchange_flat(mpi, s, r, tag)
        )
    elif algo is CollAlgorithm.DIRECT:
        body = _direct(
            mpi, op, seq, recvs,
            lambda table: [
                (peer, sends[peer], table[peer][mpi.rank])
                for peer in range(size)
                if sends[peer][2] or table[peer][mpi.rank][2]
            ],
        )
    else:
        body = _exchange_flat(mpi, sends, recvs, tag)
    yield from _traced(mpi, op, seq, algo, body)
    if tuner is not None:
        # per-rank elapsed for the whole call, keyed like the decision
        # above; alltoallv samples are informational (never decided on)
        tuner.observe_coll(
            tuner.coll_key(op, peer_bytes, any_device, mpi.world.num_nodes, size),
            algo.value, mpi.proc.sim.now - t0, nbytes,
        )
    return nbytes


def _a2av_pairwise(mpi, sends, recvs, tag):
    """Pairwise exchange: N-1 ordered sendrecv rounds (plus self).

    A peer without a slot posts nothing: a round whose send or receive
    block is absent runs the other half alone."""
    size = mpi.size
    rank = mpi.rank
    self_req = None
    if rank in sends:
        self_req = mpi.isend(*sends[rank], dest=rank, tag=tag)
    if rank in recvs:
        yield mpi.recv(*recvs[rank], source=rank, tag=tag)
    if self_req is not None:
        yield self_req
    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        if dst in sends and src in recvs:
            yield mpi.sendrecv(
                *sends[dst], dst, *recvs[src],
                source=src, sendtag=tag, recvtag=tag,
            )
        elif dst in sends:
            yield mpi.send(*sends[dst], dest=dst, tag=tag)
        elif src in recvs:
            yield mpi.recv(*recvs[src], source=src, tag=tag)


def _exchange_flat(mpi, sends, recvs, tag):
    """Nonblocking all-at-once exchange (alltoall(v) and allgather):
    the self pair first, then every peer's send and receive, all in
    flight simultaneously.  A peer without a slot posts nothing."""
    rank = mpi.rank
    reqs = []
    for peer in [rank] + [p for p in range(mpi.size) if p != rank]:
        if peer in sends:
            reqs.append(mpi.isend(*sends[peer], dest=peer, tag=tag))
        if peer in recvs:
            reqs.append(mpi.irecv(*recvs[peer], source=peer, tag=tag))
    if reqs:
        yield mpi.wait_all(*reqs)
