"""PML: point-to-point management layer.

"At the top level, the PML realizes the MPI matching, fragments, and
reassembles the message data ... Different protocols based on the message
size (short, eager, and rendezvous) and network properties are available,
and the PML is designed to pick the best combination" (Section 4).

Send path: eager for small messages (data rides the RTS Active Message),
through one callback chain for every buffer placement
(:func:`eager_isend_fast`); rendezvous otherwise (:func:`isend_coro`) —
the RTS advertises the sender's buffer placement, contiguity and, when
CUDA IPC applies, an IPC handle (of the user buffer for contiguous
sends, of the device fragment ring otherwise).  Every receive posts
through :func:`eager_irecv_fast`: an eager match unpacks in the chain, a
rendezvous match hands over to :func:`_matched_recv_coro`, which chooses
the protocol (receiver-driven GET handshake), answers with a CTS, and
runs the chosen pipeline from :mod:`repro.mpi.protocols` against the
sender's.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.cuda.ipc import IpcMemHandle
from repro.datatype.canonical import canonicalize
from repro.datatype.ddt import Datatype
from repro.hw.memory import Buffer
from repro.mpi.matching import PostedRecv
from repro.mpi.message import Envelope
from repro.mpi.requests import Status
from repro.mpi.protocols import RECEIVERS, SENDERS, choose_protocol
from repro.mpi.protocols.common import (
    CpuSideJob,
    SideInfo,
    TransferState,
    describe_side,
)
from repro.obs.stats import TransferStats
from repro.sanitize import runtime as _san
from repro.sim.core import Future
from repro.sim.resources import Mailbox

if TYPE_CHECKING:
    from repro.mpi.proc import MpiProcess
    from repro.mpi.world import MpiWorld

__all__ = ["eager_isend_fast", "eager_irecv_fast", "isend_coro", "irecv_coro"]

_tids = itertools.count()


def _times(sig, count: int):
    """A datatype signature repeated ``count`` times.

    Single-run signatures scale in place; multi-run ones concatenate
    (seams stay un-coalesced — the prefix walk below tolerates adjacent
    runs of the same name).
    """
    if count == 1:
        return sig
    return tuple((n, c * count) for n, c in sig) if len(sig) == 1 else sig * count


def _signature_check(send_sig, recv_sig) -> None:
    """MPI demands the send signature be a prefix of the receive's.

    Both sides pass their *full* signature (datatype signature scaled by
    the call's count) — the standard's rule is about the whole message,
    so a packed ``contiguous(c * n, BYTE)``-style wire type sent with
    count 1 lands legally in ``c`` elements of the original type.
    """
    if send_sig == recv_sig:
        return  # identical tuples — the overwhelmingly common case
    flat_s = [(n, c) for n, c in send_sig]
    flat_r = [(n, c) for n, c in recv_sig]
    si = ri = 0
    s_rem = r_rem = 0
    s_name = r_name = None
    while True:
        if s_rem == 0:
            if si == len(flat_s):
                return  # send exhausted: OK
            s_name, s_rem = flat_s[si]
            si += 1
        if r_rem == 0:
            if ri == len(flat_r):
                raise ValueError("type signature mismatch: receive too short")
            r_name, r_rem = flat_r[ri]
            ri += 1
        if s_name != r_name:
            raise ValueError(
                f"type signature mismatch: {s_name} sent into {r_name}"
            )
        take = min(s_rem, r_rem)
        s_rem -= take
        r_rem -= take


# ---------------------------------------------------------------------------
# rendezvous coroutines
# ---------------------------------------------------------------------------


def isend_coro(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    dest: int,
    tag: int,
    comm_id: int = 0,
):
    """Sender-side rendezvous: RTS, wait for the CTS, run the protocol.

    Messages up to ``eager_limit`` never get here — the caller
    (:meth:`repro.mpi.world.RankContext.isend`) sends those through
    :func:`eager_isend_fast`.
    """
    dt.commit()
    total = dt.size * count
    dst_proc = world.procs[dest]
    btl = world.bml.btl_for(proc, dst_proc)
    env = Envelope(
        source=proc.rank, dest=dest, tag=tag, comm_id=comm_id,
        pair_seq=proc.next_send_seq(dest, comm_id),
    )
    cfg = proc.config

    tid = f"{proc.rank}.{next(_tids)}"
    s_info = describe_side(proc, buf, dt, count)
    # fragmentation defaults come from the static config; an autotuner in
    # "on" mode overrides them from its frozen decision table and may also
    # advertise a protocol preference in the RTS (docs/AUTOTUNER.md)
    frag_bytes = cfg.frag_bytes
    depth = cfg.pipeline_depth
    tune_key = None
    if proc.tuner is not None:
        form = canonicalize(dt, count)
        tune_key = proc.tuner.p2p_key(
            form, total, proc.node is dst_proc.node, s_info.loc
        )
        tuned = proc.tuner.decide_send(tune_key)
        if tuned is not None:
            frag_bytes = tuned.frag_bytes
            depth = tuned.depth
            s_info.preferred_protocol = tuned.protocol
    s_info.frag_bytes = frag_bytes
    s_info.ring_segments = depth

    state = TransferState(
        proc=proc,
        btl=btl,
        tid=tid,
        dt=dt,
        count=count,
        buf=buf,
        total=total,
        frag_bytes=frag_bytes,
        depth=depth,
        role="s",
    )
    state.stats.peer = dest
    # RDMA resources are advertised in the RTS (Fig 4: the connection
    # request carries the memory handle and the local datatype's shape)
    ring_key = None
    if s_info.loc == "device" and btl.supports_cuda_ipc:
        if s_info.contiguous:
            s_info.handle = IpcMemHandle.get(buf)
        else:
            nbytes = frag_bytes * depth
            state.ring = proc.acquire_staging("device", nbytes)
            ring_key = nbytes
            s_info.handle = IpcMemHandle.get(state.ring)

    cts_box = Mailbox(proc.sim, name=f"{tid}.cts")
    proc.register_handler(f"x{tid}.s.cts", lambda pkt, _b: cts_box.put(pkt))
    state.bind_inbox("done")
    _ver = _san.VERIFY
    _vtok = None
    try:
        btl.am_send(
            "pml.rts",
            {
                "eager": False,
                "tid": tid,
                "total": total,
                "side": s_info,
                "signature": _times(dt.signature, count),
            },
            envelope=env,
        )
        if _ver is not None:
            # the classic rendezvous hang: RTS out, no matching receive
            # ever posts, the CTS never comes — register the wait so a
            # drained event loop can name this exact send
            _vtok = _ver.wait_begin(
                "cts", proc.rank, proc.sim, peer=dest, tag=tag,
                comm_id=comm_id, detail=f"rendezvous send {total}B",
                world=world,
            )
        cts_pkt = yield cts_box.get()
        if _ver is not None:
            _ver.wait_end(_vtok)
        protocol = cts_pkt.header["protocol"]
        state.stats.protocol = protocol
        r_info: SideInfo = cts_pkt.header["side"]
        result = yield from SENDERS[protocol](state, s_info, r_info, cts_pkt.header)
        state.stats.end_s = proc.sim.now
        if state.stats.fragments == 0:
            state.stats.fragments = 1
        proc.record_transfer(state.stats)
        if tune_key is not None:
            # record the choice that actually ran (the receiver may have
            # overridden the preference) against the observed elapsed time
            proc.tuner.observe_send(
                tune_key, frag_bytes, depth, protocol,
                state.stats.end_s - state.stats.start_s, total,
            )
    finally:
        if _ver is not None:
            _ver.wait_end(_vtok)  # idempotent (exception paths)
        state.close()  # cancel any outstanding retransmit watchdogs
        proc.unregister_handler(f"x{tid}.s.cts")
        state.unbind_all("done")
        # swallow duplicated/delayed ACKs that surface after completion
        state.seal()
        if state.ring is not None:
            proc.release_staging("device", state.ring)
    return result


def irecv_coro(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    source: int,
    tag: int,
    comm_id: int = 0,
):
    """A receive as a coroutine: :func:`eager_irecv_fast`, awaited."""
    # no caller in the package (RankContext.irecv returns the chain's
    # future directly); kept because perfbench's layer trace times the
    # PML through this name
    return (yield eager_irecv_fast(
        world, proc, buf, dt, count, source, tag, comm_id
    ))


def _matched_recv_coro(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    env,
    header,
    sender_rank: int,
):
    """A matched rendezvous RTS: choose the protocol, answer, run it.

    Spawned by :func:`eager_irecv_fast` once the match (and the type
    signature check) is done.
    """
    tid = header["tid"]
    s_info: SideInfo = header["side"]
    src_proc = world.procs[sender_rank]
    btl_back = world.bml.btl_for(proc, src_proc)
    r_info = describe_side(proc, buf, dt, count)
    protocol = choose_protocol(
        s_info, r_info, btl_back, preferred=s_info.preferred_protocol
    )

    state = TransferState(
        proc=proc,
        btl=btl_back,
        tid=tid,
        dt=dt,
        count=count,
        buf=buf,
        total=min(s_info.total, dt.size * count),
        # the sender dictates the fragmentation (its ring is sized for it)
        frag_bytes=s_info.frag_bytes,
        depth=s_info.ring_segments,
        role="r",
    )
    state.stats.peer = env.source
    state.stats.protocol = protocol
    state.bind_inbox("frag")
    state.bind_inbox("done")
    try:
        if protocol == "ipc_rdma":
            # the ipc_rdma receiver sends its own CTS (after mapping)
            result = yield from RECEIVERS[protocol](state, s_info, r_info)
        else:
            btl_back.am_send(
                state.peer("cts"), {"protocol": protocol, "side": r_info}
            )
            result = yield from RECEIVERS[protocol](state, s_info, r_info)
        state.stats.end_s = proc.sim.now
        if state.stats.fragments == 0:
            state.stats.fragments = 1
        proc.record_transfer(state.stats)
    finally:
        state.unbind_all("frag", "done")
        # answer retransmissions of fragments whose final ACK was lost
        state.seal()
    return Status(source=env.source, tag=env.tag, count_bytes=result)


def rts_handler(world: "MpiWorld", proc: "MpiProcess"):
    """The PML's match handler, registered once per rank."""

    def handle(pkt, _btl) -> None:
        env = pkt.envelope
        arrival = (env, pkt.header, pkt.payload, env.source)
        proc.matching.arrive(env, arrival)

    return handle


# ---------------------------------------------------------------------------
# eager protocol: one callback chain for every placement
# ---------------------------------------------------------------------------
#
# An eager send packs the message and ships the bytes inside the RTS; an
# eager receive unpacks them straight from the arrived payload.  Both are
# chains of future callbacks rather than Processes: each pack or unpack
# step is a Future (``CpuSideJob.process_range`` for host buffers, one
# eager-started Process over the GPU engine job for device buffers), and
# the next step hangs off its completion.  Fault injection needs no case
# of its own — it lives in ``Btl.am_send`` — and under the race detector
# every step runs as the chain's own actor (see :meth:`_Chain.then`), so
# the happens-before edges match those of a spawned Process.


def _gpu_eager(
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    total: int,
    gdr: bool,
    data=None,
):
    """Coroutine: the GPU engine job of an eager device buffer.

    Packs ``buf`` through a bounce buffer and returns the packed bytes,
    or (``data`` given) stages ``data`` in the bounce and unpacks its
    ``total``-byte prefix into ``buf`` — a receive may be posted larger
    than the message.  The bounce is device memory the NIC reads or
    writes directly under GPUDirect (no PCIe leg, which is why GPUDirect
    wins for small messages), otherwise zero-copy mapped host memory the
    kernel reaches over PCIe.
    """
    engine = proc.engine
    kind = "device" if gdr else "host"
    if data is None:
        job = engine.pack_job(dt, count, buf, proc.config.engine)
        bounce = proc.acquire_staging(kind, max(total, 256), zero_copy_map=not gdr)
        yield from job.process_all(bounce[:total])
        out = bounce.bytes[:total].copy()
    else:
        job = engine.unpack_job(dt, count, buf, proc.config.engine)
        # a prefix fragment, not process_all (which demands the whole
        # posted count's bytes and would reject a short message)
        frag = job.range_fragment(0, 0, total)
        bounce = proc.acquire_staging(kind, max(total, 256), zero_copy_map=not gdr)
        bounce.bytes[:total] = data[:total]
        yield from job.process_fragment(frag, bounce[:total])
        out = total
    proc.release_staging(kind, bounce, zero_copy_map=not gdr)
    return out


def _log_eager(
    proc: "MpiProcess", role: str, peer: int, gdr: bool, nbytes: int, t0: float
) -> None:
    """Record one finished eager send or receive on ``proc``."""
    mode = "gpudirect" if gdr else ""
    if proc.log_transfers:
        proc.record_transfer(TransferStats(
            tid=f"{proc.rank}.eager.{next(_tids)}", role=role, peer=peer,
            protocol="eager", mode=mode,
            total_bytes=nbytes, frag_bytes=nbytes, fragments=1,
            max_in_flight=1, start_s=t0, end_s=proc.sim.now,
        ))
    else:
        proc.count_transfer(role, "eager", mode, nbytes)


def _eager_header(
    proc: "MpiProcess", dt: Datatype, count: int, total: int, gdr: bool
) -> dict:
    """The (immutable, shareable) eager RTS header for (dt, count, gdr).

    Receivers only ever read headers, so repeated same-shape sends reuse
    one dict; the cache holds a strong dt ref to keep ``id(dt)`` valid
    and hits verify identity, mirroring the convertor cache.
    """
    cache = proc._eager_hdr_cache
    key = (id(dt), count, gdr)
    hit = cache.get(key)
    if hit is not None and hit[0] is dt:
        return hit[1]
    if len(cache) >= 256:
        cache.clear()
    header = {
        "eager": True,
        "total": total,
        "signature": _times(dt.signature, count),
        "gpudirect": gdr,
    }
    cache[key] = (dt, header)
    return header


class _Chain:
    """State of one eager operation in flight; steps are its methods.

    Steps are bound methods rather than closures, so a message in flight
    holds a handful of objects instead of a closure and its cells per
    step — at thousands of ranks that is the garbage collector's load.
    """

    __slots__ = ("actor",)

    def then(self, fut: Future, step) -> None:
        """Run ``step(fut)`` once ``fut`` resolves.

        Under the race detector the step records what a spawned Process
        records around each resumption: a join of the waking future's
        stamp into the chain's actor (from ``on_spawn`` when the chain
        started), then the step run as that actor.
        """
        actor = self.actor
        if actor is None:
            fut.add_callback(step)
            return

        def as_actor(f: Future) -> None:
            race = _san.RACE
            race.on_resume(actor, f._san_snap)
            race.enter(actor)
            try:
                step(f)
            finally:
                race.exit()

        fut.add_callback(as_actor)


class _EagerSend(_Chain):
    """One eager send: pack, then ship the bytes inside the RTS."""

    __slots__ = (
        "proc", "dst_proc", "btl", "buf", "dt", "count", "dest", "env",
        "header", "gdr", "total", "t0", "done", "stage",
    )

    def __init__(self, world, proc, buf, dt, count, dest, tag, comm_id):
        dt.commit()
        self.proc = proc
        self.buf = buf
        self.dt = dt
        self.count = count
        self.dest = dest
        self.total = total = dt.size * count
        self.dst_proc = dst_proc = world.procs[dest]
        self.btl = btl = world.bml.btl_for(proc, dst_proc)
        self.env = Envelope(
            source=proc.rank, dest=dest, tag=tag, comm_id=comm_id,
            pair_seq=proc.next_send_seq(dest, comm_id),
        )
        # under GPUDirect the NIC reads device memory directly (degraded
        # rate beyond the ~30 KB crossover, at wire speed below it)
        self.gdr = gdr = (
            buf.is_device
            and getattr(btl, "supports_gpudirect", False)
            and dst_proc.gpu is not None
        )
        self.header = _eager_header(proc, dt, count, total, gdr)
        self.done = Future(proc.sim, label="eager-send")
        self.t0 = proc.sim.now
        self.stage = None
        race = _san.RACE
        self.actor = None if race is None else race.on_spawn("eager-send")

    def start(self) -> Future:
        """Issue the pack (as the chain's actor, as a Process's first
        step runs); returns the send's completion future."""
        total = self.total
        buf = self.buf
        race = _san.RACE if self.actor is not None else None
        if race is not None:
            race.enter(self.actor)
        try:
            if total == 0:
                # zero-byte send: the envelope travels, the engines don't
                self.send(np.empty(0, dtype=np.uint8))
            elif buf.is_host:
                self.stage = np.empty(total, dtype=np.uint8)
                job = CpuSideJob(self.proc, self.dt, self.count, buf, "pack")
                self.then(job.process_range(0, total, self.stage), self.packed)
            else:
                p = self.proc.sim.spawn(
                    _gpu_eager(
                        self.proc, buf, self.dt, self.count, total, self.gdr
                    ),
                    label="eager-pack", eager_start=True,
                )
                self.then(p, self.packed_on_gpu)
        except Exception as err:
            # a step that raises fails the send, as it would fail a Process
            self.done.fail(err)
        finally:
            if race is not None:
                race.exit()
        return self.done

    def packed(self, _f: Future) -> None:
        self.send(self.stage)

    def packed_on_gpu(self, p: Future) -> None:
        if p._exception is not None:
            self.done.fail(p._exception)
        else:
            self.send(p._value)

    def send(self, data) -> None:
        # owned: the freshly packed stage and the read-only header are
        # handed over, so the BTL skips its defensive copies
        self.then(
            self.btl.am_send(
                "pml.rts", self.header, payload=data, envelope=self.env,
                gpudirect=self.gdr, owned=True,
            ),
            self.sent,
        )

    def sent(self, _f: Future) -> None:
        proc = self.proc
        total = self.total
        _log_eager(proc, "send", self.dest, self.gdr, total, self.t0)
        tuner = proc.tuner
        if tuner is not None and total > 0:
            # informational sample: "eager" is never a tuned choice, but
            # its cost sits beside the rendezvous ones in the table so a
            # human reading the dump sees the crossover
            key = tuner.p2p_key(
                canonicalize(self.dt, self.count), total,
                proc.node is self.dst_proc.node,
                "device" if self.buf.is_device else "host",
            )
            tuner.observe_eager(key, proc.sim.now - self.t0, total)
        self.done.resolve(None)


def eager_isend_fast(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    dest: int,
    tag: int,
    comm_id: int = 0,
) -> Future:
    """The eager send: pack, then ship the bytes inside the RTS.

    Host buffers CPU-pack into a bounce array; device buffers GPU-pack
    through a bounce buffer (see :func:`_gpu_eager`).  Returns a future
    resolving with ``None`` at wire delivery, or failing with the error
    a pack step raised.
    """
    return _EagerSend(world, proc, buf, dt, count, dest, tag, comm_id).start()


class _EagerRecv(_Chain):
    """One posted receive: match, then unpack an eager payload."""

    __slots__ = (
        "world", "proc", "buf", "dt", "count", "want_sig", "size",
        "result", "env", "gdr", "total", "t0",
    )

    def __init__(self, world, proc, buf, dt, count):
        dt.commit()
        self.world = world
        self.proc = proc
        self.buf = buf
        self.dt = dt
        self.count = count
        self.want_sig = _times(dt.signature, count)
        self.size = dt.size * count
        self.result = Future(proc.sim, label="eager-recv")
        race = _san.RACE
        self.actor = None if race is None else race.on_spawn("eager-recv")

    def matched(self, mf: Future) -> None:
        env, header, payload, sender_rank = mf._value
        try:
            _signature_check(header["signature"], self.want_sig)
            proc = self.proc
            if not header["eager"]:
                proc.sim.spawn(
                    _matched_recv_coro(
                        self.world, proc, self.buf, self.dt, self.count,
                        env, header, sender_rank,
                    ),
                    label="irecv-rest",
                    eager_start=True,
                ).add_callback(self.finish)
                return
            self.env = env
            self.t0 = proc.sim.now
            self.gdr = gdr = header["gpudirect"]
            # a receive may be posted larger than the message: unpack
            # only the prefix that arrived
            self.total = total = min(self.size, len(payload))
            if total == 0:
                self.unpacked(None)
            elif self.buf.is_host:
                job = CpuSideJob(proc, self.dt, self.count, self.buf, "unpack")
                self.then(job.process_range(0, total, payload), self.unpacked)
            else:
                p = proc.sim.spawn(
                    _gpu_eager(
                        proc, self.buf, self.dt, self.count, total, gdr,
                        payload,
                    ),
                    label="eager-unpack", eager_start=True,
                )
                self.then(p, self.unpacked_on_gpu)
        except Exception as err:
            # a signature mismatch (or any step that raises) fails the
            # receive, as it would fail a Process
            self.result.fail(err)

    def unpacked_on_gpu(self, p: Future) -> None:
        if p._exception is not None:
            self.result.fail(p._exception)
        else:
            self.unpacked(p)

    def unpacked(self, _f) -> None:
        env = self.env
        _log_eager(self.proc, "recv", env.source, self.gdr, self.total, self.t0)
        self.result.resolve(Status(env.source, env.tag, self.total))

    def finish(self, f: Future) -> None:
        # mirror the rendezvous Process's outcome onto the receive
        if f._exception is not None:
            self.result.fail(f._exception)
        else:
            self.result.resolve(f._value)


def eager_irecv_fast(
    world: "MpiWorld",
    proc: "MpiProcess",
    buf: Buffer,
    dt: Datatype,
    count: int,
    source: int,
    tag: int,
    comm_id: int = 0,
) -> Future:
    """Every receive: post, match, then unpack an eager payload in place.

    An eager match unpacks straight from the RTS payload — only the
    prefix that arrived, since a receive may be posted larger than the
    message.  A rendezvous RTS hands over to the
    :func:`_matched_recv_coro` Process, so the chain never has to
    understand the pipelined protocols.  Resolves with the
    :class:`Status`.
    """
    chain = _EagerRecv(world, proc, buf, dt, count)
    on_match = Future(proc.sim, label=proc._match_label)
    chain.then(on_match, chain.matched)
    proc.matching.post(
        PostedRecv(source=source, tag=tag, comm_id=comm_id, on_match=on_match)
    )
    result = chain.result
    _ver = _san.VERIFY
    if _ver is not None:
        # the wait spans post -> completion: an unmatched post *and* a
        # protocol stalled mid-transfer both surface as this receive
        _vtok = _ver.wait_begin(
            "recv", proc.rank, proc.sim,
            peer=None if source < 0 else source,
            tag=None if tag < 0 else tag,
            comm_id=comm_id, world=world,
        )
        result.add_callback(lambda _f: _ver.wait_end(_vtok))
    return result
