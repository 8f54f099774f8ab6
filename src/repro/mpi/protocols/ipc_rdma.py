"""Pipelined RDMA protocol over CUDA IPC (Section 4.1, Figure 4).

Intra-node GPU-to-GPU rendezvous.  The sender exposes a device-resident
fragment ring through a CUDA IPC handle shipped in the connection
request; the receiver maps it once (registration cached), then drives the
transfer: the sender packs fragment *i* while the receiver unpacks
fragment *i-1*, synchronizing only through per-fragment Active Messages
("While the sender works on packing a fragment, the receiver is able to
unpack the previous fragment, and then notify the sender that the
fragment is now ready for reuse").

The handshake also negotiates the contiguous fast paths:

* sender contiguous — "the receiver can use the sender buffer directly
  for its unpack operation, without the need for further
  synchronizations";
* receiver contiguous — "the sender is then allowed to pack directly
  into the receiver buffer";
* both contiguous — a plain one-sided GET.

And the receiver may stage each packed fragment into a local GPU buffer
before unpacking — grouping small remote reads into one PCIe-friendly
copy, the 10-15 % win of Section 5.2.1 — controlled by
``MpiConfig.receiver_local_staging``.

Robustness (docs/ROBUSTNESS.md): a receiver whose ``cudaIpcOpenMemHandle``
fails steers the still-open handshake down to the copy-in/out protocol;
a receiver that cannot allocate its optional local staging unpacks
straight from the remote ring; sender-side opens (which have no
renegotiation path) get bounded retry; fragment notifications and ACKs
ride the retransmit/dedupe layer in :class:`TransferState`.
"""

from __future__ import annotations

from repro.cuda.ipc import IpcMemHandle
from repro.faults.plan import IpcOpenError
from repro.mpi.protocols.common import (
    SideInfo,
    TransferState,
    open_with_retry,
    receive_fragments,
    send_fragments,
)
from repro.mpi.protocols.copy_in_out import receiver as copyinout_receiver
from repro.sim.core import all_of

__all__ = ["sender", "receiver", "transfer_mode"]


def transfer_mode(s_info: SideInfo, r_info: SideInfo) -> str:
    """Pick the Fig-4 mode from the two sides' contiguity."""
    if s_info.contiguous and r_info.contiguous:
        return "both_contig"
    if s_info.contiguous:
        return "send_contig"
    if r_info.contiguous:
        return "recv_contig"
    return "general"


def _slot(state: TransferState, ring, i: int, n: int):
    """Ring segment of fragment ``i`` (``n`` bytes long)."""
    return ring[(i % state.depth) * state.frag_bytes :][:n]


# ---------------------------------------------------------------------------
# sender
# ---------------------------------------------------------------------------


def sender(state: TransferState, s_info: SideInfo, r_info: SideInfo, cts: dict):
    """Sender side of the pipelined RDMA protocol (mode-dispatched)."""
    mode = cts["mode"]
    state.stats.mode = mode
    proc = state.proc
    if mode == "general":
        # pack each fragment into our device ring (allocated by the PML
        # before the RTS); the receiver reads the slot itself
        job = proc.engine.pack_job(
            state.dt, state.count, state.buf, proc.config.engine
        )

        def pack(i, lo, hi):
            frag = job.range_fragment(i, lo, hi)
            seg = _slot(state, state.ring, i, hi - lo)
            yield from job.process_fragment(frag, seg)

        return (yield from send_fragments(state, pack, ring_path=True))
    if mode == "recv_contig":
        # receiver contiguous: pack kernels write its buffer directly
        mapped = yield from open_with_retry(state, cts["handle"])
        job = proc.engine.pack_job(
            state.dt, state.count, state.buf, proc.config.engine
        )
        for i, (lo, hi) in enumerate(state.ranges()):
            frag = job.range_fragment(i, lo, hi)
            yield from job.process_fragment(frag, mapped[lo:hi])
        state.btl.am_send(state.peer("done"), {"done": True})
        return state.total
    # send_contig / both_contig: one-sided GET by the receiver; just wait
    done = yield state.inbox.get()
    assert done.header.get("done")
    return state.total


# ---------------------------------------------------------------------------
# receiver
# ---------------------------------------------------------------------------


def receiver(state: TransferState, s_info: SideInfo, r_info: SideInfo):
    """Receiver side of the pipelined RDMA protocol (mode-dispatched)."""
    mode = transfer_mode(s_info, r_info)
    state.stats.mode = mode
    proc, btl = state.proc, state.btl
    if mode == "recv_contig":
        # receiver contiguous: expose the buffer; the sender packs into it
        r_info.handle = IpcMemHandle.get(state.buf)
        _cts(state, r_info, mode, handle=r_info.handle)
        done = yield state.inbox.get()
        assert done.header.get("done")
        return state.total
    # map the sender's ring or user buffer (one-time RDMA connection
    # establishment; the registration is cached)
    try:
        mapped = yield s_info.handle.open(
            proc.gpu, proc.ipc_cache, faults=proc.faults
        )
    except IpcOpenError:
        return (yield from _fallback_copyinout(state, s_info, r_info))
    sender_gpu = s_info.handle.source_gpu
    if mode == "both_contig":
        _cts(state, r_info, mode)
        yield from _get_contig(state, mapped, sender_gpu)
    else:
        local = _local_stage(state, sender_gpu)
        _cts(state, r_info, mode)
        unpack = _unpack_stage(state, sender_gpu, local)
        if mode == "general":

            def from_ring(i, lo, hi, _payload):
                return unpack(i, lo, hi, _slot(state, mapped, i, hi - lo))

            return (yield from receive_fragments(state, from_ring, chains=True))
        yield from _get_fragments(state, unpack, mapped)
    btl.am_send(state.peer("done"), {"done": True})
    return state.total


def _cts(state: TransferState, r_info: SideInfo, mode: str, **extra) -> None:
    state.btl.am_send(
        state.peer("cts"),
        {"protocol": "ipc_rdma", "mode": mode, "side": r_info, **extra},
    )


def _fallback_copyinout(state: TransferState, s_info: SideInfo, r_info: SideInfo):
    """IPC open failed: steer the handshake down to copy-in/out.

    The CTS has not been sent yet, so the receiver still controls the
    protocol choice — it answers ``copyinout`` and both sides run the
    host-staged pipeline instead of crashing the transfer.
    """
    proc = state.proc
    proc.metrics.counter("pml.fallback.copyinout").inc()
    state.stats.protocol = "copyinout"
    state.stats.mode = ""
    state.stats.fallback = "copyinout"
    state.btl.am_send(
        state.peer("cts"), {"protocol": "copyinout", "side": r_info}
    )
    return (yield from copyinout_receiver(state, s_info, r_info))


def _local_stage(state: TransferState, sender_gpu):
    """The optional receiver-side staging ring, degrading gracefully.

    Only a cross-GPU receiver with ``receiver_local_staging`` takes one.
    Under allocation pressure (or an injected staging fault) the
    receiver simply unpacks straight from the remote memory — correct,
    just without the Section 5.2.1 grouping win.
    """
    proc = state.proc
    if not (proc.config.receiver_local_staging and sender_gpu is not proc.gpu):
        return None
    local = state.take_ring("device", optional=True)
    if local is None:
        state.stats.fallback = "direct_unpack"
        proc.metrics.counter("pml.fallback.direct_unpack").inc()
    return local


def _unpack_stage(state: TransferState, sender_gpu, local):
    """The receiver's per-fragment IPC stage.

    ``unpack(i, lo, hi, src)`` retires fragment *i* from the mapped
    remote segment ``src``: a CUDA IPC event wait on the engine the
    fragment will use, then the unpack kernel, reading ``src`` across
    the link or, with a ``local`` stage, a local copy made by one
    PCIe-friendly peer copy (Section 5.2.1's 10-15 %).
    """
    proc = state.proc
    cross_gpu = sender_gpu is not proc.gpu
    job = proc.engine.unpack_job(
        state.dt, state.count, state.buf, proc.config.engine
    )
    link = (
        proc.gpu.p2p_links[sender_gpu.name] if cross_gpu else proc.gpu.copy_engine
    )
    sync = proc.node.params.ipc_frag_sync_cost

    def unpack(i, lo, hi, src):
        frag = job.range_fragment(i, lo, hi)
        yield link.transfer(0, extra_overhead=sync, label="ipc-sync")
        if local is not None:
            lseg = _slot(state, local, i, hi - lo)
            yield proc.gpu.memcpy_peer(lseg, src, sender_gpu)
            src = lseg
        yield from job.process_fragment(frag, src)

    return unpack


def _get_fragments(state: TransferState, unpack, mapped):
    """Sender contiguous: unpack straight out of its mapped user buffer.

    "The receiver can use the sender buffer directly for its unpack
    operation, without the need for further synchronizations": no
    notifications, no ACKs; the credit window only bounds how many local
    staging slots are in flight.
    """
    proc = state.proc

    def chain(i, lo, hi):
        yield from unpack(i, lo, hi, mapped[lo:hi])
        state.release_credit()

    chains = []
    for i, (lo, hi) in enumerate(state.ranges()):
        yield state.acquire_credit()
        chains.append(proc.sim.spawn(chain(i, lo, hi), label="get-unpack"))
    yield all_of(proc.sim, chains)


def _get_contig(state: TransferState, mapped, sender_gpu):
    """Both contiguous: a single one-sided GET of the whole message."""
    proc = state.proc
    if sender_gpu is proc.gpu:
        yield proc.gpu.memcpy_d2d(state.buf, mapped[: state.total])
        return
    # pipelined GET: fragments hide per-op overhead behind the wire
    futs = [
        proc.gpu.memcpy_peer(state.buf[lo:hi], mapped[lo:hi], sender_gpu)
        for lo, hi in state.ranges()
    ]
    for f in futs:
        yield f
