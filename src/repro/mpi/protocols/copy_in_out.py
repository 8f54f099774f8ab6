"""Copy-in/copy-out protocol: GPU data staged through host memory.

"In some cases, due to hardware limitations or system level security
restrictions, the IPC is disabled and GPU RDMA transfers are not
available ... we provide a copy in/copy out protocol, where all data
transfers go through host memory" (Section 4.2).  This is also the path
the paper uses for **inter-node** transfers: staging through host with
the pipeline beats GPUDirect RDMA beyond ~30 KB.

Pipelining overlaps, per fragment: GPU pack kernel, device-to-host
movement (explicit memcpy or — with UMA *zero copy* — implicitly inside
the kernel), wire transfer, host-to-device movement, and GPU unpack.
Either endpoint may instead be a host buffer, in which case its side
degenerates to the CPU convertor ("extremely similar to the case when
one process uses device memory while the other only uses host memory").
"""

from __future__ import annotations

from repro.mpi.protocols.common import (
    CpuSideJob,
    SideInfo,
    TransferState,
    receive_fragments,
    send_fragments,
)

__all__ = ["sender", "receiver"]


def _side(state: TransferState, on_device: bool, direction: str):
    """Take this side's rings; return its stage and the host ring.

    The stage ``move(i, lo, hi, seg)`` moves fragment *i* between the
    user buffer and its host ring segment ``seg``: the CPU convertor for
    a host buffer; for a device buffer the GPU engine writing (or
    reading) ``seg`` through UMA zero-copy, or a device ring segment plus
    an explicit D2H (H2D) copy.
    """
    proc = state.proc
    cfg = proc.config
    zero_copy = on_device and cfg.zero_copy
    ring = state.take_ring("host", zero_copy_map=zero_copy)
    packing = direction == "pack"
    if not on_device:
        job = CpuSideJob(proc, state.dt, state.count, state.buf, direction)

        def move(i, lo, hi, seg):
            yield job.process_range(lo, hi, seg if packing else seg.bytes)

        return move, ring
    dev_ring = None if zero_copy else state.take_ring("device")
    if packing:
        job = proc.engine.pack_job(state.dt, state.count, state.buf, cfg.engine)
    else:
        job = proc.engine.unpack_job(state.dt, state.count, state.buf, cfg.engine)

    def move(i, lo, hi, seg):
        frag = job.range_fragment(i, lo, hi)
        if dev_ring is None:
            # the kernel streams straight through the mapped host
            # segment, PCIe co-occupied (Fig 7's "cpy")
            yield from job.process_fragment(frag, seg)
            return
        dseg = dev_ring[(i % state.depth) * state.frag_bytes :][: hi - lo]
        if packing:
            yield from job.process_fragment(frag, dseg)
            yield proc.gpu.memcpy_d2h(seg, dseg)
        else:
            yield proc.gpu.memcpy_h2d(dseg, seg)
            yield from job.process_fragment(frag, dseg)

    return move, ring


def sender(state: TransferState, s_info: SideInfo, r_info: SideInfo, cts: dict):
    """Sender side of the copy-in/out pipeline (pack -> stage -> wire)."""
    move, ring = _side(state, s_info.loc == "device", "pack")

    def pack(i, lo, hi):
        seg = ring[(i % state.depth) * state.frag_bytes :][: hi - lo]
        yield from move(i, lo, hi, seg)
        return seg.bytes

    return (yield from send_fragments(state, pack))


def receiver(state: TransferState, s_info: SideInfo, r_info: SideInfo):
    """Receiver side of the copy-in/out pipeline (deposit -> unpack)."""
    move, ring = _side(state, r_info.loc == "device", "unpack")

    def unpack(i, lo, hi, payload):
        seg = ring[(i % state.depth) * state.frag_bytes :][: hi - lo]
        # the wire deposited the fragment into our posted staging
        seg.bytes[:] = payload[: hi - lo]
        yield from move(i, lo, hi, seg)

    return (yield from receive_fragments(state, unpack))
