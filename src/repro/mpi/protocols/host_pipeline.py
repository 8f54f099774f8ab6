"""Host-memory rendezvous pipeline (the traditional Open MPI path).

"Open MPI handles non-contiguous datatypes on the CPU by packing them
into a temporary CPU buffer prior to communication" (Section 4.2).  The
sender CPU-packs fragments into a staging buffer, ships each as an
Active Message payload, and the receiver CPU-unpacks; acknowledgements
implement the flow-control window.  This is also the paper's ``CPU``
comparison configuration.
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


def sender(state: TransferState, s_info: SideInfo, r_info: SideInfo, cts: dict):
    """Sender side: CPU-pack each fragment into one staging buffer.

    A contiguous buffer ships its own bytes: no staging, no CPU op.
    """
    job = CpuSideJob(state.proc, state.dt, state.count, state.buf, "pack")
    if job.contiguous:
        user = state.buf.bytes

        def pack(i, lo, hi):
            yield from ()  # nothing to wait for
            return user[lo:hi]

    else:
        stage = state.take_ring("host", state.frag_bytes)

        def pack(i, lo, hi):
            yield job.process_range(lo, hi, stage)
            return stage.bytes[: hi - lo]

    return (yield from send_fragments(state, pack))


def receiver(state: TransferState, s_info: SideInfo, r_info: SideInfo):
    """Receiver side: CPU-unpack each fragment straight from its payload."""
    job = CpuSideJob(state.proc, state.dt, state.count, state.buf, "unpack")

    def unpack(i, lo, hi, payload):
        yield job.process_range(lo, hi, payload)

    return (yield from receive_fragments(state, unpack))
