"""ASan-style memory sanitizer for the simulated arenas.

Shadow state per :class:`~repro.hw.memory.Allocation`:

* a **validity bitmap** over the allocation's (rounded) bytes — freshly
  allocated memory is *poisoned* (unwritten); any access through the
  :attr:`Buffer.bytes` view conservatively marks the range valid (test
  harnesses initialize buffers that way), while the explicitly
  instrumented *read* sites — memcpy sources, the contiguous source of an
  unpack kernel, CPU-side unpack staging — call :meth:`check_read` first
  and flag reads of still-poisoned bytes.  This catches the ghost-slot
  class of bug: unpacking a ring segment no pack kernel ever filled.
* a **redzone**: the alignment slack between the requested size and the
  rounded allocation size.  Constructing a :class:`Buffer` that extends
  into the redzone is an out-of-bounds sub-buffer (the arena would let it
  slide silently — the bytes exist, they just were never yours).
* **use-after-free** tracking: accesses through freed allocations are
  recorded as violations (the legacy ``ValueError`` contract of
  :attr:`Buffer.bytes` is preserved — the violation is force-recorded).
* **memory-space confusion**: a ``MemoryKind``-tagged buffer handed to
  the wrong engine — a device buffer driven through the CPU convertor
  path, or an unmapped host buffer handed to a GPU pack kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sanitize.report import SanitizerReport

if TYPE_CHECKING:
    from repro.hw.memory import Allocation, Buffer

__all__ = ["MemorySanitizer"]


class MemorySanitizer:
    """Shadow-memory checker installed at :data:`repro.sanitize.runtime.MEM`."""

    def __init__(self, report: SanitizerReport) -> None:
        self.report = report
        #: alloc_id -> validity bitmap over the rounded allocation
        self._valid: dict[int, np.ndarray] = {}
        #: alloc_id -> requested size (redzone starts here)
        self._requested: dict[int, int] = {}

    # -- allocation lifecycle -------------------------------------------------
    def on_alloc(self, allocation: "Allocation") -> None:
        """New allocation: everything poisoned, redzone never unpoisons."""
        self._valid[allocation.alloc_id] = np.zeros(allocation.nbytes, dtype=bool)
        self._requested[allocation.alloc_id] = allocation.requested_nbytes

    def on_free(self, allocation: "Allocation") -> None:
        """Drop the shadow — later accesses are use-after-free."""
        self._valid.pop(allocation.alloc_id, None)
        self._requested.pop(allocation.alloc_id, None)

    def repoison(self, buf: "Buffer", nbytes: Optional[int] = None) -> None:
        """Re-poison a pooled buffer handed out again (staging-pool reuse
        hands out logically-fresh memory whose previous contents must not
        leak through as 'initialized').

        The first ``nbytes`` (default: all) of ``buf`` are the new
        request; everything past them is redzone until the next reuse,
        so a shared buffer serving a smaller request still reports a
        sub-buffer that reaches beyond it.
        """
        aid = buf.allocation.alloc_id
        shadow = self._valid.get(aid)
        if shadow is not None:
            shadow[buf.offset :] = False
            end = buf.offset + (buf.nbytes if nbytes is None else nbytes)
            self._requested[aid] = end

    # -- buffer construction / access ----------------------------------------
    def on_buffer(self, buf: "Buffer") -> None:
        """A new Buffer handle: flag ranges that reach into the redzone."""
        requested = self._requested.get(
            buf.allocation.alloc_id, buf.allocation.requested_nbytes
        )
        end = buf.offset + buf.nbytes
        if end > requested:
            self.report.record(
                "mem",
                "mem.oob_subbuffer",
                f"buffer [{buf.offset}, {end}) of "
                f"{buf.memory.name}#{buf.allocation.alloc_id} "
                f"{buf.allocation.label!r} extends {end - requested} byte(s) "
                f"into the alignment redzone (requested size {requested}, "
                f"rounded {buf.allocation.nbytes})",
                where=f"Buffer({buf.memory.name}#{buf.allocation.alloc_id})",
            )

    def on_touch(self, buf: "Buffer") -> None:
        """A live ``.bytes`` view was taken: conservatively mark valid."""
        shadow = self._valid.get(buf.allocation.alloc_id)
        if shadow is not None:
            shadow[buf.offset : buf.offset + buf.nbytes] = True

    def on_use_after_free(self, buf: "Buffer") -> None:
        """Access through a freed allocation (ValueError still raised)."""
        self.report.record(
            "mem",
            "mem.use_after_free",
            f"access to bytes [{buf.offset}, {buf.offset + buf.nbytes}) of "
            f"freed allocation {buf.memory.name}#{buf.allocation.alloc_id} "
            f"{buf.allocation.label!r}",
            where=repr(buf),
            force_record=True,
        )

    def check_read(self, buf: "Buffer", lo: int, hi: int, what: str = "") -> None:
        """Instrumented read of ``buf[lo:hi)``: flag poisoned bytes.

        Must run *before* the caller takes the ``.bytes`` view (which
        would mark the range valid).
        """
        if buf.allocation.freed:
            self.on_use_after_free(buf)
            return
        shadow = self._valid.get(buf.allocation.alloc_id)
        if shadow is None:
            return  # allocated before the sanitizer was enabled
        a, b = buf.offset + lo, buf.offset + hi
        window = shadow[a:b]
        if window.all():
            return
        first = a + int(np.argmin(window))
        n_bad = int((~window).sum())
        self.report.record(
            "mem",
            "mem.uninit_read",
            f"{what or 'read'} of {n_bad} uninitialized byte(s) in "
            f"{buf.memory.name}#{buf.allocation.alloc_id} "
            f"{buf.allocation.label!r} bytes [{a}, {b}) "
            f"(first poisoned byte at offset {first}); no writer ever "
            f"filled this range",
            where=what or repr(buf),
        )

    # -- memory-space confusion ----------------------------------------------
    def check_cpu_path(self, buf: "Buffer", what: str = "CpuSideJob") -> None:
        """A buffer entered the CPU convertor path: must be host memory."""
        if buf.is_device:
            self.report.record(
                "mem",
                "mem.space_confusion",
                f"device buffer {buf!r} handed to the host-side datatype "
                f"engine ({what}); device-resident data must go through "
                f"the GPU engine or an explicit memcpy",
                where=what,
            )

    def check_gpu_path(self, buf: "Buffer", mapped: bool, what: str = "PackJob") -> None:
        """A user buffer entered the GPU engine: host memory must be mapped."""
        if buf.is_host and not mapped:
            self.report.record(
                "mem",
                "mem.space_confusion",
                f"unmapped host buffer {buf!r} handed to the GPU datatype "
                f"engine ({what}); a pack kernel cannot reach host memory "
                f"without map_host_buffer() (zero-copy registration)",
                where=what,
            )
