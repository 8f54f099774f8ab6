"""Pack/unpack convertors: the vectorized fast path and helpers.

Two interchangeable engines exist:

* :class:`repro.datatype.stack.StackMachine` — the faithful Open MPI
  stack walk, resumable at any byte (reference implementation);
* the **compiled pack plans** here, selected per (datatype, count) from
  the canonical IR (:mod:`repro.datatype.canonical`) by its cost model:

  - ``memcpy``    — single gap-free block: one slice copy per range;
  - ``strided2d`` — uniform vector: head/body/tail strided slice copies
    (the CPU counterpart of ``cudaMemcpy2D``);
  - ``runs``      — irregular layouts whose runs are long: one slice
    copy per run, driven by an O(runs) table of displacements, lengths
    and packed offsets (:func:`run_table`) — the CPU counterpart of the
    paper's per-block CUDA_DEV work list;
  - ``gather``    — a cached NumPy index array at the datatype's
    granularity (8 B for double-based types), so packing a fragment is
    one fancy-index expression.  It depends only on the type's *shape*,
    never on buffer addresses, so it is computed once per (datatype,
    count) and reused — but it holds one entry per element, so the cost
    model keeps it for layouts of short runs;
  - ``stack``     — the resumable stack walk, for sub-granularity base
    offsets no precompiled map can express.

Both engines are validated against each other by property tests.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Optional

import numpy as np

from repro.datatype.canonical import (
    PLAN_GATHER,
    PLAN_MEMCPY,
    PLAN_RUNS,
    PLAN_STACK,
    PLAN_STRIDED2D,
    canonicalize,
    select_cpu_plan,
)
from repro.datatype.ddt import Datatype
from repro.datatype.stack import StackMachine, compile_datatype
from repro.datatype.typemap import Spans

__all__ = [
    "Convertor",
    "gather_indices",
    "RunTable",
    "run_table",
    "stream_unit",
    "strided_rows",
    "unit_elems",
    "pack_bytes",
    "unpack_bytes",
]


def strided_rows(
    buf: np.ndarray, first: int, blocklength: int, stride: int, count: int
) -> np.ndarray:
    """``(count, blocklength)`` view of 1-D ``buf``: row ``i`` starts at
    element ``first + i * stride`` (the layout one ``cudaMemcpy2D`` moves).

    All arguments are in elements of ``buf``; ``stride`` may be negative
    or zero.  Raises :class:`ValueError` when any row falls outside the
    buffer, where a slice would silently truncate.  Rows that overlap
    (``abs(stride) < blocklength``) are fine to read but are written in
    an unspecified order — MPI forbids such layouts on the receive side.
    """
    if count > 0 and blocklength > 0:
        reach = (count - 1) * stride
        lo = first + min(reach, 0)
        hi = first + max(reach, 0) + blocklength
        if lo < 0 or hi > len(buf):
            raise ValueError(
                f"strided rows [{lo}, {hi}) exceed a buffer of {len(buf)} elements"
            )
    step = buf.strides[0]
    return np.lib.stride_tricks.as_strided(
        buf[first:], shape=(count, blocklength), strides=(stride * step, step)
    )


def unit_elems(user_bytes: np.ndarray, unit: int) -> np.ndarray:
    """``user_bytes`` viewed as ``unit``-byte elements (tail bytes dropped),
    the element space :func:`gather_indices` maps index."""
    usable = len(user_bytes) // unit * unit
    return user_bytes[:usable].view(_unit_dtype(unit))


def stream_unit(dt: Datatype, count: int = 1) -> int:
    """Byte granularity of the packed stream for ``count`` elements."""
    unit = dt.granularity()
    if count > 1:
        # element k lives at k * extent, so the unit must divide the
        # extent too (a resized type may have any byte extent)
        unit = math.gcd(unit, abs(dt.extent)) or 1
    return unit


def gather_indices(dt: Datatype, count: int = 1) -> tuple[np.ndarray, int]:
    """Element-granularity gather map for ``count`` elements of ``dt``.

    Returns ``(idx, unit)`` where ``idx[k]`` is the user-buffer offset (in
    ``unit``-byte elements) of the ``k``-th packed element.  Cached on the
    datatype.
    """
    unit = stream_unit(dt, count)
    key = (count, unit)
    cached = dt._gather_cache.get(key)
    if cached is not None:
        return cached, unit
    spans = dt.spans_for_count(count)
    idx = _spans_to_indices(spans, unit)
    dt._gather_cache[key] = idx
    return idx, unit


class RunTable(NamedTuple):
    """O(runs) copy plan of the runs plan, in bytes.

    Run ``r`` covers user bytes ``[starts[r], starts[r] + n)`` and packed
    bytes ``[offs[r], offs[r + 1])``, ``n = offs[r + 1] - offs[r]``;
    ``true_lb``/``true_ub`` bound every run's reach.  Plain lists,
    because the copy loop reads them one run at a time.
    """

    starts: list
    offs: list
    true_lb: int
    true_ub: int


def run_table(dt: Datatype, count: int = 1) -> RunTable:
    """The runs plan's table for ``count`` elements of ``dt``.

    Cached per count on the datatype, like the canonical form; unlike
    :func:`gather_indices` it never grows with the element count.
    """
    table = dt._runs_cache.get(count)
    if table is None:
        spans = dt.spans_for_count(count)
        offs = np.zeros(spans.count + 1, dtype=np.int64)
        np.cumsum(spans.lens, out=offs[1:])
        table = RunTable(
            spans.disps.tolist(), offs.tolist(), spans.true_lb, spans.true_ub
        )
        dt._runs_cache[count] = table
    return table


def _spans_to_indices(spans: Spans, unit: int) -> np.ndarray:
    """Expand byte spans into per-element user offsets (in units)."""
    if spans.count == 0:
        return np.empty(0, dtype=np.int64)
    counts = spans.lens // unit
    starts = spans.disps // unit
    total = int(counts.sum())
    # idx = repeat(starts) + intra-span ramp
    idx = np.repeat(starts, counts)
    ramp = np.arange(total, dtype=np.int64)
    span_first = np.repeat(np.cumsum(counts) - counts, counts)
    idx += ramp - span_first
    return idx


class Convertor:
    """Fragment-oriented pack/unpack bound to one user buffer.

    The protocols drive this exactly like Open MPI drives
    ``opal_convertor_pack``: ask for the next ``n`` bytes of the packed
    stream (pack), or deliver the next ``n`` bytes (unpack).  Fragment
    boundaries that are multiples of the datatype granularity take the
    vectorized path; anything else falls back to the stack machine.
    """

    def __init__(
        self,
        dt: Datatype,
        count: int,
        user_bytes: np.ndarray,
        direction: str = "pack",
        base_offset: int = 0,
    ) -> None:
        if direction not in ("pack", "unpack"):
            raise ValueError("direction must be 'pack' or 'unpack'")
        dt.commit()
        self.dt = dt
        self.count = count
        self.user = user_bytes
        self.direction = direction
        self.base_offset = base_offset
        self.total_bytes = dt.size * count
        self.position = 0
        self._unit = stream_unit(dt, count)
        #: gather index array, built lazily — the uniform-vector fast
        #: path below never needs it (for a 4096^2 sub-matrix the index
        #: array alone is 16M int64 entries)
        self._idx: Optional[np.ndarray] = None
        self._user_elems: Optional[np.ndarray] = None
        self._stack: Optional[StackMachine] = None
        #: dedicated stack machine for the *range* API when the base is
        #: misaligned (the gather map cannot express a sub-unit shift)
        self._rstack: Optional[StackMachine] = None
        self._rstack_pos = 0
        lo = dt.spans_for_count(count).true_lb if count else 0
        if base_offset + lo < 0:
            raise ValueError("datatype reaches below the start of the buffer")
        #: canonical normal form of (datatype, count) — the structural
        #: identity plan selection and the DevCache key on
        self.form = canonicalize(dt, count)
        #: compiled pack plan the cost model chose for this stream
        self.plan = select_cpu_plan(self.form, self._unit, base_offset)
        #: uniform-vector shape, when the whole stream is expressible as
        #: a strided 2-D copy (the CPU counterpart of cudaMemcpy2D)
        self._vec = None
        self._rows_view: Optional[np.ndarray] = None
        #: the runs plan's table, bounds-checked on first use
        self._runs: Optional[RunTable] = None
        if self.plan == PLAN_STACK:
            self._fallback()  # misaligned base: stack machine from the start
        elif self.plan in (PLAN_MEMCPY, PLAN_STRIDED2D):
            self._vec = self.form.vector_shape

    # -- internals -------------------------------------------------------
    def _elems(self) -> np.ndarray:
        if self._user_elems is None:
            self._user_elems = unit_elems(self.user, self._unit)
        return self._user_elems

    def _indices(self) -> np.ndarray:
        """User-buffer-absolute gather indices (element granularity)."""
        if self._idx is None:
            idx, unit = gather_indices(self.dt, self.count)
            assert unit == self._unit
            if self.base_offset:
                idx = idx + self.base_offset // self._unit
            self._idx = idx
        return self._idx

    def _rows(self) -> Optional[np.ndarray]:
        """Strided 2-D (block, element) view of the user buffer."""
        if self._rows_view is None:
            v = self._vec
            u = self._unit
            try:
                self._rows_view = strided_rows(
                    self._elems(),
                    (self.base_offset + v.first_disp) // u,
                    v.blocklength // u,
                    v.stride // u,
                    v.count,
                )
            except ValueError:
                self._vec = None  # layout exceeds the buffer: no fast path
                self.plan = PLAN_GATHER
                return None
        return self._rows_view

    def _fast_range(self, buf: np.ndarray, lo: int, hi: int) -> bool:
        """Strided-copy transfer of packed range [lo, hi); True if handled.

        For uniform-vector layouts every fragment decomposes into (head
        partial block, whole blocks, tail partial block) — three NumPy
        slice copies instead of a fancy-index gather over every element,
        the CPU-side analogue of packing with ``cudaMemcpy2D``.
        """
        if self._vec is None or lo >= hi:
            return False
        rows = self._rows()
        if rows is None:
            return False
        epb = rows.shape[1]
        e0, e1 = lo // self._unit, hi // self._unit
        o = buf[: hi - lo].view(rows.dtype)
        pack = self.direction == "pack"
        r0, c0 = divmod(e0, epb)
        r1, c1 = divmod(e1, epb)
        if r0 == r1:
            if pack:
                o[:] = rows[r0, c0:c1]
            else:
                rows[r0, c0:c1] = o
            return True
        pos = 0
        if c0:
            n0 = epb - c0
            if pack:
                o[:n0] = rows[r0, c0:]
            else:
                rows[r0, c0:] = o[:n0]
            pos = n0
            r0 += 1
        nmid = r1 - r0
        if nmid > 0:
            mid = o[pos : pos + nmid * epb].reshape(nmid, epb)
            if pack:
                mid[:] = rows[r0:r1]
            else:
                rows[r0:r1] = mid
            pos += nmid * epb
        if c1:
            if pack:
                o[pos : pos + c1] = rows[r1, :c1]
            else:
                rows[r1, :c1] = o[pos : pos + c1]
        return True

    def _run_plan(self) -> RunTable:
        """The run table, once checked to stay inside this buffer."""
        if self._runs is None:
            table = run_table(self.dt, self.count)
            lo = self.base_offset + table.true_lb
            hi = self.base_offset + table.true_ub
            if table.starts and (lo < 0 or hi > len(self.user)):
                raise ValueError(
                    f"runs [{lo}, {hi}) exceed a buffer of "
                    f"{len(self.user)} bytes"
                )
            self._runs = table
        return self._runs

    def _runs_range(self, buf: np.ndarray, lo: int, hi: int) -> None:
        """Packed range [lo, hi) moved with one slice copy per run.

        The copies go through memoryviews: a run costs one ``memcpy``
        plus about half the interpreter overhead of a NumPy slice
        assignment, which is what sets the plan's per-run cost.
        """
        starts, offs, _lb, _ub = self._run_plan()
        user = memoryview(self.user)
        packed = memoryview(buf)
        base = self.base_offset
        pack = self.direction == "pack"
        r = bisect_right(offs, lo) - 1
        pos = lo
        while pos < hi:
            skip = pos - offs[r]
            end = min(offs[r + 1], hi)
            s = base + starts[r] + skip
            if pack:
                packed[pos - lo : end - lo] = user[s : s + end - pos]
            else:
                user[s : s + end - pos] = packed[pos - lo : end - lo]
            pos = end
            r += 1

    def _move(self, buf: np.ndarray, lo: int, hi: int) -> None:
        """Unit-aligned transfer of packed range [lo, hi) by the plan."""
        if self.plan == PLAN_RUNS:
            self._runs_range(buf, lo, hi)
            return
        if self._fast_range(buf, lo, hi):
            return
        u = self._unit
        idx = self._indices()[lo // u : hi // u]
        if self.direction == "pack":
            buf[: hi - lo] = self._elems()[idx].view(np.uint8)
        else:
            self._elems()[idx] = buf[: hi - lo].view(_unit_dtype(u))

    def _fallback(self) -> StackMachine:
        if self._stack is None:
            self.plan = PLAN_STACK
            prog = compile_datatype(self.dt, self.count)
            self._stack = StackMachine(
                prog, self.user, direction=self.direction, base_disp=self.base_offset
            )
            # fast-forward to the current position
            if self.position:
                scratch = np.empty(self.position, dtype=np.uint8)
                if self.direction == "pack":
                    self._stack.advance(scratch)
                else:
                    raise RuntimeError(
                        "cannot fall back mid-unpack; use aligned fragments"
                    )
        return self._stack

    # -- API ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.position >= self.total_bytes

    def pack(self, out: np.ndarray, max_bytes: Optional[int] = None) -> int:
        """Produce the next packed bytes into ``out``; returns count."""
        if self.direction != "pack":
            raise RuntimeError("convertor was created for unpack")
        n = min(
            self.total_bytes - self.position,
            len(out) if max_bytes is None else min(max_bytes, len(out)),
        )
        if n <= 0:
            return 0
        lo, hi = self.position, self.position + n
        u = self._unit
        if self._stack is None and lo % u == 0 and hi % u == 0:
            self._move(out, lo, hi)
        else:
            done = self._fallback().advance(out[:n])
            assert done == n
        self.position = hi
        return n

    def unpack(self, data: np.ndarray, max_bytes: Optional[int] = None) -> int:
        """Consume the next packed bytes from ``data``; returns count."""
        if self.direction != "unpack":
            raise RuntimeError("convertor was created for pack")
        n = min(
            self.total_bytes - self.position,
            len(data) if max_bytes is None else min(max_bytes, len(data)),
        )
        if n <= 0:
            return 0
        lo, hi = self.position, self.position + n
        u = self._unit
        if self._stack is None and lo % u == 0 and hi % u == 0:
            self._move(data, lo, hi)
        else:
            done = self._fallback().advance(data[:n])
            assert done == n
        self.position = hi
        return n

    def _range_stack(self, lo: int) -> StackMachine:
        """Stack machine backing the range API for misaligned bases.

        The gather index array is element-granular, so a ``base_offset``
        that is not a multiple of the unit cannot be folded into it — the
        old fast path silently dropped the sub-unit shift and touched the
        wrong user bytes.  Packing may revisit or skip ranges (the stream
        is regenerated / advanced through scratch); unpacking is
        inherently sequential — consumed bytes cannot be replayed.
        """
        if self._rstack is not None and self._rstack_pos > lo:
            if self.direction != "pack":
                raise RuntimeError(
                    "misaligned-base unpack_range cannot rewind; "
                    "deliver fragments in stream order"
                )
            self._rstack = None  # rewind: rebuild and re-walk the stream
        if self._rstack is None:
            prog = compile_datatype(self.dt, self.count)
            self._rstack = StackMachine(
                prog, self.user, direction=self.direction,
                base_disp=self.base_offset,
            )
            self._rstack_pos = 0
        if self._rstack_pos < lo:
            if self.direction != "pack":
                raise RuntimeError(
                    "misaligned-base unpack_range cannot skip ahead; "
                    "deliver fragments in stream order"
                )
            scratch = np.empty(lo - self._rstack_pos, dtype=np.uint8)
            self._rstack.advance(scratch)
            self._rstack_pos = lo
        return self._rstack

    def pack_range(self, out: np.ndarray, lo: int, hi: int) -> None:
        """Random-access pack of packed-stream range [lo, hi) (aligned)."""
        u = self._unit
        if lo % u or hi % u:
            raise ValueError("pack_range requires granularity-aligned bounds")
        if self.base_offset % u:
            done = self._range_stack(lo).advance(out[: hi - lo])
            assert done == hi - lo
            self._rstack_pos = hi
            return
        self._move(out, lo, hi)

    def unpack_range(self, data: np.ndarray, lo: int, hi: int) -> None:
        """Random-access unpack of packed-stream range [lo, hi) (aligned)."""
        u = self._unit
        if lo % u or hi % u:
            raise ValueError("unpack_range requires granularity-aligned bounds")
        if self.base_offset % u:
            done = self._range_stack(lo).advance(data[: hi - lo])
            assert done == hi - lo
            self._rstack_pos = hi
            return
        self._move(data, lo, hi)


_UNIT_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _unit_dtype(u: int):
    dt = _UNIT_DTYPES.get(u)
    if dt is None:
        # non-power-of-two granularity: fall back to byte records
        return np.dtype((np.void, u))
    return dt


def pack_bytes(dt: Datatype, count: int, user_bytes: np.ndarray) -> np.ndarray:
    """One-shot pack of ``count`` elements; returns the packed stream."""
    conv = Convertor(dt, count, user_bytes, "pack")
    out = np.empty(conv.total_bytes, dtype=np.uint8)
    conv.pack(out)
    return out


def unpack_bytes(
    dt: Datatype, count: int, user_bytes: np.ndarray, packed: np.ndarray
) -> None:
    """One-shot unpack of a packed stream into the user layout."""
    conv = Convertor(dt, count, user_bytes, "unpack")
    n = conv.unpack(packed)
    if n != conv.total_bytes:
        raise ValueError(
            f"packed stream holds {len(packed)} bytes; type needs "
            f"{conv.total_bytes}"
        )
