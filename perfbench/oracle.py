"""Content-addressed payloads and the NumPy delivery oracle.

Nothing here uses ``repro.datatype``: where a datatype's elements sit in
a buffer is computed from the workload's own shape parameters with masks,
transposes and index arithmetic, so a convertor bug cannot vouch for
itself.

Every buffer is viewed as 8-byte words.  A message's payload is
``pad ^ key`` at the sender's layout positions, where ``pad`` is one
seeded random word array and ``key`` hashes the message's address
``(seed, tenant, rank, round, message)`` -- so two messages never carry
the same bytes, and a mis-routed, stale, reordered or shifted delivery
does not match.  Bit 62 is clear in both, which keeps every word a
finite double (no NaN payloads for the float paths to canonicalize).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "content_key",
    "make_pad",
    "Layout",
    "contiguous_layout",
    "strided_layout",
    "triangular_layout",
    "transpose_layout",
    "indexed_layout",
]

_M64 = (1 << 64) - 1
#: clearing bit 62 keeps the exponent below all-ones: a finite double
_FINITE = _M64 ^ (1 << 62)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def content_key(*address: int) -> np.uint64:
    """64-bit key of a message (or buffer) address tuple."""
    h = 0
    for part in address:
        h = _splitmix64(h ^ (int(part) & _M64))
    return np.uint64(h & _FINITE)


def make_pad(seed: int, words: int) -> np.ndarray:
    """The seeded random word array every payload is derived from."""
    rng = np.random.default_rng([seed, 0x0DDBA11])
    pad = rng.integers(0, 1 << 63, size=words, dtype=np.uint64)
    pad &= np.uint64(_FINITE)
    return pad


class Layout:
    """Where a datatype's packed stream lives in a buffer of ``words`` words.

    ``region(w)`` returns the buffer's layout words in packed order (a
    strided view where the shape allows one, else a gathered copy);
    ``write(w, packed)`` stores a packed stream at the layout positions;
    ``gaps(w)`` returns the words outside the layout.
    """

    def __init__(
        self,
        words: int,
        nelems: int,
        view=None,
        index: Optional[np.ndarray] = None,
    ) -> None:
        self.words = words
        self.nelems = nelems
        self._view = view
        self._index = index
        self._gap_mask: Optional[np.ndarray] = None

    def region(self, w: np.ndarray) -> np.ndarray:
        if self._view is not None:
            return self._view(w)
        return w[self._index]

    def packed(self, w: np.ndarray) -> np.ndarray:
        """The layout words as a flat packed-order array."""
        return np.ascontiguousarray(self.region(w)).reshape(-1)

    def write(self, w: np.ndarray, packed: np.ndarray) -> None:
        if self._view is not None:
            view = self._view(w)
            view[...] = packed.reshape(view.shape)
        else:
            w[self._index] = packed

    def matches(self, w: np.ndarray, packed: np.ndarray) -> bool:
        """Does the buffer hold exactly ``packed`` at the layout positions?"""
        region = self.region(w)
        return bool(np.array_equal(region, packed.reshape(region.shape)))

    def gap_mask(self) -> np.ndarray:
        if self._gap_mask is None:
            mask = np.ones(self.words, dtype=bool)
            if self._view is not None:
                self._view(mask)[...] = False
            else:
                mask[self._index] = False
            self._gap_mask = mask
        return self._gap_mask

    def gaps(self, w: np.ndarray) -> np.ndarray:
        return w[self.gap_mask()]


def contiguous_layout(nelems: int) -> Layout:
    """``nelems`` words from the start of the buffer."""
    return Layout(nelems, nelems, view=lambda w: w[:nelems])


def strided_layout(
    count: int, blocklength: int, stride: int, words: Optional[int] = None
) -> Layout:
    """``count`` blocks of ``blocklength`` words, ``stride`` words apart.

    Covers ``vector`` types and the column-major sub-matrix (one block
    per column, stride = leading dimension).  The buffer holds ``words``
    words, at least ``count * stride``.
    """
    span = count * stride
    words = span if words is None else words

    def view(w):
        return w[:span].reshape(count, stride)[:, :blocklength]

    return Layout(words, count * blocklength, view=view)


def triangular_layout(n: int) -> Layout:
    """Lower triangle of a column-major ``n x n`` matrix, column by column.

    Column ``c`` holds rows ``c..n-1``: in ``[column, row]`` order that is
    the upper triangle of the index grid.
    """
    mask = np.triu(np.ones((n, n), dtype=bool)).reshape(-1)
    index = np.flatnonzero(mask)
    return Layout(n * n, int(index.size), index=index)


def transpose_layout(n: int) -> Layout:
    """The receive layout that stores a packed ``n x n`` matrix transposed.

    Packed element ``k = j*n + i`` lands at word ``j + i*n``.
    """
    return Layout(n * n, n * n, view=lambda w: w[: n * n].reshape(n, n).T)


def indexed_layout(lengths, displacements) -> Layout:
    """Blocks of ``lengths[i]`` words at word ``displacements[i]``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    disps = np.asarray(displacements, dtype=np.int64)
    total = int(lengths.sum())
    starts = np.repeat(disps - np.cumsum(lengths) + lengths, lengths)
    index = starts + np.arange(total, dtype=np.int64)
    words = int((disps + lengths).max()) if lengths.size else 0
    return Layout(words, total, index=index)
