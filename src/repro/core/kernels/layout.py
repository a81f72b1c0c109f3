"""Cache-line-aligned array helpers for the kernel layer.

Compiled gather/apply kernels stream shard sub-arrays sequentially, so
the layer guarantees 64-byte (one x86 cache line, half an AVX-512
vector) alignment wherever it owns an allocation:

* scratch buffers handed out by :class:`~repro.core.kernels.arena.ScratchArena`,
* the aligned copies :func:`aligned_copy` makes.

The shard store's unit weights are views of ``csr.shared_array``'s
ones, which align themselves the same way.

Shard sub-arrays loaded from ``.npy`` files are already aligned: the
format's ``ARRAY_ALIGN`` pads every header to 64 bytes, so memmapped
data starts on a page *and* the in-file payload offset is a multiple of
64. :func:`is_aligned` lets tests and callers assert that invariant
instead of trusting it.

NumPy's own allocator only guarantees 16-byte alignment, hence
:func:`aligned_empty`: over-allocate a byte buffer and slice to the
first 64-byte boundary. The returned view keeps the raw buffer alive
through ``.base``.
"""

from __future__ import annotations

import numpy as np

#: Alignment guarantee, in bytes, for every allocation this layer owns.
ALIGN = 64


def aligned_empty(n: int, dtype) -> np.ndarray:
    """Uninitialized 1-D array of ``n`` items on a 64-byte boundary."""
    dtype = np.dtype(dtype)
    nbytes = int(n) * dtype.itemsize
    raw = np.empty(nbytes + ALIGN, dtype=np.uint8)
    offset = (-raw.ctypes.data) % ALIGN
    return raw[offset : offset + nbytes].view(dtype)


def aligned_copy(arr: np.ndarray) -> np.ndarray:
    """Aligned copy of a 1-D array (same dtype, same values)."""
    arr = np.ascontiguousarray(arr)
    out = aligned_empty(arr.size, arr.dtype)
    np.copyto(out, arr.reshape(-1))
    return out


def is_aligned(arr: np.ndarray, align: int = ALIGN) -> bool:
    """True when ``arr``'s first element sits on an ``align`` boundary.

    Empty arrays are vacuously aligned: NumPy gives them an arbitrary
    (sometimes unset) data pointer, and no kernel ever dereferences it.
    """
    return arr.size == 0 or arr.ctypes.data % align == 0
