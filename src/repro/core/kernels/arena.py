"""Reusable scratch-buffer arena: allocation-free steady-state loops.

The generic compute path materializes fresh temporaries every
iteration (``np.take`` results, reduceat outputs, apply masks). The
kernel backends instead borrow buffers from a :class:`ScratchArena`
keyed by ``(role, shard)``: the first iteration allocates, every later
iteration reuses, so a converging run stops churning the allocator
after its first sweep over the shards.

Buffers are 64-byte aligned (:mod:`repro.core.kernels.layout`) and
grow monotonically -- a request larger than the cached capacity
replaces the buffer (with slack so ragged frontier sizes settle
quickly). ``get`` returns a length-``n`` *view*; callers must treat it
as invalid after the next ``get`` with the same key and must copy
anything that outlives the shard step.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import layout

#: Over-allocation factor applied when a buffer has to grow, so ragged
#: per-iteration sizes (shrinking frontiers) stop reallocating early.
GROWTH_SLACK = 1.25


class ScratchArena:
    """Keyed, aligned, grow-only scratch buffers with reuse counters."""

    def __init__(self):
        self._buffers: dict = {}
        self.allocations = 0
        self.reuses = 0

    def get(self, key, n: int, dtype) -> np.ndarray:
        """A length-``n`` aligned buffer for ``key``, reused when possible."""
        dtype = np.dtype(dtype)
        slot = (key, dtype)
        buf = self._buffers.get(slot)
        if buf is None or buf.size < n:
            capacity = max(int(n * GROWTH_SLACK), n, 1)
            buf = layout.aligned_empty(capacity, dtype)
            self._buffers[slot] = buf
            self.allocations += 1
        else:
            self.reuses += 1
        return buf[:n]

    def get2d(self, key, n: int, cols: int, dtype) -> np.ndarray:
        """An ``(n, cols)`` aligned buffer, row-count grow-only.

        Used by the batch executor's columnar/bit-packed kernels: the
        column count is fixed for a run (one per query or one uint64
        word per 64 queries), so only the row dimension is ragged.
        """
        dtype = np.dtype(dtype)
        slot = (key, dtype, int(cols))
        buf = self._buffers.get(slot)
        if buf is None or buf.shape[0] < n:
            capacity = max(int(n * GROWTH_SLACK), n, 1)
            buf = layout.aligned_empty(capacity * cols, dtype).reshape(
                capacity, cols
            )
            self._buffers[slot] = buf
            self.allocations += 1
        else:
            self.reuses += 1
        return buf[:n]

    @property
    def held_bytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()

    def stats(self) -> dict:
        return {
            "allocations": self.allocations,
            "reuses": self.reuses,
            "held_bytes": self.held_bytes,
        }
