"""Compressed sparse row/column adjacency.

Section 4.2: the Graph Layout Engine sorts in-edges by destination and
out-edges by source, stored as CSC and CSR respectively, "so there is no
overhead for runtime data-format transposition". :func:`build_csr` /
:func:`build_csc` are those two layouts; both are plain :class:`CSR`
objects over different axes (a CSC of G is the CSR of G-transpose).

:func:`ragged_gather` is the workhorse of frontier-restricted execution:
given a vertex subset it enumerates exactly the incident edges, giving
the active-edge index sets that the Compute Engine's edge-centric phases
iterate over.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from repro.graph.edgelist import EdgeList, VID_DTYPE


@dataclass
class CSR:
    """Row-compressed adjacency over ``num_rows`` vertices.

    ``indptr`` has length ``num_rows + 1``; row ``v``'s neighbors are
    ``indices[indptr[v]:indptr[v+1]]``. ``edge_ids`` maps each position
    back to the originating edge-list index so per-edge state (weights,
    mutable edge values) can be carried in either layout without copies
    of the logical edge identity.
    """

    indptr: np.ndarray  # int64, shape (num_rows + 1,)
    indices: np.ndarray  # int32, the neighbor vertex per slot
    edge_ids: np.ndarray  # int64, original edge-list position per slot

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=VID_DTYPE)
        self.edge_ids = np.ascontiguousarray(self.edge_ids, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices) or len(self.indices) != len(self.edge_ids):
            raise ValueError("indptr/indices/edge_ids sizes disagree")

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def row_slice(self, start: int, stop: int) -> "CSR":
        """The sub-CSR covering rows [start, stop) with rebased indptr."""
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        return CSR(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.edge_ids[lo:hi],
        )


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(keys, kind="stable")`` returns (int64),
    without the indirect merge sort.

    Integer keys in ``[0, 2**31)`` are packed with their position into
    ``key << 32 | position`` and sorted directly, in place. Composite
    keys are unique, so any sort orders equal keys by position -- the
    stable order, element for element -- and every layout built from it
    is bit-identical to the argsort's. Longer inputs or wider keys
    (reachable through :class:`EdgeList`'s int64 vid mode) fall back to
    the stable argsort. The gain (~9x on 2 M int32 keys) comes from
    NumPy's SIMD ``sort``; without that dispatch it is parity, not a loss.
    """
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n >= 1 << 32 or keys.min() < 0 or keys.max() >= 1 << 31:
        return np.argsort(keys, kind="stable")
    packed = keys.astype(np.int64)
    packed <<= 32
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= 0xFFFFFFFF
    return packed


def _compress(keys: np.ndarray, values: np.ndarray, num_rows: int) -> CSR:
    """Sort (key, value) pairs by key and compress keys into indptr."""
    order = stable_order(keys)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num_rows), out=indptr[1:])
    return CSR(indptr, values[order], order)


def build_csr(edges: EdgeList) -> CSR:
    """Out-edges sorted by source: row v lists v's out-neighbors."""
    return _compress(edges.src, edges.dst, edges.num_vertices)


def build_csc(edges: EdgeList) -> CSR:
    """In-edges sorted by destination: row v lists v's in-neighbors."""
    return _compress(edges.dst, edges.src, edges.num_vertices)


def ragged_gather(indptr: np.ndarray, rows: np.ndarray):
    """Edge positions incident to a set of rows, with their row of origin.

    Returns ``(edge_pos, seg_rows)`` where ``edge_pos`` indexes into the
    CSR's flat arrays (concatenated slices ``indptr[r]:indptr[r+1]`` for
    each ``r`` in ``rows``, in order) and ``seg_rows`` repeats each row id
    by its degree. Fully vectorized -- no Python-level loop over rows.

    >>> import numpy as np
    >>> indptr = np.array([0, 2, 2, 5])
    >>> pos, seg = ragged_gather(indptr, np.array([0, 2]))
    >>> pos.tolist(), seg.tolist()
    ([0, 1, 2, 3, 4], [0, 0, 2, 2, 2])
    """
    rows = np.asarray(rows)
    starts = indptr[rows].astype(np.int64)
    lengths = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=rows.dtype)
    # Position of each output slot within its row's run, via the
    # repeat/cumsum trick: run_base is where each run starts in the
    # output, so (arange - run_base) counts 0..len-1 inside each run.
    run_base = np.repeat(np.cumsum(lengths) - lengths, lengths)
    within = np.arange(total, dtype=np.int64) - run_base
    edge_pos = np.repeat(starts, lengths) + within
    seg_rows = np.repeat(rows, lengths)
    return edge_pos, seg_rows


def dense_segments(indptr: np.ndarray):
    """Segment layout of :func:`ragged_gather` when *every* row is selected.

    With ``rows == arange(num_rows)`` the edge positions are just
    ``arange(num_edges)`` (the flat arrays in order), so only the
    segment boundaries carry information. Returns ``(rowptr,
    rows_with_edges)``: the row pointer (:func:`index_dtype`) of the
    non-empty rows' runs and their local row ids (int64) -- the segment
    layout the Compute Engine reduces over, in O(rows) without touching
    the per-edge arrays (see :func:`dense_rows` for those).

    >>> import numpy as np
    >>> rowptr, rows = dense_segments(np.array([0, 2, 2, 5]))
    >>> rowptr.tolist(), rows.tolist()
    ([0, 2, 5], [0, 2])
    """
    nonempty = np.flatnonzero(indptr[1:] > indptr[:-1])
    bounds = indptr[np.append(nonempty, len(indptr) - 1)]
    return bounds.astype(index_dtype(indptr[-1])), nonempty


def dense_rows(indptr: np.ndarray) -> np.ndarray:
    """Per-edge row ids when every row is selected: each local row id
    (int64) repeated by its degree, the O(E) half of the dense layout.

    >>> import numpy as np
    >>> dense_rows(np.array([0, 2, 2, 5])).tolist()
    [0, 0, 2, 2, 2]
    """
    degrees = np.diff(indptr)
    return np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)


def index_dtype(n: int):
    """int32 for offsets up to ``n`` while they fit (so a row pointer
    pairs with the stored int32 vids without a copy), else int64."""
    return np.int32 if n < 2**31 else np.int64


_SHARED: dict = {}  # (kind, dtype) -> the array behind shared_array
#: entries per matvec call of :func:`csr_sum`: bounds the shared ones / arange
SUM_BLOCK = 1 << 17


def shared_array(kind: str, n: int, dtype) -> np.ndarray:
    """A read-only length-``n`` view of the one process-wide ``"ones"`` or
    ``"arange"`` array of ``dtype`` (grown with 25% slack). The ones start
    on a 64-byte boundary, so they also stand in for a shard's weights."""
    dtype = np.dtype(dtype)
    buf = _SHARED.get((kind, dtype))
    if buf is None or len(buf) < n:
        size = n + n // 4 + 1
        if kind == "ones":
            raw = np.empty(size + 64 // dtype.itemsize, dtype)
            buf = raw[(-raw.ctypes.data % 64) // dtype.itemsize :][:size]
            buf.fill(1)
        else:
            buf = np.arange(size, dtype=dtype)
        buf.flags.writeable = False
        _SHARED[(kind, dtype)] = buf
    return buf[:n]


def sparsetools():
    """``scipy.sparse._sparsetools``, loaded from its own extension file:
    importing it through ``scipy.sparse`` runs that package too (~20 MB of
    RSS against 0.2 MB). A later ``scipy.sparse`` import shares it."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        paths = [os.path.join(root, "sparse", "_sparsetools" + s) for s in EXTENSION_SUFFIXES]
        path = next(filter(os.path.exists, paths), None)
        if path is None:  # not laid out as files: the package imports it
            return importlib.import_module(name)
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def csr_sum(rowptr, x, cols=None, data=None, out=None) -> np.ndarray:
    """``out[i] = sum(data[j] * x[cols[j]] for j in rowptr[i]:rowptr[i+1])``
    as SciPy's CSR matvec loop (:func:`sparsetools`): a left fold per row
    (per column of a 2-D ``x``) from ``+0.0`` in ``x``'s dtype. ``cols``
    None reads ``x`` in place order, ``data`` None is all ones. Zero copy
    when ``rowptr`` / ``cols`` share a dtype and ``data`` / ``x`` / ``out``
    share ``x``'s, all contiguous. ``cols`` are not bounds-checked.
    :data:`SUM_BLOCK` entries are folded per call, onto ``out``: a row cut
    by a block edge folds on from its partial sum, as in one call.
    """
    kernels = sparsetools()
    idx = rowptr.dtype if cols is None else np.promote_types(rowptr.dtype, cols.dtype)
    rowptr = rowptr.astype(idx, copy=False)
    cols = None if cols is None else cols.astype(idx, copy=False)
    x = np.ascontiguousarray(x)
    out = np.empty((len(rowptr) - 1,) + x.shape[1:], x.dtype) if out is None else out
    out.fill(0)
    nnz = int(rowptr[-1])
    for lo in range(0, nnz, SUM_BLOCK):
        hi = min(lo + SUM_BLOCK, nnz)
        ptr, c, d, xb, y = rowptr, cols, data, x, out
        if hi - lo < nnz:  # one block of several: its rows, their pointers cut to it
            r0 = rowptr.searchsorted(idx.type(lo), "right") - 1  # typed: no cast of rowptr
            r1 = rowptr.searchsorted(idx.type(hi))
            ptr, y = rowptr[r0 : r1 + 1] - lo, out[r0:r1]
            ptr[0], ptr[-1] = 0, hi - lo
            d = None if data is None else data[lo:hi]
            # without cols, x is per entry: this block of it, in order
            c, xb = (None, x[lo:hi]) if cols is None else (cols[lo:hi], x)
        c = shared_array("arange", hi - lo, idx) if c is None else c
        d = shared_array("ones", hi - lo, x.dtype) if d is None else d
        if x.ndim == 1:
            kernels.csr_matvec(len(y), len(xb), ptr, c, d, xb, y)
        else:
            kernels.csr_matvecs(
                len(y), xb.shape[0], xb.shape[1], ptr, c, d, xb.ravel(), y.ravel()
            )
    return out


def segment_reduce(ufunc: np.ufunc, values: np.ndarray, seg_starts: np.ndarray):
    """Reduce ``values`` over contiguous segments beginning at ``seg_starts``:
    ``np.add`` as a left fold (:func:`csr_sum`), any other ufunc by its
    ``reduceat``. Callers must ensure no segment is empty (``reduceat``
    returns the *element* at the start of an empty one) -- the Compute
    Engine reduces only over vertices with at least one gathered edge.
    """
    if len(values) == 0:
        return np.empty(0, dtype=values.dtype)
    if ufunc is not np.add:
        return ufunc.reduceat(values, seg_starts, axis=0)
    return csr_sum(np.append(seg_starts, len(values)).astype(index_dtype(len(values))), values)
