"""NumPy kernel backend: the existing primitives behind the interface.

This backend computes exactly what the generic compute path computes --
the same elementwise ops in the same order, so results are
bit-identical by construction -- with fewer, fused passes:

* what a ufunc can write through ``out=`` (edge positions, segment
  row pointers, reductions, apply outputs and masks) lives in a
  :class:`ScratchArena` buffer keyed by ``(role, shard)``; index gathers
  are plain ``np.take`` calls, because ``take(..., out=)`` under the
  bounds-checking ``mode="raise"`` gathers into a temporary and copies;
* an ``add`` gather is one sequential CSR matvec
  (:func:`~repro.graph.csr.csr_sum`) over the shard's own CSC arrays;
  other maps run in place on the gathered values;
* the sparse-bypass path reads shard CSC/CSR sub-arrays directly
  (indptr + neighbor ids) instead of materializing a cached plan.

Bit-identity notes: every ``add`` route sums a segment left to right in
CSC order from ``+0.0`` (an all ``-0.0`` segment gives ``+0.0``), so a
segment's bits depend only on its own elements: dense, rows, merged,
batch-column and generic gathers agree. Two matvec forms give the same
bits: (i) matrix ``(ones or weights, nbr, rowptr)`` times the vertex
values, for ``copy`` (every pre-mapped gather) and ``mul_weight`` --
valid while the compiler keeps ``sum + w * x`` unfused (no FMA; the
``mul_weight`` equivalence tests would catch it, and form (ii) is then
the fix); (ii) matrix ``(ones, arange, rowptr)`` times the mapped
per-edge values, for every other kind. Each ``csr_matvecs`` column
equals a ``csr_matvec``. ``reduceat`` would sum pairwise (1 000 uniform
values: 516.9063 against 516.90643 sequentially), so it serves only
``min`` and ``or``, which are exact in any order. A ``source_only`` map
applied per vertex (:meth:`NumpyKernels.premap`) and then gathered is
the same IEEE op on the same operands as gathering and then mapping per
edge. Scale-by-1 and add-0 steps are skipped entirely (SpMV's generic
apply never performs them, and a skipped ``+0.0`` also avoids the
``-0.0 -> +0.0`` rewrite the real addition would make).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.arena import ScratchArena
from repro.core.kernels.specs import ApplySpec, GatherSpec
from repro.graph.csr import csr_sum, index_dtype, shared_array

_F32_ONE = np.float32(1.0)


_REDUCE_UFUNCS = {"min": np.minimum, "or": np.bitwise_or}


class NumpyKernels:
    """Fused-shape kernels executed with NumPy whole-array primitives."""

    name = "numpy"
    #: the gather kernels also accept ``(n, C)`` state matrices (one
    #: column per batched query) and ``(n, W)`` uint64 bitmask words
    #: with the "or" reduction -- the batch executor's two layouts
    supports_matrix = True

    def __init__(self):
        self.arena = ScratchArena()

    # -- gather --------------------------------------------------------

    def premap(self, spec: GatherSpec, values, deg, out) -> None:
        """A ``source_only`` map over the whole vertex state, into ``out``;
        a ``copy`` gather from ``out`` then equals the per-edge map."""
        if spec.kind == "div_degree":
            np.divide(values, deg if values.ndim == 1 else deg[:, None], out=out)
        else:  # add_one
            np.add(values, _F32_ONE, out=out)

    def _edge_values(self, spec: GatherSpec, values, deg, indices, weights):
        """Per-edge contributions, mapped in place (the fused map).

        2-D ``values`` broadcast the per-edge degree/weight factor over
        the query columns -- same elementwise ops per column as the
        scalar path, so per-query results stay bit-identical.
        """
        vals = np.take(values, indices, axis=0)
        if spec.kind == "copy":
            return vals
        if spec.kind == "div_degree":
            factor = np.take(deg, indices)
            op = np.divide
        elif spec.kind == "mul_weight":
            factor = weights
            op = np.multiply
        elif spec.kind == "add_weight":
            factor = weights
            op = np.add
        else:  # add_one
            np.add(vals, _F32_ONE, out=vals)
            return vals
        if values.ndim == 2:
            factor = factor[:, None]
        op(vals, factor, out=vals)
        return vals

    def gather_segments(
        self, key, spec: GatherSpec, values, deg, indices, weights, rowptr, verts,
        gather_temp, gather_has,
    ) -> None:
        """Fused gather: ``indices[rowptr[i]:rowptr[i+1]]`` map and reduce
        into ``verts[i]`` (forms (i) / (ii) of the module notes for ``add``)."""
        n = len(rowptr) - 1
        if values.ndim == 2:
            red = self.arena.get2d((key, "gr"), n, values.shape[1], gather_temp.dtype)
        else:
            red = self.arena.get((key, "gr"), n, gather_temp.dtype)
        if spec.reduce != "add":
            vals = self._edge_values(spec, values, deg, indices, weights)
            _REDUCE_UFUNCS[spec.reduce].reduceat(vals, rowptr[:-1], axis=0, out=red)
        elif spec.kind in ("copy", "mul_weight"):
            csr_sum(rowptr, values, indices, weights if spec.needs_weights else None, red)
        else:
            csr_sum(rowptr, self._edge_values(spec, values, deg, indices, weights), out=red)
        gather_temp[verts] = red
        gather_has[verts] = True

    def _expand_rows(self, key, indptr, loc):
        """``(pos, rowptr, nz, counts)`` of a sparse row subset: its edge
        positions, their segments' row pointer, which rows have an edge
        (None: all) and every row's edge count; ``pos`` None = no edge."""
        firsts = np.take(indptr, loc)
        counts = np.take(indptr, loc + 1)
        counts -= firsts
        total = int(counts.sum())
        if total == 0:
            return None, None, None, counts
        nz, counts_nz = None, counts
        if counts.min() == 0:
            nz = counts > 0
            firsts, counts_nz = firsts[nz], counts[nz]
        rowptr = self.arena.get((key, "rs"), len(counts_nz) + 1, index_dtype(total))
        rowptr[0] = 0
        np.cumsum(counts_nz, out=rowptr[1:])
        firsts = firsts.astype(np.int64, copy=False)
        np.subtract(firsts, rowptr[:-1], out=firsts)
        pos = self.arena.get((key, "rp"), total, np.int64)
        np.add(shared_array("arange", total, np.int64), np.repeat(firsts, counts_nz), out=pos)
        return pos, rowptr, nz, counts

    def gather_rows(
        self, key, spec: GatherSpec, values, deg, indptr, nbr, weights, rows, base,
        gather_temp, gather_has,
    ):
        """Fused sparse-bypass gather straight off shard CSC arrays;
        returns (segments reduced, in-edges per row)."""
        pos, rowptr, nz, counts = self._expand_rows(key, indptr, rows - base)
        if pos is None:
            return 0, counts
        w = np.take(weights, pos) if spec.needs_weights else None
        self.gather_segments(
            key, spec, values, deg, np.take(nbr, pos), w, rowptr,
            rows if nz is None else rows[nz], gather_temp, gather_has,
        )
        return len(rowptr) - 1, counts

    def relay_gather(
        self, spec: GatherSpec, values, weights, rows, counts, pos, targets, active,
        gather_temp, gather_has,
    ) -> None:
        """A ``min`` gather over ``active`` from the push side: the
        out-edges ``pos`` -> ``targets`` of ``rows`` (``counts`` each), as
        the previous FrontierActivate expanded them. Equals the in-edge
        gather under ``min_improve`` while every other edge is relaxed."""
        cand = np.repeat(np.take(values, rows), counts)
        if spec.kind == "add_weight":
            np.add(cand, np.take(weights, pos), out=cand)
        elif spec.kind == "add_one":
            np.add(cand, _F32_ONE, out=cand)
        gather_temp[active] = np.inf
        np.minimum.at(gather_temp, targets, cand)
        gather_has[active] = True

    # -- apply ---------------------------------------------------------

    def apply_block(
        self, key, spec: ApplySpec, values, gather_temp, gather_has, rows, lo, hi,
        iteration, src_pos,
    ):
        """Fused apply; returns (new values, changed mask) arena views."""
        if rows is None:
            n = hi - lo
            old = values[lo:hi]
            g = gather_temp[lo:hi]
            has = gather_has[lo:hi]
        else:
            n = len(rows)
            old = np.take(values, rows)
            g = np.take(gather_temp, rows)
            has = np.take(gather_has, rows)
        out = self.arena.get((key, "av"), n, values.dtype)
        changed = self.arena.get((key, "ac"), n, bool)
        if spec.kind == "affine":
            np.copyto(out, np.float32(spec.fill))
            np.copyto(out, g, where=has)
            if spec.scale != 1.0:
                np.multiply(out, np.float32(spec.scale), out=out)
            if spec.base != 0.0:
                np.add(out, np.float32(spec.base), out=out)
            if spec.changed_mode == "all":
                changed.fill(True)
            elif spec.changed_mode == "none":
                changed.fill(False)
            else:
                diff = self.arena.get((key, "ad"), n, values.dtype)
                np.subtract(out, old, out=diff)
                np.abs(diff, out=diff)
                np.greater(diff, np.float32(spec.tol), out=changed)
        elif spec.kind == "min_improve":
            np.copyto(out, np.float32(np.inf))
            np.copyto(out, g, where=has)
            np.less(out, old, out=changed)
            keep = self.arena.get((key, "ak"), n, bool)
            np.logical_not(changed, out=keep)
            np.copyto(out, old, where=keep)
            if src_pos >= 0:
                changed[src_pos] = True
        else:  # mark_level
            np.isinf(old, out=changed)
            np.copyto(out, old)
            np.copyto(out, np.float32(iteration), where=changed)
        return out, changed

    # -- frontier activation -------------------------------------------

    def activate_targets(self, key, indptr, nbr, rows, base):
        """Concatenated out-neighbors of ``rows`` in CSR row order as ``intp``
        (what the ``next`` scatter and the relay index with), and the
        expansion they came from: ``(targets, pos, nz, counts)`` as
        :meth:`_expand_rows` returns them. ``pos`` is an arena view that
        the next :meth:`gather_rows` over the same ``key`` overwrites."""
        pos, _, nz, counts = self._expand_rows(key, indptr, rows - base)
        targets = (nbr[:0] if pos is None else np.take(nbr, pos)).astype(np.intp)
        return targets, pos, nz, counts
