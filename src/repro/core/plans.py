"""Host-side index plans: a frontier over a shard is dense or rows.

The Compute Engine's phases all start from the same question: *which
edges are incident to this shard's active (or changed) vertices, and in
what segment layout?* The from-scratch answer -- ``flatnonzero`` over
the mask, :func:`ragged_gather`, then O(E) fancy gathers of
``indices``/``edge_ids``/weights -- is what ``dense=False`` serves on
every query (the reference the equivalence tests compare against). With
the fast path on, each (shard, mask) query takes one dense test and then
exactly one of two routes:

* **Dense** -- the mask covers the shard's whole interval (the steady
  state of PageRank/SpMV, every ``always_active`` program, and pull
  iterations). The plan is a function of topology alone: ``starts``/
  ``verts`` come from :func:`~repro.graph.csr.dense_segments` and the
  per-edge arrays are the shard's flat CSR/CSC arrays *by reference*, no
  fancy gather at all. Dense plans are built once per shard and kept on
  the :class:`~repro.core.partition.ShardedGraph` (``sharded.plans``),
  so later queries *and later runs* over that graph reuse them by
  identity (``plans.hits`` / ``plans.misses`` count reuses / builds);
  the one O(E) array they would own, the per-edge ``row_ids``
  (:func:`~repro.graph.csr.dense_rows`), is derived on every read and
  never kept (only the generic gather_map / scatter read it), so
  building and retaining a dense plan costs O(V). A dense out
  plan also carries the presence mask of the shard's out-neighbours
  over their first..last vid, which FrontierActivate ORs into the next
  frontier in one pass instead of writing once per out-edge; over the
  whole graph that mask is in-degree > 0, O(V) without the scatter.
* **Rows** -- anything else. The sorted vids of the set mask bits are
  read off the frontier on the spot and either handed to the fused
  kernels as they are (:meth:`PlanCache.sparse_rows`) or expanded into a
  plan that is used once and dropped. Nothing is stored per frontier: a
  traversal wave never repeats, and memoizing one would need a freshness
  protocol in every module that writes a mask. Counted as
  ``plans.sparse_bypass`` (neither hit nor miss).

Every query reads the frontier, so a mask changed through any
:class:`~repro.core.frontier.FrontierManager` mutator is seen by the
next query; there is no stale state to invalidate.

Both routes are semantics-preserving and invisible to the simulated cost
model: plans reproduce bit-identical index sets, in the same order, with
the same dtypes as the from-scratch build, and the WorkItems censuses
that drive kernel cost count exactly the same edges/vertices. Mutable
per-edge and per-vertex values are never cached -- plans hold *indices*,
and the Compute Engine re-gathers values through them on every use.
Callers must treat plan arrays as read-only: dense plans alias the
shard's CSR/CSC storage.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.frontier import FrontierManager
from repro.core.partition import Shard, ShardedGraph
from repro.graph.csr import dense_rows, dense_segments, index_dtype, ragged_gather
from repro.obs.span import NULL_OBSERVER


def _row_ids(seg: np.ndarray, start: int, dtype) -> np.ndarray:
    """Global row vertex per selected edge, from interval-local rows."""
    return (seg + start).astype(dtype)


class _LazyRowIds:
    """``row_ids`` of a plan: stored for rows plans, derived from the
    shard's ``indptr`` on every read for dense ones, which outlive the
    run and so keep no O(E) array of their own."""

    @property
    def row_ids(self) -> np.ndarray | None:
        if self._row_source is not None:
            indptr, start = self._row_source
            return _row_ids(dense_rows(indptr), start, self.indices.dtype)
        return self._row_ids


@dataclass
class GatherPlan(_LazyRowIds):
    """Index plan for one shard's gather phases (CSC, active rows)."""

    #: global active vertex ids the plan was built from (None = dense)
    rows: np.ndarray | None
    #: source vertex per selected in-edge (vid dtype)
    indices: np.ndarray
    #: edge-list id per selected in-edge
    eids: np.ndarray
    #: weight per selected in-edge (None when the graph is unweighted)
    weights: np.ndarray | None
    #: destination vertex per selected in-edge (vid dtype, global),
    #: read through the ``row_ids`` property
    _row_ids: np.ndarray | None
    #: segment row pointer into the per-edge arrays: one segment per
    #: destination with at least one selected in-edge, then the end
    #: (:func:`~repro.graph.csr.index_dtype`); ``starts`` is its view
    rowptr: np.ndarray
    #: destination vertex per segment (int64, global)
    verts: np.ndarray
    n_edges: int
    dense: bool
    #: ``(indptr, interval start)`` a dense plan derives ``row_ids`` from
    _row_source: tuple | None = None
    #: dense plans only: ``has[i]`` iff interval vertex ``i`` has an in-edge,
    #: the static has-set a dense gather ORs into ``gather_has``
    has: np.ndarray | None = None

    @property
    def starts(self) -> np.ndarray:
        return self.rowptr[:-1]


@dataclass
class OutPlan(_LazyRowIds):
    """Index plan over a shard's out-edges (CSR, changed rows)."""

    rows: np.ndarray | None
    #: out-neighbor per selected out-edge (vid dtype)
    indices: np.ndarray
    #: edge-list id per selected out-edge (None on a lite plan)
    eids: np.ndarray | None
    weights: np.ndarray | None
    #: source vertex per selected out-edge (vid dtype, global; None on
    #: a lite plan), read through the ``row_ids`` property
    _row_ids: np.ndarray | None
    n_edges: int
    dense: bool
    #: frontier_activate only needs ``indices``; scatter needs the per-
    #: edge identity/weight columns too. A full plan serves both.
    full: bool
    #: dense plans only: ``present[i]`` iff vertex ``lo + i`` is an out-
    #: neighbour, first to last. frontier_activate ORs this span into the
    #: (idempotent) ``next`` instead of writing once per out-edge.
    present: np.ndarray | None = None
    lo: int = 0
    #: ``(indptr, interval start)`` a dense full plan derives ``row_ids`` from
    _row_source: tuple | None = None


def _build_gather_plan(shard: Shard, rows) -> GatherPlan:
    """In-edge plan over ``rows`` (global vids); None = the whole interval."""
    csc = shard.csc
    dense = rows is None
    if dense:
        rowptr, verts_local = dense_segments(csc.indptr)
        indices = csc.indices
        eids = csc.edge_ids
        weights = shard.csc_weights
        row_ids = None
    else:
        pos, seg = ragged_gather(csc.indptr, rows - shard.start)
        indices = csc.indices[pos]
        eids = csc.edge_ids[pos]
        weights = None if shard.csc_weights is None else shard.csc_weights[pos]
        row_ids = _row_ids(seg, shard.start, csc.indices.dtype)
        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]]) if len(seg) else seg
        verts_local = seg[starts]
        rowptr = np.append(starts, len(seg)).astype(index_dtype(len(seg)))
    return GatherPlan(
        rows=rows,
        indices=indices,
        eids=eids,
        weights=weights,
        _row_ids=row_ids,
        rowptr=rowptr,
        verts=verts_local + shard.start,
        n_edges=len(indices),
        dense=dense,
        _row_source=(csc.indptr, shard.start) if dense else None,
        has=csc.indptr[1:] > csc.indptr[:-1] if dense else None,
    )


def _build_out_plan(
    shard: Shard, rows, full: bool, sharded: ShardedGraph | None = None
) -> OutPlan:
    """Out-edge plan over ``rows`` (global vids); None = the whole interval."""
    dense = rows is None
    n = 0 if sharded is None else sharded.num_vertices
    if dense and not full and shard.num_interval_vertices == n:
        # every edge: its targets are the vertices with an in-edge, read off
        # the degrees (no edge array, so a store's span has this plan too)
        has_in = sharded.has_in_edge
        return OutPlan(None, None, None, None, None, shard.num_out_edges, True, False, has_in)
    csr = shard.csr
    present, lo, row_ids = None, 0, None
    if dense:
        indices = csr.indices
        eids = csr.edge_ids
        weights = shard.csr_weights
        # np.unique(indices) as a presence mask trimmed to its span
        present = np.zeros(n, dtype=bool)
        present[indices] = True
        lo, hi = (int(indices.min()), int(indices.max()) + 1) if len(indices) else (0, 0)
        present = present[lo:hi].copy()
    else:
        pos, seg = ragged_gather(csr.indptr, rows - shard.start)
        indices = csr.indices[pos]
        eids = csr.edge_ids[pos] if full else None
        weights = None
        if full and shard.csr_weights is not None:
            weights = shard.csr_weights[pos]
        if full:
            row_ids = _row_ids(seg, shard.start, csr.indices.dtype)
    return OutPlan(
        rows=rows,
        indices=indices,
        eids=eids if full else None,
        weights=weights if full else None,
        _row_ids=row_ids,
        n_edges=len(indices),
        dense=dense,
        full=full,
        present=present,
        lo=lo,
        _row_source=(csr.indptr, shard.start) if full and dense else None,
    )


def _plan_nbytes(plan) -> int:
    """Bytes a stored dense plan *references* (owned or aliased).

    Dense plans alias the shard's CSR/CSC arrays, so this is what they
    keep reachable rather than what they allocate; the ``row_ids`` a
    read derives are the reader's, not the plan's.
    """
    total = 0
    for name in ("indices", "eids", "weights", "rowptr", "verts", "present", "has"):
        arr = getattr(plan, name, None)
        if arr is not None:
            total += arr.nbytes
    return total


class PlanCache:
    """Dense-or-rows plan queries over one run's frontier, per shard.

    Dense plans live on the graph (``sharded.plans``); this object holds
    only what belongs to one run: the frontier the dense test reads and
    the hit / miss / bypass counters. ``dense=False`` turns the fast
    path off: every query is a fresh from-scratch build, nothing is
    stored and nothing is counted, so a disabled cache is an exact
    stand-in for the pre-plan Compute Engine (``ComputeEngine`` builds
    one when it is given no cache).

    The counters are guarded by a lock, so :meth:`stats` may be read
    from any thread while a run queries plans.
    """

    def __init__(
        self,
        sharded: ShardedGraph,
        frontier: FrontierManager,
        obs=None,
        dense: bool = True,
    ):
        self.sharded = sharded
        self.frontier = frontier
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.enabled = dense
        self.hits = 0
        self.misses = 0
        self.sparse_bypass = 0
        self._lock = threading.Lock()

    def stats(self) -> dict:
        """This run's counters, and the bytes the graph's dense plans
        reference (:func:`_plan_nbytes`; the vid aranges are exempt)."""
        with self._lock:
            hits, misses, bypass = self.hits, self.misses, self.sparse_bypass
        total = hits + misses
        stored = tuple(self.sharded.plans.items())  # one C-level copy: safe off-thread
        held = sum(_plan_nbytes(plan) for (kind, _), plan in stored if kind != "vids")
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "sparse_bypass": bypass,
            "held_bytes": held,
        }

    def count(self, hits: int = 0, misses: int = 0, bypass: int = 0) -> None:
        """Count queries: dense ones that reused stored state or built it,
        and row-built ones (a merged pass counts one per selected shard)."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.sparse_bypass += bypass
        for name, n in zip(("hits", "misses", "sparse_bypass"), (hits, misses, bypass)):
            if n:
                self.obs.add("plans." + name, n)

    def _stored(self, kind: str, shard, build, stale=None):
        """The graph's ``(kind, shard)`` entry, built (a miss) when it is
        absent or ``stale`` rejects it, else reused (a hit)."""
        key = (kind, shard.index)
        got = self.sharded.plans.get(key)
        miss = got is None or (stale is not None and stale(got))
        if miss:
            got = self.sharded.plans[key] = build()
        self.count(hits=int(not miss), misses=int(miss))
        return got

    def dense_gather_plan(self, shard: Shard) -> GatherPlan:
        """The whole-interval in-edge plan: static per shard topology."""
        return self._stored("gather", shard, lambda: _build_gather_plan(shard, None))

    def dense_out_plan(self, shard: Shard, full: bool = False) -> OutPlan:
        """The whole-interval out-edge plan; a stored full plan also
        serves lite queries."""
        return self._stored(
            "out",
            shard,
            lambda: _build_out_plan(shard, None, full, self.sharded),
            stale=lambda plan: full and not plan.full,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _rows(self, shard: Shard, mask: str):
        """The shard's set ``mask`` vids (sorted, global), or None when
        they are its whole interval -- the one dense test of a query.

        With the fast path off nothing is tested or counted: the rows
        come back even for a full interval.
        """
        fr = self.frontier
        if mask == "active":
            dense_q, rows_q = fr.dense_active_in, fr.active_in
        else:
            dense_q, rows_q = fr.dense_changed_in, fr.changed_in
        if self.enabled:
            if shard.num_interval_vertices and dense_q(shard.start, shard.stop):
                return None
            self.count(bypass=1)
        return rows_q(shard.start, shard.stop)

    def sparse_rows(self, shard: Shard, mask: str):
        """Rows query for the fused kernel paths (fast path on only).

        Returns the global row ids of a non-dense (mask, shard) frontier
        for the caller to consume directly (no plan built), or None for
        a dense one -- whose plan :meth:`dense_gather_plan` /
        :meth:`dense_out_plan` then serve without a second mask read.
        Counts exactly as :meth:`gather_plan` / :meth:`out_plan` would.
        """
        return self._rows(shard, mask)

    def gather_plan(self, shard: Shard) -> GatherPlan:
        """The in-edge plan for the shard's currently active rows."""
        rows = self._rows(shard, "active")
        if rows is None:
            return self.dense_gather_plan(shard)
        return _build_gather_plan(shard, rows)

    def out_plan(self, shard: Shard, full: bool = False) -> OutPlan:
        """The out-edge plan for the shard's currently changed rows.

        ``full`` (scatter) adds the per-edge identity/weight columns;
        lite (frontier_activate) plans carry ``indices`` only.
        """
        rows = self._rows(shard, "changed")
        if rows is None:
            return self.dense_out_plan(shard, full=full)
        return _build_out_plan(shard, rows, full=full)

    def active_rows(self, shard: Shard):
        """(rows, dense) for the apply phase.

        ``rows`` are the active global vids (the dense case returns a
        stored per-shard ``arange``); ``dense`` tells the caller it may
        use contiguous slices of the vertex-indexed buffers instead of
        fancy gathers. Callers must not mutate ``rows``.
        """
        rows = self._rows(shard, "active")
        if rows is not None:
            return rows, False
        build = lambda: np.arange(shard.start, shard.stop, dtype=np.int64)
        return self._stored("vids", shard, build), True
