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
  fancy gather at all. Dense plans are built once per shard, kept under
  the LRU byte ``budget`` and reused by identity (``plans.hits`` /
  ``plans.misses`` count reuses / builds); the one O(E) array they would
  own, the per-edge ``row_ids`` (:func:`~repro.graph.csr.dense_rows`),
  is derived on first read (only the generic gather_map / scatter read
  it), so building and retaining a dense plan costs O(V). A dense out
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
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.frontier import FrontierManager
from repro.core.partition import Shard, ShardedGraph
from repro.graph.csr import SUM_BLOCK, dense_rows, dense_segments, index_dtype, ragged_gather
from repro.obs.span import NULL_OBSERVER


def _row_ids(seg: np.ndarray, start: int, dtype) -> np.ndarray:
    """Global row vertex per selected edge, from interval-local rows."""
    return (seg + start).astype(dtype)


class _LazyRowIds:
    """``row_ids`` of a plan: stored for rows plans, derived from the
    shard's ``indptr`` on first read for dense ones."""

    @property
    def row_ids(self) -> np.ndarray | None:
        if self._row_source is not None:
            indptr, start = self._row_source
            self._row_ids = _row_ids(dense_rows(indptr), start, self.indices.dtype)
            self._row_source = None
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
    )


def _build_out_plan(shard: Shard, rows, full: bool, num_vertices: int = 0) -> OutPlan:
    """Out-edge plan over ``rows`` (global vids); None = the whole interval."""
    csr = shard.csr
    dense = rows is None
    present, lo, row_ids = None, 0, None
    if dense:
        indices = csr.indices
        eids = csr.edge_ids
        weights = shard.csr_weights
        if shard.num_interval_vertices == num_vertices:
            # every edge: its targets are the vertices with an in-edge
            present = shard.csc.indptr[1:] > shard.csc.indptr[:-1]
        else:  # np.unique(indices) as a presence mask trimmed to its span
            present = np.zeros(num_vertices, dtype=bool)
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

    Dense plans alias the shard's CSR/CSC arrays by reference, and that
    is exactly the point of counting them: the budget bounds what the
    cache can keep pinned, so aliased bytes must weigh the same as
    owned ones -- and a dense plan's ``row_ids`` weighs its full size
    before anyone has read it, because a read materializes it.
    """
    total = 0
    for name in ("indices", "eids", "weights", "rowptr", "verts", "present"):
        arr = getattr(plan, name, None)
        if arr is not None:
            total += arr.nbytes
    if plan._row_source is not None:
        total += plan.n_edges * plan.indices.dtype.itemsize
    return total


class PlanCache:
    """Dense-or-rows plan queries over one frontier, per shard.

    ``dense=False`` turns the fast path off: every query is a fresh
    from-scratch build and nothing is counted, so a disabled cache is an
    exact stand-in for the pre-plan Compute Engine (multi-GPU and
    unit-test call sites rely on that default).

    The shared counters are guarded by a lock, so :meth:`stats` may be
    read from any thread while a run queries plans.
    """

    def __init__(
        self,
        sharded: ShardedGraph,
        frontier: FrontierManager,
        obs=None,
        dense: bool = True,
        budget: int | None = None,
    ):
        if budget is not None and budget < 0:
            raise ValueError(
                f"plan cache budget must be >= 0 bytes or None, got {budget}"
            )
        self.sharded = sharded
        self.frontier = frontier
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.enabled = dense
        #: LRU byte budget over the stored dense plans (see
        #: :func:`_plan_nbytes` for what counts). None -> unbounded. The
        #: tiny dense-vid aranges stay exempt.
        self.budget = budget
        self._stores: dict[str, dict[int, GatherPlan | OutPlan]] = {
            "gather": {},
            "out": {},
        }
        self._dense_vids: dict[int, np.ndarray] = {}
        #: (kind, shard index) -> plan bytes, in least-recently-used order
        self._lru: OrderedDict[tuple[str, int], int] = OrderedDict()
        self._held_bytes = 0
        self._ones_edges = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.sparse_bypass = 0
        #: dense plans carried into later runs via :meth:`rebind`
        #: (``keep_warm``): cumulative count of plan builds later runs
        #: did not have to repeat.
        self.carried_plans = 0
        self._lock = threading.Lock()

    def stats(self) -> dict:
        with self._lock:
            hits, misses = self.hits, self.misses
            evictions, held = self.evictions, self._held_bytes
            bypass = self.sparse_bypass
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "evictions": evictions,
            "sparse_bypass": bypass,
            "carried_plans": self.carried_plans,
            "budget_bytes": self.budget,
            "held_bytes": held,
        }

    def rebind(self, frontier: FrontierManager, obs=None) -> int:
        """Re-aim a carried cache at a new run's frontier (``keep_warm``).

        Everything stored is a function of shard topology alone, so it
        all survives across runs over the same :class:`ShardedGraph`.
        Returns the number of dense plans carried over (also accumulated
        in ``carried_plans``).
        """
        self.frontier = frontier
        if obs is not None:
            self.obs = obs
        carried = sum(len(store) for store in self._stores.values())
        with self._lock:
            self.carried_plans += carried
        self.obs.add("plans.carried", carried)
        return carried

    # ------------------------------------------------------------------
    # Dense-plan store: LRU byte accounting (no-ops when ``budget`` is
    # None) and the reuse/build counters
    # ------------------------------------------------------------------
    def _account(self, kind: str, index: int, plan) -> None:
        """Charge a freshly stored plan and evict over-budget entries."""
        if self.budget is None:
            return
        evicted: list[tuple[str, int]] = []
        with self._lock:
            key = (kind, index)
            self._held_bytes -= self._lru.pop(key, 0)
            ones = min(plan.n_edges, SUM_BLOCK) if kind == "gather" else 0
            if ones > self._ones_edges:
                # the shared float32 ones every dense sum reads: counted once
                self._held_bytes += 4 * (ones - self._ones_edges)
                self._ones_edges = ones
            size = _plan_nbytes(plan)
            self._lru[key] = size
            self._held_bytes += size
            # Never evict the entry just stored: the caller holds it.
            while self._held_bytes > self.budget and len(self._lru) > 1:
                old_key, old_size = next(iter(self._lru.items()))
                if old_key == key:
                    break
                del self._lru[old_key]
                self._held_bytes -= old_size
                self.evictions += 1
                evicted.append(old_key)
        for old_kind, old_index in evicted:
            self._stores[old_kind].pop(old_index, None)
            self.obs.add("plans.evictions")

    def _touch(self, kind: str, index: int) -> None:
        if self.budget is None:
            return
        with self._lock:
            key = (kind, index)
            if key in self._lru:
                self._lru.move_to_end(key)

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

    def dense_gather_plan(self, shard: Shard) -> GatherPlan:
        """The whole-interval in-edge plan: static per shard topology."""
        plan = self._stores["gather"].get(shard.index)
        if plan is None:
            plan = _build_gather_plan(shard, None)
            self._stores["gather"][shard.index] = plan
            self._account("gather", shard.index, plan)
            self.count(misses=1)
        else:
            self._touch("gather", shard.index)
            self.count(hits=1)
        return plan

    def dense_out_plan(self, shard: Shard, full: bool = False) -> OutPlan:
        """The whole-interval out-edge plan; a stored full plan also
        serves lite queries."""
        plan = self._stores["out"].get(shard.index)
        if plan is None or (full and not plan.full):
            plan = _build_out_plan(
                shard, None, full=full, num_vertices=self.sharded.num_vertices
            )
            self._stores["out"][shard.index] = plan
            self._account("out", shard.index, plan)
            self.count(misses=1)
        else:
            self._touch("out", shard.index)
            self.count(hits=1)
        return plan

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
        vids = self._dense_vids.get(shard.index)
        self.count(hits=int(vids is not None), misses=int(vids is None))
        if vids is None:
            vids = np.arange(shard.start, shard.stop, dtype=np.int64)
            self._dense_vids[shard.index] = vids
        return vids, True
