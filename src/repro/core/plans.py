"""Host-side gather/scatter plan cache and dense-frontier fast path.

The Compute Engine's phases all start from the same expensive question:
*which edges are incident to this shard's active (or changed) vertices,
and in what segment layout?* The slow path answers it from scratch on
every call -- ``flatnonzero`` over the mask, :func:`ragged_gather`, then
O(E) fancy gathers of ``indices``/``edge_ids``/weights. This module
memoizes those answers per shard as index *plans*, with two host-only
optimizations (Gunrock-style frontier-density specialization, applied to
our NumPy kernels):

* **Dense fast path** -- when a mask covers a shard's whole interval
  (the steady state of PageRank/SpMV and every ``always_active``
  program), the plan is a function of topology alone: ``starts``/
  ``verts`` come from :func:`~repro.graph.csr.dense_segments` and the
  per-edge arrays are the shard's flat CSR/CSC arrays *by reference*, no
  fancy gather at all. Dense plans are built once per shard and reused
  for the rest of the run; the one O(E) array they would own, the
  per-edge ``row_ids`` (:func:`~repro.graph.csr.dense_rows`), is derived
  on first read (only the generic gather_map / scatter read it), so
  building and retaining a dense plan costs O(V). A dense out plan also
  carries ``targets``, the shard's deduplicated out-neighbor vids, so
  FrontierActivate writes each next-frontier position once instead of
  once per out-edge.
* **Plan cache** -- sparse plans are keyed on a cheap frontier
  fingerprint: :class:`~repro.core.frontier.FrontierManager` bumps a
  per-(mask, interval) epoch on every mutation, so an epoch match proves
  the cached plan fresh without touching the mask; on an epoch miss the
  plan revalidates by comparing the recomputed row set (``array_equal``)
  before falling back to a rebuild.
* **Sparse bypass** -- traversal frontiers (BFS/SSSP waves) never
  repeat, so for them the cache is all misses and pure overhead. When a
  query's frontier covers at most ``1/SPARSE_BYPASS_FACTOR`` of the
  shard's interval, the plan is built directly from the CSR/CSC rows --
  the same arrays the slow path would produce -- skipping epoch
  bookkeeping, ``array_equal`` revalidation and LRU accounting entirely.
  Counted as ``plans.sparse_bypass`` (neither hit nor miss).

Both paths are semantics-preserving and invisible to the simulated cost
model: plans reproduce bit-identical index sets, in the same order, with
the same dtypes as the slow path, and the WorkItems censuses that drive
kernel cost count exactly the same edges/vertices. Mutable per-edge and
per-vertex values are never cached -- plans hold *indices*, and the
Compute Engine re-gathers values through them on every use. Callers must
treat plan arrays as read-only: dense plans alias the shard's CSR/CSC
storage.

Hit/miss/invalidation totals are mirrored into the observability layer
(``plans.hits`` / ``plans.misses`` / ``plans.invalidations``) and
surfaced by ``repro profile``. Anything that mutates frontier masks
without going through the FrontierManager update methods must call
``FrontierManager.invalidate_plans()``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.frontier import FrontierManager
from repro.core.partition import Shard, ShardedGraph
from repro.graph.csr import dense_rows, dense_segments, ragged_gather
from repro.obs.span import NULL_OBSERVER

#: Sparse-plan bypass threshold: a frontier covering at most 1/8 of a
#: shard's interval skips the epoch-keyed cache entirely and builds its
#: plan directly (see :meth:`PlanCache.gather_plan`). Tiny traversal
#: frontiers never repeat, so caching them is pure overhead -- the
#: BFS-regression pathology this bypass exists to kill.
SPARSE_BYPASS_FACTOR = 8


def _row_ids(seg: np.ndarray, start: int, dtype) -> np.ndarray:
    """Global row vertex per selected edge, from interval-local rows."""
    return (seg + start).astype(dtype)


class _LazyRowIds:
    """``row_ids`` of a plan: stored for sparse plans, derived from the
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
    #: segment starts into the per-edge arrays (one per destination
    #: with at least one selected in-edge)
    starts: np.ndarray
    #: destination vertex per segment (int64, global)
    verts: np.ndarray
    n_edges: int
    dense: bool
    epoch: int
    #: ``(indptr, interval start)`` a dense plan derives ``row_ids`` from
    _row_source: tuple | None = None


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
    epoch: int
    #: frontier_activate only needs ``indices``; scatter needs the per-
    #: edge identity/weight columns too. A full plan serves both.
    full: bool
    #: ``indices`` deduplicated: the sorted unique out-neighbor vids (vid
    #: dtype, dense plans only). ``next[...] = True`` is idempotent, so
    #: frontier_activate writes these instead of one position per
    #: out-edge. None on sparse plans.
    targets: np.ndarray | None = None
    #: ``(indptr, interval start)`` a dense full plan derives ``row_ids`` from
    _row_source: tuple | None = None


def _build_gather_plan(shard: Shard, rows, dense: bool, epoch: int) -> GatherPlan:
    csc = shard.csc
    if dense:
        starts, verts_local = dense_segments(csc.indptr)
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
        if len(seg):
            starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
            verts_local = seg[starts]
        else:
            starts = np.empty(0, dtype=np.int64)
            verts_local = np.empty(0, dtype=np.int64)
    return GatherPlan(
        rows=None if dense else rows,
        indices=indices,
        eids=eids,
        weights=weights,
        _row_ids=row_ids,
        starts=starts,
        verts=verts_local + shard.start,
        n_edges=len(indices),
        dense=dense,
        epoch=epoch,
        _row_source=(csc.indptr, shard.start) if dense else None,
    )


def _build_out_plan(
    shard: Shard, rows, dense: bool, epoch: int, full: bool, num_vertices: int = 0
) -> OutPlan:
    csr = shard.csr
    targets = row_ids = None
    if dense:
        indices = csr.indices
        eids = csr.edge_ids
        weights = shard.csr_weights
        # == np.unique(indices), by presence mask instead of an O(E log E)
        # sort: a PlanCache lives for one run, so builds are on the clock.
        present = np.zeros(num_vertices, dtype=bool)
        present[indices] = True
        targets = np.flatnonzero(present).astype(indices.dtype)
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
        rows=None if dense else rows,
        indices=indices,
        eids=eids if full else None,
        weights=weights if full else None,
        _row_ids=row_ids,
        n_edges=len(indices),
        dense=dense,
        epoch=epoch,
        full=full,
        targets=targets,
        _row_source=(csr.indptr, shard.start) if full and dense else None,
    )


class _RowsEntry:
    """Canonical row set of one (mask, shard) at a known epoch."""

    __slots__ = ("rows", "epoch")

    def __init__(self, rows, epoch: int):
        self.rows = rows  # int64 global vids, or None for a dense interval
        self.epoch = epoch


def _plan_nbytes(plan) -> int:
    """Bytes a cached plan *references* (owned or aliased).

    Dense plans alias the shard's CSR/CSC arrays by reference, and that
    is exactly the point of counting them: the budget bounds what the
    cache can keep pinned, so aliased bytes must weigh the same as
    owned ones -- and a dense plan's ``row_ids`` weighs its full size
    before anyone has read it, because a read materializes it.
    """
    total = 0
    for name in ("rows", "indices", "eids", "weights", "_row_ids", "starts", "verts", "targets"):
        arr = getattr(plan, name, None)
        if arr is not None and hasattr(arr, "nbytes"):
            total += arr.nbytes
    if plan._row_source is not None:
        total += plan.n_edges * plan.indices.dtype.itemsize
    return total


class PlanCache:
    """Per-shard index-plan memoization over one frontier's epochs.

    ``dense``/``cache`` toggle the two fast paths independently; with
    both off every query falls through to a fresh slow-path build, so a
    disabled cache is an exact stand-in for the pre-plan Compute Engine
    (multi-GPU and unit-test call sites rely on that default).

    Thread safety: concurrent queries for *different* shards (the
    parallel shard compute case) are safe -- per-shard state lives in
    dict slots only one worker touches, and the shared counters are
    guarded by a lock. Two concurrent queries for the same shard are
    never issued by the runtime.
    """

    def __init__(
        self,
        sharded: ShardedGraph,
        frontier: FrontierManager,
        obs=None,
        dense: bool = True,
        cache: bool = True,
        budget: int | None = None,
        sparse: bool = True,
    ):
        self.sharded = sharded
        self.frontier = frontier
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.dense_enabled = dense
        self.cache_enabled = cache
        #: sparse-frontier bypass: queries whose frontier covers at most
        #: 1/SPARSE_BYPASS_FACTOR of the shard's interval build their
        #: plan directly (bit-identical to the slow path) and never
        #: touch the epoch/LRU machinery. Only active on the fast path.
        self.sparse_enabled = sparse
        #: LRU byte budget over the cached plans (see :func:`_plan_nbytes`
        #: for what counts). None -> unbounded, the pre-budget behavior.
        #: The canonical row sets (``_rows``) and the tiny dense-vid
        #: aranges are frontier state, not plan storage, and stay exempt.
        self.budget = budget
        self._rows: dict[str, dict[int, _RowsEntry]] = {"active": {}, "changed": {}}
        self._gather: dict[int, GatherPlan] = {}
        self._out: dict[int, OutPlan] = {}
        self._dense_gather: dict[int, GatherPlan] = {}
        self._dense_out: dict[int, OutPlan] = {}
        self._dense_vids: dict[int, np.ndarray] = {}
        self._stores = {
            "gather": self._gather,
            "out": self._out,
            "dense_gather": self._dense_gather,
            "dense_out": self._dense_out,
        }
        #: (kind, shard index) -> plan bytes, in least-recently-used order
        self._lru: OrderedDict[tuple[str, int], int] = OrderedDict()
        self._held_bytes = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.sparse_bypass = 0
        #: dense plans carried into later runs via :meth:`rebind`
        #: (``keep_warm``): cumulative count of plan builds later runs
        #: did not have to repeat.
        self.carried_plans = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.dense_enabled or self.cache_enabled

    def stats(self) -> dict:
        with self._lock:
            hits, misses, inv = self.hits, self.misses, self.invalidations
            evictions, held = self.evictions, self._held_bytes
            bypass = self.sparse_bypass
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "invalidations": inv,
            "hit_rate": hits / total if total else 0.0,
            "evictions": evictions,
            "sparse_bypass": bypass,
            "carried_plans": self.carried_plans,
            "budget_bytes": self.budget,
            "held_bytes": held,
        }

    def rebind(self, frontier: FrontierManager, obs=None) -> int:
        """Re-aim a carried cache at a new run's frontier (``keep_warm``).

        Dense plans (and the dense-vid aranges) are functions of shard
        topology alone -- the lookup path never consults frontier epochs
        for them -- so they survive across runs over the same
        :class:`ShardedGraph`. Everything keyed to the old frontier's
        epoch counters is dropped: the canonical row sets and the sparse
        gather/out plans, which a fresh frontier restarting at epoch 0
        could otherwise alias incorrectly. Returns the number of dense
        plans carried over (also accumulated in ``carried_plans``).
        """
        self.frontier = frontier
        if obs is not None:
            self.obs = obs
        carried = len(self._dense_gather) + len(self._dense_out)
        for store in self._rows.values():
            store.clear()
        self._gather.clear()
        self._out.clear()
        with self._lock:
            self.carried_plans += carried
            if self.budget is not None:
                for key in [k for k in self._lru if k[0] in ("gather", "out")]:
                    self._held_bytes -= self._lru.pop(key)
        self.obs.add("plans.carried", carried)
        return carried

    # ------------------------------------------------------------------
    # LRU byte accounting (no-ops when ``budget`` is None)
    # ------------------------------------------------------------------
    def _account(self, kind: str, index: int, plan) -> None:
        """Charge a freshly stored plan and evict over-budget entries."""
        if self.budget is None:
            return
        evicted: list[tuple[str, int]] = []
        with self._lock:
            key = (kind, index)
            self._held_bytes -= self._lru.pop(key, 0)
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

    # ------------------------------------------------------------------
    def _record(self, hit: bool, invalidated: bool = False) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
            if invalidated:
                self.invalidations += 1
        self.obs.add("plans.hits" if hit else "plans.misses")
        if invalidated:
            self.obs.add("plans.invalidations")

    def _sparse_rows(self, shard: Shard, mask: str):
        """Rows for a bypass-eligible tiny frontier, else None.

        The pre-check is a cheap count (compacted frontier / one
        vectorized scan); only eligible queries pay the row extraction.
        """
        if not self.sparse_enabled:
            return None
        count = self.frontier.sparse_count(mask, shard.start, shard.stop)
        if count is None or count * SPARSE_BYPASS_FACTOR > shard.num_interval_vertices:
            return None
        fr = self.frontier
        rows = (
            fr.active_in(shard.start, shard.stop)
            if mask == "active"
            else fr.changed_in(shard.start, shard.stop)
        )
        with self._lock:
            self.sparse_bypass += 1
        self.obs.add("plans.sparse_bypass")
        return rows

    def sparse_rows(self, shard: Shard, mask: str):
        """Public bypass query for the fused kernel paths.

        Returns the global row ids when the (mask, shard) frontier is
        bypass-eligible, else None -- counting ``plans.sparse_bypass``
        exactly as :meth:`gather_plan`/:meth:`out_plan` would, so a
        fused caller that consumes the rows directly (no plan built)
        leaves the cache counters identical to the generic path.
        """
        return self._sparse_rows(shard, mask)

    def _resolve_rows(self, shard: Shard, mask: str):
        """(rows | None-if-dense, fresh) for the current mask contents.

        ``fresh`` means the caller may keep using anything derived from
        this exact rows object: either the interval's epoch still
        matches the stored entry (no mutation since), or the recomputed
        row set compared equal and the entry was revalidated in place.
        """
        fr = self.frontier
        idx = shard.index
        if mask == "active":
            epoch = int(fr.active_epochs[idx])
            dense_q, rows_q = fr.dense_active_in, fr.active_in
        else:
            epoch = int(fr.changed_epochs[idx])
            dense_q, rows_q = fr.dense_changed_in, fr.changed_in
        store = self._rows[mask]
        entry = store.get(idx)
        if entry is not None and entry.epoch == epoch:
            return entry.rows, True
        if self.dense_enabled and shard.num_interval_vertices and dense_q(
            shard.start, shard.stop
        ):
            if entry is not None and entry.rows is None:
                entry.epoch = epoch  # still dense: revalidate in place
                return None, True
            store[idx] = _RowsEntry(None, epoch)
            return None, False
        rows = rows_q(shard.start, shard.stop)
        if (
            entry is not None
            and entry.rows is not None
            and np.array_equal(entry.rows, rows)
        ):
            entry.epoch = epoch
            return entry.rows, True
        if self.cache_enabled:
            store[idx] = _RowsEntry(rows, epoch)
        return rows, False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def gather_plan(self, shard: Shard) -> GatherPlan:
        """The in-edge plan for the shard's currently active rows."""
        if not self.enabled:
            rows = self.frontier.active_in(shard.start, shard.stop)
            return _build_gather_plan(shard, rows, dense=False, epoch=0)
        bypass = self._sparse_rows(shard, "active")
        if bypass is not None:
            return _build_gather_plan(shard, bypass, dense=False, epoch=0)
        rows, fresh = self._resolve_rows(shard, "active")
        epoch = int(self.frontier.active_epochs[shard.index])
        if rows is None:  # dense: the plan is static per shard topology
            plan = self._dense_gather.get(shard.index)
            if plan is None:
                plan = _build_gather_plan(shard, None, dense=True, epoch=epoch)
                self._dense_gather[shard.index] = plan
                self._account("dense_gather", shard.index, plan)
                self._record(hit=False)
            else:
                self._touch("dense_gather", shard.index)
                self._record(hit=True)
            return plan
        cached = self._gather.get(shard.index) if self.cache_enabled else None
        if cached is not None and fresh and cached.rows is rows:
            cached.epoch = epoch
            self._touch("gather", shard.index)
            self._record(hit=True)
            return cached
        plan = _build_gather_plan(shard, rows, dense=False, epoch=epoch)
        if self.cache_enabled:
            self._gather[shard.index] = plan
            self._account("gather", shard.index, plan)
        self._record(hit=False, invalidated=cached is not None)
        return plan

    def out_plan(self, shard: Shard, full: bool = False) -> OutPlan:
        """The out-edge plan for the shard's currently changed rows.

        ``full`` (scatter) adds the per-edge identity/weight columns; a
        cached full plan also serves lite (frontier_activate) queries.
        """
        if not self.enabled:
            rows = self.frontier.changed_in(shard.start, shard.stop)
            return _build_out_plan(shard, rows, dense=False, epoch=0, full=full)
        bypass = self._sparse_rows(shard, "changed")
        if bypass is not None:
            return _build_out_plan(shard, bypass, dense=False, epoch=0, full=full)
        rows, fresh = self._resolve_rows(shard, "changed")
        epoch = int(self.frontier.changed_epochs[shard.index])
        if rows is None:
            plan = self._dense_out.get(shard.index)
            if plan is None or (full and not plan.full):
                plan = _build_out_plan(
                    shard, None, dense=True, epoch=epoch, full=full,
                    num_vertices=self.sharded.num_vertices,
                )
                self._dense_out[shard.index] = plan
                self._account("dense_out", shard.index, plan)
                self._record(hit=False)
            else:
                self._touch("dense_out", shard.index)
                self._record(hit=True)
            return plan
        cached = self._out.get(shard.index) if self.cache_enabled else None
        if (
            cached is not None
            and fresh
            and cached.rows is rows
            and (cached.full or not full)
        ):
            cached.epoch = epoch
            self._touch("out", shard.index)
            self._record(hit=True)
            return cached
        plan = _build_out_plan(shard, rows, dense=False, epoch=epoch, full=full)
        if self.cache_enabled:
            self._out[shard.index] = plan
            self._account("out", shard.index, plan)
        self._record(hit=False, invalidated=cached is not None)
        return plan

    def active_rows(self, shard: Shard):
        """(rows, dense) for the apply phase.

        ``rows`` are the active global vids (the dense case returns a
        cached per-shard ``arange``); ``dense`` tells the caller it may
        use contiguous slices of the vertex-indexed buffers instead of
        fancy gathers. Callers must not mutate ``rows``.
        """
        if not self.enabled:
            return self.frontier.active_in(shard.start, shard.stop), False
        bypass = self._sparse_rows(shard, "active")
        if bypass is not None:
            return bypass, False
        rows, fresh = self._resolve_rows(shard, "active")
        self._record(hit=fresh)
        if rows is None:
            vids = self._dense_vids.get(shard.index)
            if vids is None:
                vids = np.arange(shard.start, shard.stop, dtype=np.int64)
                self._dense_vids[shard.index] = vids
            return vids, True
        return rows, False
