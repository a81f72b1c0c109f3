"""The Compute Engine (Section 4.4).

Executes the five phases over one shard at a time with the *hybrid*
programming model of Section 3.1:

* ``gather_map``, ``scatter`` and ``frontier_activate`` are
  **edge-centric** -- one (virtual) hardware thread per active edge,
  enumerated via :func:`~repro.graph.csr.ragged_gather`, so real-world
  graphs' edge surplus maps to parallelism and no per-vertex atomics
  order the receives.
* ``gather_reduce`` and ``apply`` are **vertex-centric** -- gathered
  contributions arrive consecutively per destination (the CSC layout
  guarantees it), so the reduction is segmented: an ``add`` is one CSR
  matvec that sums each segment left to right
  (:func:`~repro.graph.csr.csr_sum`), any other ufunc a ``reduceat``.

Each call returns a :class:`WorkItems` census that the Data Movement
Engine turns into kernel cost; with frontier skipping disabled
(the Figure-15 baseline) the census counts the full shard instead of the
active subset, while the *semantic* computation is identical either way
(inactive vertices are no-ops).

Every phase opens with one :class:`~repro.core.plans.PlanCache` query
per (shard, mask), answered *dense* (a stored topology-only plan,
contiguous slices in apply) or *rows* (the sorted active/changed vids,
consumed directly by the fused kernels or expanded into a one-shot plan
on the generic path). Both produce the index sets, order and dtypes of
the from-scratch build, so the censuses below never depend on the route.

Two things are done per *iteration*, not per shard: a ``source_only``
gather map is applied once over the vertex state (:meth:`ComputeEngine.
begin_group`), and a uniform frontier -- all active, or rows that fill no
shard's interval -- runs each phase group once over the whole graph
(:meth:`ComputeEngine.run_merged`); consecutive rows passes of a ``min`` /
``min_improve`` program relay the out-edges FrontierActivate expanded to
the next gather (``_relay_for``).

CTA load balancing from ModernGPU (which the paper plugs in) is modeled
by the occupancy term of :class:`repro.sim.stream.Kernel`: work per
kernel is proportional to *active* items, not to the worst vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.api import GASProgram
from repro.core.frontier import FrontierManager
from repro.core.kernels import layout
from repro.core.kernels.specs import GatherSpec
from repro.core.partition import Shard, ShardedGraph
from repro.core.plans import PlanCache
from repro.graph.csr import segment_reduce
from repro.obs.span import NULL_OBSERVER


@dataclass
class WorkItems:
    """Edge- and vertex-centric work launched for one (shard, group)."""

    edge_items: int = 0
    vertex_items: int = 0

    def __iadd__(self, other: "WorkItems") -> "WorkItems":
        self.edge_items += other.edge_items
        self.vertex_items += other.vertex_items
        return self

    @property
    def total(self) -> int:
        return self.edge_items + self.vertex_items


@dataclass
class _PendingGather:
    """gatherMap output parked between the two unfused gather phases."""

    starts: np.ndarray
    verts: np.ndarray
    contributions: np.ndarray


def _spec_trustworthy(cls: type, method: str, spec_method: str) -> bool:
    """Whether a kernel spec still describes the method it was written for.

    A subclass that overrides ``apply``/``gather_map`` without also
    overriding the matching ``*_kernel_spec`` hook would otherwise
    inherit a spec describing the *parent's* arithmetic -- and the fused
    kernel would silently skip the override. The spec is only honored
    when the class defining it sits at or below the class defining the
    method in the MRO.
    """
    mro = cls.__mro__

    def definer(name):
        for c in mro:
            if name in c.__dict__:
                return c
        return None

    m, s = definer(method), definer(spec_method)
    return m is not None and s is not None and mro.index(s) <= mro.index(m)


@dataclass
class _FusedGather:
    """Marker parked when a fused kernel already reduced the gather.

    The fused pass wrote ``gather_temp``/``gather_has`` during
    gather_map, so gather_reduce has no arithmetic left -- but it must
    still report the same vertex-centric census the unfused reduction
    would have (one item per destination segment).
    """

    n_segments: int


class ComputeEngine:
    """Phase execution over the runtime's resident vertex buffers."""

    def __init__(
        self,
        sharded: ShardedGraph,
        program: GASProgram,
        ctx,
        frontier: FrontierManager,
        obs=None,
        plans: PlanCache | None = None,
        kernels=None,
    ):
        self.sharded = sharded
        self.program = program
        self.ctx = ctx
        self.frontier = frontier
        self.obs = obs if obs is not None else NULL_OBSERVER
        # Default to the fast path off: every query rebuilds from the
        # frontier masks, exactly the from-scratch reference. The
        # runtime passes an enabled cache; direct call sites (unit
        # tests, multi-GPU) keep reference semantics untouched.
        self.plans = plans if plans is not None else PlanCache(
            sharded, frontier, obs=self.obs, dense=False
        )
        n = sharded.num_vertices
        cols = getattr(program, "state_cols", None)
        state_shape = (n,) if cols is None else (n, int(cols))
        self.vertex_values = np.asarray(program.init_vertices(ctx))
        if self.vertex_values.shape != state_shape:
            raise ValueError(
                f"init_vertices must return shape {state_shape}, "
                f"got {self.vertex_values.shape}"
            )
        self.vertex_values = self.vertex_values.astype(program.vertex_dtype, copy=False)
        # Batched programs widen the gather result to one column per
        # query; gather_has stays a single vertex-level mask (a vertex
        # either received contributions this iteration or did not --
        # identical across columns because topology is shared).
        self.gather_temp = np.full(
            state_shape, program.gather_identity, dtype=program.gather_dtype
        )
        self.gather_has = np.zeros(n, dtype=bool)
        self.edge_state = program.init_edge_state(ctx)
        self.iteration = 0
        self._pending: dict[int, _PendingGather | _FusedGather] = {}
        self._setup_kernels(kernels)

    def _setup_kernels(self, kernels) -> None:
        """Adopt a kernel backend and the program's fusable specs.

        Fusion is opt-in twice over: the runtime must pass a backend
        (direct engine construction keeps the generic path, so unit
        tests that pin plan-cache counters see no behavior change), and
        the program must declare specs in the float32 shapes the
        kernels implement. Programs without specs -- or with edge state,
        which the fused gather cannot stamp -- run the generic path and
        count one ``kernels.fallbacks``.
        """
        self.kernels = kernels
        self._backend_name = None if kernels is None else kernels.name
        self._gather_spec = None
        self._apply_spec = None
        self._deg32 = None
        self.fused_calls = 0
        self.fallbacks = 0
        # Pre-map (see begin_group): the spec shards gather it with, the
        # mapped vertex state, and whether it matches vertex_values.
        self._copy_spec = None
        self._premap = None
        self._premap_valid = False
        self.premaps = 0
        self.merged_groups = 0
        # Merged pass (run_merged): the selected shard indices while one runs,
        # whether it is all active, the per-row edge counts its last kernel call
        # expanded, the relay parked by FrontierActivate, the last check's
        # outcome (and whether it still holds).
        self._merged = self._counts = self._relay = self.relay_verified = None
        self._dense = self._relays = self._relaxed = False
        self.relayed_gathers = 0
        if kernels is None:
            return
        f32 = np.dtype(np.float32)
        u64 = np.dtype(np.uint64)
        vdt = np.dtype(self.program.vertex_dtype)
        gdt = np.dtype(self.program.gather_dtype)
        cols = getattr(self.program, "state_cols", None)
        if cols is None:
            dtypes_ok = vdt == f32 and gdt == f32
        else:
            # Matrix-state (batched) programs fuse only when the backend
            # implements the columnar variants; float32 query columns
            # and uint64 bitmask words are the two supported layouts.
            dtypes_ok = getattr(kernels, "supports_matrix", False) and (
                (vdt == f32 and gdt == f32) or (vdt == u64 and gdt == u64)
            )
        cls = type(self.program)
        if dtypes_ok:
            if _spec_trustworthy(cls, "gather_map", "gather_kernel_spec"):
                self._gather_spec = self.program.gather_kernel_spec()
            if _spec_trustworthy(cls, "apply", "apply_kernel_spec"):
                self._apply_spec = self.program.apply_kernel_spec()
        if self._gather_spec is None and self._apply_spec is None:
            self.fallbacks += 1
            self.obs.add("kernels.fallbacks")
        spec, apply_spec = self._gather_spec, self._apply_spec
        if spec and spec.source_only and self.edge_state is None and self.plans.enabled:
            self._copy_spec = GatherSpec("copy", spec.reduce)
        # A min over a monotone map, kept only where it improves, with no
        # hook writing the state between iterations: may be relayed.
        self._relays = bool(
            spec and apply_spec and apply_spec.kind == "min_improve"
            and spec.reduce == "min" and spec.kind in ("copy", "add_one", "add_weight")
            and cols is None and cls.end_iteration is GASProgram.end_iteration
        )

    def _deg_table(self) -> np.ndarray:
        """float32 out-degree table (clamped to 1) for div_degree gathers."""
        if self._deg32 is None:
            self._deg32 = layout.aligned_copy(
                np.maximum(self.ctx.out_degrees.astype(np.float32), 1.0)
            )
        return self._deg32

    def _count_fused(self, n: int = 1) -> None:
        self.fused_calls += n
        if self.obs.enabled:
            self.obs.add("kernels.fused_calls", n)

    def kernel_stats(self) -> dict | None:
        """Backend name + fused/fallback counters (None: no backend)."""
        if self._backend_name is None:
            return None
        stats = {
            "backend": self._backend_name,
            "fused_calls": self.fused_calls,
            "fallbacks": self.fallbacks,
            "premaps": self.premaps,
            "merged_groups": self.merged_groups,
            "relayed_gathers": self.relayed_gathers,
            "relay_verified": self.relay_verified,
        }
        if self.kernels is not None:
            stats.update(self.kernels.arena.stats())
        return stats

    # ------------------------------------------------------------------
    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.gather_has[:] = False
        self._pending.clear()
        self._premap_valid = False
        if not self.frontier.natural:
            # a reseed or the pull expansion: not the parked targets, and only a
            # superset of them leaves every other edge relaxed (_relay_for)
            self._relay, self._relaxed = None, False

    def begin_group(self, phases: tuple[str, ...]) -> None:
        """Map the vertex state once for this iteration's fused gathers.

        Called before a group's shards run.
        """
        if self._copy_spec is None or self._premap_valid or "gather_map" not in phases:
            return
        values, spec = self.vertex_values, self._gather_spec
        if self._premap is None:
            self._premap = layout.aligned_empty(values.size, values.dtype).reshape(values.shape)
        deg = self._deg_table() if spec.kind == "div_degree" else None
        self.kernels.premap(spec, values, deg, self._premap)
        self._premap_valid = True
        self.premaps += 1
        self.obs.add("kernels.premaps")

    def run_group(self, phases: tuple[str, ...], shard: Shard, count_full: bool) -> WorkItems:
        """Execute the given (possibly fused) phases on one shard."""
        work = WorkItems()
        record = self.obs.enabled
        merged = self._merged is not None  # entered through run_merged
        for phase in phases:
            fn = getattr(self, "_" + phase)
            fused0 = self.fused_calls
            w = fn(shard, count_full)
            if merged:
                self._split_census(phase, fused0)
            if record:
                self.obs.add(f"compute.{phase}.edge_items", w.edge_items)
                self.obs.add(f"compute.{phase}.vertex_items", w.vertex_items)
            work += w
        return work

    # ------------------------------------------------------------------
    # One pass per phase group (iterations with a uniform frontier)
    # ------------------------------------------------------------------
    def can_merge(self, plan) -> bool:
        """Whether every group of ``plan`` may run through
        :meth:`run_merged`: fused
        gather and apply over the in-RAM flat arrays, no scatter or edge
        state (so no group holds a scatter phase), frontier-selected."""
        return (
            self.sharded.span is not None
            and self.plans.enabled
            and self._apply_spec is not None
            and (self._gather_spec is not None or not self.program.has_gather)
            and not self.program.has_scatter
            and self.edge_state is None
            and all(g.selector != "all" for g in plan)
        )

    def run_merged(self, phases: tuple[str, ...], shards: list[Shard]) -> dict | None:
        """Run one phase group once over all the selected shards, under a
        uniform frontier: all active, or rows that fill no shard interval.

        The whole graph is one more shard (``sharded.span``), so the
        phases run unchanged and every vertex reduces the same segment
        in the same order. Returns the per-shard path's census,
        ``{shard index: WorkItems}``, and counts plans and fused calls
        as that path would have; or None, leaving it to that path, for an
        all-active FrontierActivate over a changed set that is not whole.
        """
        if not shards:
            return {}
        fr = self.frontier
        self._dense = fr.all_active
        if self._dense and "frontier_activate" in phases:
            if not fr.dense_changed_in(0, len(fr.changed)):
                return None
        merged = self._merged = [s.index for s in shards]
        self._counts = None
        self._split = np.zeros((2, self.sharded.num_partitions), dtype=np.int64)
        p = self.plans
        before = p.hits, p.misses, p.sparse_bypass
        self.run_group(phases, self.sharded.span, False)
        self._merged = None
        # one query per selected shard, not one for the span
        after = p.hits, p.misses, p.sparse_bypass
        p.count(*((a - b) * (len(shards) - 1) for a, b in zip(after, before)))
        self.merged_groups += 1
        self.obs.add("kernels.merged_groups")
        edge, vertex = self._split.tolist()
        return {i: WorkItems(edge[i], vertex[i]) for i in merged}

    def _split_census(self, phase: str, fused0: int) -> None:
        """Per-shard items of the merged ``phase`` just run: whole intervals'
        static sizes, else the frontier's per-shard split of its rows and
        sums of their degrees."""
        if self._dense:
            items = self.sharded.whole_census[phase]
        elif phase == "gather_reduce":
            items = self._segments  # parked by gather_map, like _pending
        else:
            rows, at, _ = self.frontier.split("changed" if phase == "frontier_activate" else "active")
            items = at[1:] - at[:-1]  # apply: one item per row
            if phase != "apply":  # the edge phases: one per incident edge
                runs = np.flatnonzero(items)  # reduceat cannot take an empty run
                # the kernel's own expansion counted them; a generic pass did not
                degree, self._counts = self._counts, None
                if degree is None:
                    out = phase == "frontier_activate"
                    degree = np.take(self.ctx.out_degrees if out else self.ctx.in_degrees, rows)

                def per_run(per_row):
                    sums = np.zeros_like(items)
                    if len(runs):
                        sums[runs] = np.add.reduceat(per_row, at[runs], dtype=np.int64)
                    return sums

                if phase == "gather_map":  # for the reduce: one per non-empty segment
                    self._segments = per_run(degree > 0)
                items = per_run(degree)
        self._split[int(phase in ("gather_reduce", "apply"))] += items
        counted = self.fused_calls - fused0
        if counted:
            # per shard: one fused call on each selected shard, for a
            # gather only on those with an active in-edge
            n = len(self._merged)
            if phase == "gather_map":
                n = int(np.count_nonzero(items[self._merged]))
            self._count_fused(n - counted)

    # ------------------------------------------------------------------
    # Edge-centric phases
    # ------------------------------------------------------------------
    def _gather_map(self, shard: Shard, count_full: bool) -> WorkItems:
        if not self.program.has_gather:
            return WorkItems(edge_items=shard.num_in_edges if count_full else 0)
        spec = self._gather_spec
        if (
            spec is not None
            and self.edge_state is None
            and self.plans.enabled
            and (not spec.needs_weights or shard.csc_weights is not None)
        ):
            return self._fused_gather_map(shard, count_full, spec)
        plan = self.plans.gather_plan(shard)
        n_edges = shard.num_in_edges if count_full else plan.n_edges
        if plan.n_edges == 0:
            return WorkItems(edge_items=n_edges)
        # np.take beats values[indices] advanced indexing on the hot
        # O(E) gathers (same result, same dtype).
        states = None if self.edge_state is None else np.take(self.edge_state, plan.eids)
        contrib = self.program.gather_map(
            self.ctx,
            plan.indices,
            plan.row_ids,
            np.take(self.vertex_values, plan.indices, axis=0),
            plan.weights,
            states,
        )
        self._pending[shard.index] = _PendingGather(plan.starts, plan.verts, contrib)
        return WorkItems(edge_items=n_edges)

    def _fused_gather_map(self, shard: Shard, count_full: bool, spec) -> WorkItems:
        """Single fused pass: per-edge map + segment reduce + has-mark.

        One dense test (:meth:`PlanCache.sparse_rows`) picks the route:
        a rows frontier reads the shard's CSC sub-arrays directly (no
        plan at all); a dense one reuses the stored plan's index layout
        but skips the contribution temporaries. Plan counters stay
        identical to the generic path's ``gather_plan``.
        """
        values = self.vertex_values
        deg = self._deg_table() if spec.kind == "div_degree" else None
        if self._premap_valid:
            spec, values, deg = self._copy_spec, self._premap, None
        rows = self.plans.sparse_rows(shard, "active")
        if rows is not None:
            relay = self._relay_for()
            if relay is None:
                n_segments, counts = self.kernels.gather_rows(
                    shard.index, spec, values, deg,
                    shard.csc.indptr, shard.csc.indices, shard.csc_weights,
                    rows, shard.start, self.gather_temp, self.gather_has,
                )
            else:
                counts = np.take(self.ctx.in_degrees, rows)
                n_segments = int(np.count_nonzero(counts))
                self.kernels.relay_gather(
                    spec, values, shard.csr_weights, *relay, rows,
                    self.gather_temp, self.gather_has,
                )
                self.relayed_gathers += 1
            n_edges = int(counts.sum())
            if self._merged is not None:
                self._counts = counts
        else:
            plan = self.plans.dense_gather_plan(shard)
            n_edges = plan.n_edges
            n_segments = len(plan.verts)
            if n_edges:
                self.kernels.gather_segments(
                    shard.index, spec, values, deg,
                    plan.indices, plan.weights, plan.rowptr, plan.verts,
                    self.gather_temp, self.gather_has,
                )
        if n_edges:
            self._pending[shard.index] = _FusedGather(n_segments)
            self._count_fused()
        return WorkItems(edge_items=shard.num_in_edges if count_full else n_edges)

    def _relay_for(self):
        """The relay this rows gather may run from, or None to pull:
        ``(rows, counts, pos, targets)``, the previous iteration's changed
        rows and their out-edges as FrontierActivate expanded them. They
        stand in for the active rows' in-edges when the frontier is exactly
        those targets (merged pass, parked one iteration ago, not dropped by
        ``begin_iteration``) and every *other* edge (u, v) is relaxed,
        ``value[v] <= map(value[u], w)``: then ``min(old, relayed) == min(old,
        pulled)``. A monotone apply over the natural frontier keeps that, so
        it is verified once per stretch of natural iterations."""
        relay = self._relay
        if relay is None or self._merged is None or relay[0] != self.iteration - 1:
            return None
        if not self._relaxed and self.relay_verified is not False:  # one failure is final
            self._relaxed = self.relay_verified = self._edges_relaxed(relay[1])
        return relay[1:] if self._relaxed else None

    def _edges_relaxed(self, changed: np.ndarray) -> bool:
        """Whether ``value[v] <= map(value[u], w)`` on every edge (u, v)
        with u outside ``changed``; shard by shard, so the temporaries
        stay one shard's edges long. A NaN fails it."""
        spec, values = self._gather_spec, self.vertex_values
        mapped = values + np.float32(1.0) if spec.kind == "add_one" else values.copy()
        mapped[changed] = np.inf  # their out-edges are the relay itself
        for shard in self.sharded.shards:
            csr = shard.csr
            cand = np.repeat(mapped[shard.start : shard.stop], np.diff(csr.indptr))
            if spec.kind == "add_weight":
                cand += shard.csr_weights
            if not (np.take(values, csr.indices) <= cand).all():
                return False
        return True

    def _gather_reduce(self, shard: Shard, count_full: bool) -> WorkItems:
        n_vert = shard.num_interval_vertices if count_full else 0
        pending = self._pending.pop(shard.index, None)
        if pending is None:
            return WorkItems(vertex_items=n_vert)
        if isinstance(pending, _FusedGather):
            # The fused kernel already reduced; report the same census.
            if not count_full:
                n_vert = pending.n_segments
            return WorkItems(vertex_items=n_vert)
        reduced = segment_reduce(
            self.program.gather_reduce, pending.contributions, pending.starts
        )
        self.gather_temp[pending.verts] = reduced.astype(
            self.program.gather_dtype, copy=False
        )
        self.gather_has[pending.verts] = True
        if not count_full:
            n_vert = len(pending.verts)
        return WorkItems(vertex_items=n_vert)

    def _scatter(self, shard: Shard, count_full: bool) -> WorkItems:
        if not self.program.has_scatter:
            return WorkItems(edge_items=shard.num_out_edges if count_full else 0)
        plan = self.plans.out_plan(shard, full=True)
        n_edges = shard.num_out_edges if count_full else plan.n_edges
        if plan.n_edges == 0:
            return WorkItems(edge_items=n_edges)
        states = None if self.edge_state is None else np.take(self.edge_state, plan.eids)
        row_ids = plan.row_ids  # a dense plan derives them on each read
        new_states = self.program.scatter(
            self.ctx,
            row_ids,
            np.take(self.vertex_values, row_ids, axis=0),
            plan.weights,
            states,
        )
        if self.edge_state is not None:
            self.edge_state[plan.eids] = new_states
        return WorkItems(edge_items=n_edges)

    def _frontier_activate(self, shard: Shard, count_full: bool) -> WorkItems:
        plan = None
        if (
            self.kernels is not None
            and not self.program.has_scatter
            and self.plans.enabled
        ):
            rows = self.plans.sparse_rows(shard, "changed")
            if rows is None:
                plan = self.plans.dense_out_plan(shard)
            else:
                return self._fused_activate(shard, rows, count_full)
        if plan is None:
            plan = self.plans.out_plan(shard, full=self.program.has_scatter)
        n_edges = shard.num_out_edges if count_full else plan.n_edges
        if plan.n_edges and plan.present is None:
            self.frontier.activate_next(plan.indices)
        elif plan.n_edges:  # one OR of the out-neighbour presence span
            self.frontier.activate_next_mask(plan.present, plan.n_edges, start=plan.lo)
        return WorkItems(edge_items=n_edges)

    def _fused_activate(self, shard: Shard, rows, count_full: bool) -> WorkItems:
        """Fused activation of a rows (non-dense) changed set.

        Emits the changed rows' out-neighbors straight off the shard's
        CSR sub-arrays into a scratch buffer and ORs them into the next
        frontier -- no out plan is built.
        """
        targets, pos, nz, counts = self.kernels.activate_targets(
            shard.index, shard.csr.indptr, shard.csr.indices, rows, shard.start
        )
        if len(targets):
            self.frontier.activate_next(targets)
            if self._relays and self._merged is not None:
                # the edges the next gather would expand again (_relay_for);
                # only that gather's own pull reuses ``pos``'s arena slot
                at = slice(None) if nz is None else nz
                self._relay = self.iteration, rows[at], counts[at], pos, targets
        if self._merged is not None:
            self._counts = counts
        self._count_fused()
        return WorkItems(
            edge_items=shard.num_out_edges if count_full else len(targets)
        )

    # ------------------------------------------------------------------
    # Vertex-centric phase
    # ------------------------------------------------------------------
    def _apply(self, shard: Shard, count_full: bool) -> WorkItems:
        rows, dense = self.plans.active_rows(shard)
        n_vert = shard.num_interval_vertices if count_full else len(rows)
        if len(rows) == 0:
            return WorkItems(vertex_items=n_vert)
        if self._apply_spec is not None and self.plans.enabled:
            self._fused_apply(shard, rows, dense)
            return WorkItems(vertex_items=n_vert)
        if dense:
            # Whole interval active: contiguous slice copies of the
            # vertex-indexed buffers instead of O(V) fancy gathers. The
            # copies keep apply's inputs private, as the slow path does.
            lo, hi = shard.start, shard.stop
            old_vals = self.vertex_values[lo:hi].copy()
            gathered = self.gather_temp[lo:hi].copy()
            has = self.gather_has[lo:hi].copy()
        else:
            old_vals = self.vertex_values[rows]
            gathered = self.gather_temp[rows]
            has = self.gather_has[rows]
        new_vals, changed = self.program.apply(
            self.ctx, rows, old_vals, gathered, has, self.iteration
        )
        changed = np.asarray(changed, dtype=bool)
        if changed.shape != rows.shape:
            raise ValueError(
                f"{type(self.program).__name__}.apply returned a changed mask "
                f"of shape {changed.shape}; expected {rows.shape}"
            )
        out = np.asarray(new_vals).astype(self.program.vertex_dtype, copy=False)
        self._premap_valid = False
        if dense:
            self.vertex_values[shard.start : shard.stop] = out
        else:
            self.vertex_values[rows] = out
        self.frontier.mark_changed(rows[changed])
        return WorkItems(vertex_items=n_vert)

    def _fused_apply(self, shard: Shard, rows, dense: bool) -> None:
        """Fused apply: update + changed mask in one kernel pass.

        Results land in arena buffers (``out`` is copied into
        ``vertex_values`` before the next reuse). The min_improve source seed
        is positional: the generic ``vids == source`` comparison
        reduces to at most one index on iteration 0.
        """
        spec = self._apply_spec
        lo, hi = shard.start, shard.stop
        src_pos = -1
        if spec.source is not None and self.iteration == 0:
            if dense:
                if lo <= spec.source < hi:
                    src_pos = spec.source - lo
            else:
                j = int(np.searchsorted(rows, spec.source))
                if j < len(rows) and rows[j] == spec.source:
                    src_pos = j
        out, changed = self.kernels.apply_block(
            shard.index, spec, self.vertex_values, self.gather_temp,
            self.gather_has, None if dense else rows, lo, hi,
            self.iteration, src_pos,
        )
        self._premap_valid = False
        # a dense apply whose every row changed marks its interval as a slice
        whole = dense and spec.kind == "affine" and spec.changed_mode == "all"
        if dense:
            self.vertex_values[lo:hi] = out
            changed_vids = rows if whole else np.flatnonzero(changed) + lo
        else:
            self.vertex_values[rows] = out
            changed_vids = rows[changed]
        self.frontier.mark_changed(changed_vids, whole=whole)
        self._count_fused()
