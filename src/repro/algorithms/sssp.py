"""Single-Source Shortest Paths (label-correcting / Bellman-Ford style).

Gather: candidate distance ``dist(u) + w(u, v)`` over in-edges, reduced
with min. Apply: keep the improvement and mark changed. No scatter (edge
weights are immutable), so the Phase Fusion Engine skips out-edge value
movement while FrontierActivate still propagates the frontier.

"BFS is essentially SSSP with equal edge weights" (Section 6.2.3); the
frontier dynamics of the two match, which Figure 16 exploits by plotting
only one of them.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import GASProgram, source_frontier
from repro.core.kernels import ApplySpec, GatherSpec

UNREACHED = np.float32(np.inf)


class SSSP(GASProgram):
    name = "sssp"
    gather_reduce = np.minimum
    gather_identity = np.inf
    needs_weights = True
    #: min-distance apply is improvement-driven, so pull iterations
    #: (superset frontiers) cannot change results.
    pull_compatible = True

    def __init__(self, source: int = 0):
        self.source = source

    def init_vertices(self, ctx):
        vals = np.full(ctx.num_vertices, UNREACHED, dtype=self.vertex_dtype)
        vals[self.source] = 0.0
        return vals

    def init_frontier(self, ctx):
        return source_frontier(ctx, self.source)

    def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
        return src_vals + weights

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        candidate = np.where(has_gather, gathered, np.inf).astype(old_vals.dtype)
        improved = candidate < old_vals
        new_vals = np.where(improved, candidate, old_vals)
        # Seed: the source must fire FrontierActivate once even though
        # nothing improves its distance of zero.
        changed = improved | ((vids == self.source) & (iteration == 0))
        return new_vals, changed

    # Fused shapes: dist + w reduced with min per destination, then a
    # keep-the-improvement apply with the iteration-0 source seed.
    def gather_kernel_spec(self):
        return GatherSpec(kind="add_weight", reduce="min")

    def apply_kernel_spec(self):
        return ApplySpec(kind="min_improve", source=self.source)


class DeltaSSSP(GASProgram):
    """Delta-stepping SSSP (Meyer & Sanders): bucketed label correcting.

    Plain :class:`SSSP` relaxes every improvement immediately, so one
    long cheap path can drag wavefronts of corrections behind it. This
    variant *stores* every improvement but only propagates (marks
    changed, hence activates out-neighbors) vertices whose tentative
    distance falls inside the currently open bucket ``[0, threshold)``.
    When the frontier drains, :meth:`reseed_frontier` opens the bucket
    containing the smallest still-unpropagated finite distance and
    re-activates its vertices.

    Key invariant making one threshold (not a per-bucket queue) enough:
    a vertex whose distance *improves* is re-propagated regardless of
    the ledger, and an already-finite vertex can only improve to a value
    below the open threshold's bucket or be rediscovered later by
    reseed -- so no settled-too-early misses occur and the fixed point
    is the exact SSSP distance vector (bit-identical: both solve the
    same float32 min equations).

    ``pull_compatible = False``: propagation depends on the ledger, not
    only on improvement, so superset frontiers would propagate early.
    """

    name = "sssp-delta"
    gather_reduce = np.minimum
    gather_identity = np.inf
    needs_weights = True
    pull_compatible = False

    def __init__(self, source: int = 0, delta: float = 1.0):
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.source = source
        self.delta = float(delta)
        self._threshold = float(delta)
        self._propagated: np.ndarray | None = None

    def init_vertices(self, ctx):
        # Reset the bucket state so one program instance can be re-run.
        self._threshold = self.delta
        self._propagated = np.zeros(ctx.num_vertices, dtype=bool)
        vals = np.full(ctx.num_vertices, UNREACHED, dtype=self.vertex_dtype)
        vals[self.source] = 0.0
        return vals

    def init_frontier(self, ctx):
        return source_frontier(ctx, self.source)

    def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
        return src_vals + weights

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        candidate = np.where(has_gather, gathered, np.inf).astype(old_vals.dtype)
        improved = candidate < old_vals
        new_vals = np.where(improved, candidate, old_vals)
        # Propagate inside the open bucket: fresh improvements always,
        # reseeded (never-propagated) vertices once. Discoveries beyond
        # the threshold keep their value but stay silent until their
        # bucket opens.
        in_bucket = new_vals < self._threshold
        fresh = in_bucket & (improved | ~self._propagated[vids])
        fresh |= (vids == self.source) & (iteration == 0)
        self._propagated[vids[fresh]] = True
        return new_vals, fresh

    def reseed_frontier(self, ctx, values):
        pending = np.isfinite(values) & ~self._propagated
        if not pending.any():
            return None
        # Jump straight to the bucket holding the closest pending vertex
        # (skipping empty buckets) and re-activate everything in it.
        lo = float(values[pending].min())
        self._threshold = (np.floor(lo / self.delta) + 1.0) * self.delta
        return pending & (values < self._threshold)
