"""Breadth-First Search.

Two formulations:

* :class:`BFS` -- the paper's apply-only form (Section 5.3): "BFS only
  requires users to define the apply phase, in which the BFS tree depth
  for every vertex is marked to be the iteration number." With neither
  gather nor scatter defined, the Phase Fusion Engine merges apply with
  FrontierActivate and eliminates all in-edge movement -- the biggest
  beneficiary of dynamic phase fusion/elimination.
* :class:`BFSGather` -- the conventional pull formulation (gather the
  min parent depth + 1), used by the ablation benchmarks to quantify
  what the fused form saves.

Vertex value: the BFS tree depth (UNREACHED = +inf until visited).
"""

from __future__ import annotations

import numpy as np

from repro.core.api import GASProgram, source_frontier
from repro.core.kernels import ApplySpec, GatherSpec

#: Depth marker for vertices not yet reached.
UNREACHED = np.float32(np.inf)


class BFS(GASProgram):
    """Apply-only BFS (depth = iteration number when first activated).

    Push-only (``pull_compatible`` stays False): apply treats activation
    itself as the signal -- every active unvisited vertex is stamped
    with the iteration number -- so running with a superset frontier
    would mark unreached vertices. Use :class:`BFSGather` when the
    runtime should be free to pull.
    """

    name = "bfs"
    gather_reduce = np.minimum
    gather_identity = np.inf

    def __init__(self, source: int = 0):
        self.source = source

    def init_vertices(self, ctx):
        # The source too starts UNREACHED; apply marks it with depth 0 on
        # iteration 0, which flags it "changed" and seeds FrontierActivate.
        return np.full(ctx.num_vertices, UNREACHED, dtype=self.vertex_dtype)

    def init_frontier(self, ctx):
        return source_frontier(ctx, self.source)

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        # A vertex enters the frontier only via FrontierActivate from a
        # changed neighbor, so "unvisited and active" means depth is the
        # current iteration number (source is iteration 0).
        unvisited = np.isinf(old_vals)
        new_vals = np.where(unvisited, np.float32(iteration), old_vals)
        return new_vals, unvisited

    def apply_kernel_spec(self):
        return ApplySpec(kind="mark_level")


class BFSGather(GASProgram):
    """Pull-style BFS: gather min(parent depth) + 1 over in-edges."""

    name = "bfs-gather"
    gather_reduce = np.minimum
    gather_identity = np.inf
    #: improvement-driven apply: extra active vertices whose in-
    #: neighbors did not improve gather no better candidate and stay
    #: unchanged, so the runtime may execute bottom-up iterations.
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
        return src_vals + np.float32(1.0)

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        candidate = np.where(has_gather, gathered, np.inf).astype(old_vals.dtype)
        if self.source in vids:
            # The source has no gathered depth on iteration 0; keep it.
            candidate[vids == self.source] = np.minimum(
                candidate[vids == self.source], old_vals[vids == self.source]
            )
        improved = candidate < old_vals
        new_vals = np.where(improved, candidate, old_vals)
        # The source must report "changed" once to seed FrontierActivate.
        changed = improved | ((vids == self.source) & (iteration == 0))
        return new_vals, changed

    # Fused shapes: depth + 1 reduced with min, then keep-the-improvement.
    # The source clamp above is outcome-neutral (every gathered candidate
    # is >= 1 > 0 = the source's depth, so ``improved`` is False at the
    # source either way); plain min_improve with the iteration-0 seed
    # reproduces apply() bit-for-bit.
    def gather_kernel_spec(self):
        return GatherSpec(kind="add_one", reduce="min")

    def apply_kernel_spec(self):
        return ApplySpec(kind="min_improve", source=self.source)
