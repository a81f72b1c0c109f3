"""Betweenness centrality via Brandes' algorithm, staged on GraphReduce.

A non-trivial composition of GAS programs -- exactly the kind of
"data mining / machine learning" pipeline the paper says programmers
should be able to assemble from sequential-looking pieces (Section 4.1):

1. **Depths**: a BFS from the source (levels of the shortest-path DAG).
2. **Path counts** (:class:`SigmaPhase`): level-synchronous forward
   sweep; a vertex at depth d gathers the sigma of in-neighbors at
   depth d-1 (edges of the shortest-path DAG) and fixes its own count
   exactly at iteration d, so the frontier mechanics enforce Brandes'
   level order for free.
3. **Dependencies** (:class:`DeltaPhase`): the backward accumulation
   runs on the *transposed* graph, so "gather over my out-edges" is
   again an in-edge gather; a vertex at depth d accepts its delta at
   iteration (max_depth - d), summing sigma_v / sigma_w * (1 + delta_w)
   over its DAG children w.

``betweenness_centrality`` drives the three stages per source and
accumulates deltas; validated against networkx on directed graphs.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import BFS
from repro.core.api import GASProgram, source_frontier
from repro.core.runtime import GraphReduce
from repro.graph.edgelist import EdgeList


class SigmaPhase(GASProgram):
    """Shortest-path counts over a fixed BFS level structure."""

    name = "brandes-sigma"
    gather_reduce = np.add
    gather_identity = 0.0

    def __init__(self, source: int, depths: np.ndarray):
        self.source = source
        self.depths = np.asarray(depths)

    def init_vertices(self, ctx):
        sigma = np.zeros(ctx.num_vertices, dtype=self.vertex_dtype)
        sigma[self.source] = 1.0
        return sigma

    def init_frontier(self, ctx):
        return source_frontier(ctx, self.source)

    def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
        # Only DAG edges (parent one level up) contribute path counts.
        on_dag = self.depths[src_ids] + 1 == self.depths[dst_ids]
        return np.where(on_dag, src_vals, np.float32(0.0))

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        # A vertex's count becomes final exactly at its own BFS level.
        at_level = self.depths[vids] == iteration
        if iteration == 0:
            # The source is final immediately and must propagate.
            return old_vals, at_level
        g = np.where(has_gather, gathered, np.float32(0.0)).astype(old_vals.dtype)
        new_vals = np.where(at_level, g, old_vals)
        return new_vals, at_level & (new_vals > 0)


class DeltaPhase(GASProgram):
    """Backward dependency accumulation (runs on the transposed graph).

    Level-scheduled rather than change-driven: a zero-dependency leaf in
    the middle of the DAG never *changes*, yet its parents' sums still
    need it finalized on time -- so the phase declares ``always_active``
    and terminates by level count.
    """

    name = "brandes-delta"
    gather_reduce = np.add
    gather_identity = 0.0
    always_active = True

    def __init__(self, depths: np.ndarray, sigma: np.ndarray, max_depth: int):
        self.depths = np.asarray(depths)
        self.sigma = np.asarray(sigma)
        self.max_depth = int(max_depth)

    def init_vertices(self, ctx):
        return np.zeros(ctx.num_vertices, dtype=self.vertex_dtype)

    def init_frontier(self, ctx):
        return np.ones(ctx.num_vertices, dtype=bool)

    def converged(self, ctx, iteration, frontier_size):
        # Level max_depth finalizes at iteration 0; level 1 (the
        # source's children) at max_depth - 1.
        return iteration > self.max_depth

    def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
        # Transposed graph: src is the DAG *child* w (one level deeper in
        # the original); its delta is src_vals.
        child_depth = self.depths[src_ids]
        on_dag = child_depth == self.depths[dst_ids] + 1
        sigma_w = self.sigma[src_ids]
        sigma_v = self.sigma[dst_ids]
        contrib = np.where(
            on_dag & (sigma_w > 0),
            sigma_v / np.maximum(sigma_w, 1.0) * (1.0 + src_vals),
            np.float32(0.0),
        )
        return contrib.astype(np.float32)

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        # Level max_depth finalizes at iteration 0, max_depth-1 at 1, ...
        at_level = self.depths[vids] == self.max_depth - iteration
        reachable = np.isfinite(self.depths[vids])
        final = at_level & reachable
        g = np.where(has_gather, gathered, np.float32(0.0)).astype(old_vals.dtype)
        new_vals = np.where(final, g, old_vals)
        return new_vals, final


def betweenness_centrality(
    edges: EdgeList,
    sources=None,
    engine_factory=None,
) -> np.ndarray:
    """Unnormalized betweenness over shortest paths from ``sources``

    (all vertices by default -- exact Brandes; a sample gives the usual
    approximation). ``engine_factory(graph)`` builds the executor per
    stage, defaulting to :class:`GraphReduce`; every stage therefore
    runs through the paper's out-of-core machinery.
    """
    if engine_factory is None:
        engine_factory = GraphReduce
    n = edges.num_vertices
    if sources is None:
        sources = range(n)
    transposed = EdgeList(
        n, edges.dst, edges.src, edges.weights, edges.undirected, f"{edges.name}-T"
    )
    forward_engine = engine_factory(edges)
    backward_engine = engine_factory(transposed)
    centrality = np.zeros(n, dtype=np.float64)
    for source in sources:
        depths = forward_engine.run(BFS(source=source)).vertex_values
        reached = np.isfinite(depths)
        if reached.sum() <= 1:
            continue
        max_depth = int(depths[reached].max())
        sigma = forward_engine.run(SigmaPhase(source, depths)).vertex_values
        delta = backward_engine.run(
            DeltaPhase(depths, sigma, max_depth)
        ).vertex_values
        delta = np.where(reached, delta, 0.0)
        delta[source] = 0.0
        centrality += delta
    return centrality
