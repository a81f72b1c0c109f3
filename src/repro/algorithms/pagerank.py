"""PageRank under GAS (Section 2.1's worked example).

Gather: each active vertex accumulates ``rank(u) / out_degree(u)`` over
its in-edges, reduced with +. Apply: ``R = 0.15 + 0.85 * G`` (the paper
prints the constants swapped; we use the standard damping so ranks
converge to the usual stationary values). Scatter is empty -- out-edge
values never change -- so GR eliminates the phase.

A vertex stays in the frontier while its rank still moves more than
``tolerance``; the frontier therefore starts at |V| and decays
(Figure 3(b)/(16)), fastest on meshes like nlpkkt160.

``tolerance=None`` selects the classic *power iteration* formulation
instead: every vertex recomputes and broadcasts on every round
(``always_active``) for exactly ``max_iterations`` rounds. That is the
standard fixed-iteration PageRank benchmark shape (what GPU frameworks
time), and the steady state the host fast paths are built for -- the
active and changed sets are the full vertex set each iteration, so
gather/out plans are reused verbatim.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import GASProgram
from repro.core.kernels import ApplySpec, GatherSpec


class PageRank(GASProgram):
    name = "pagerank"
    gather_reduce = np.add
    gather_identity = 0.0

    def __init__(
        self,
        damping: float = 0.85,
        tolerance: float | None = 1e-3,
        max_iterations: int = 200,
    ):
        self.damping = np.float32(damping)
        self.base = np.float32(1.0 - damping)
        self.tolerance = None if tolerance is None else np.float32(tolerance)
        self.max_iterations = max_iterations
        # Power iteration: the whole vertex set is active every round.
        self.always_active = tolerance is None
        # Lazily built float32 out-degree table (see gather_map).
        self._deg32 = None
        self._deg32_ctx = None

    def init_vertices(self, ctx):
        return np.full(ctx.num_vertices, 1.0, dtype=self.vertex_dtype)

    def init_frontier(self, ctx):
        return np.ones(ctx.num_vertices, dtype=bool)

    def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
        # Convert the out-degree table to float32 once per run instead of
        # per call: max(float32(d), 1) gathered per edge is bit-identical
        # to gathering d then converting. Rebuilding on a ctx change
        # produces the same table.
        deg = self._deg32
        if deg is None or self._deg32_ctx is not ctx:
            deg = np.maximum(ctx.out_degrees.astype(np.float32), 1.0)
            self._deg32, self._deg32_ctx = deg, ctx
        return src_vals / np.take(deg, src_ids)

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        g = np.where(has_gather, gathered, np.float32(0.0)).astype(old_vals.dtype)
        new_vals = self.base + self.damping * g
        if self.tolerance is None:
            changed = np.ones(len(vids), dtype=bool)
        else:
            changed = np.abs(new_vals - old_vals) > self.tolerance
        return new_vals, changed

    def converged(self, ctx, iteration, frontier_size):
        return iteration >= self.max_iterations

    # Fused shapes: rank/deg summed per destination, then an affine
    # update -- the same float32 ops apply() performs, in the same order.
    def gather_kernel_spec(self):
        return GatherSpec(kind="div_degree", reduce="add")

    def apply_kernel_spec(self):
        if self.tolerance is None:
            return ApplySpec(kind="affine", base=float(self.base),
                             scale=float(self.damping), changed_mode="all")
        return ApplySpec(kind="affine", base=float(self.base),
                         scale=float(self.damping), tol=float(self.tolerance),
                         changed_mode="tol")
