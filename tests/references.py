"""Pure-Python reference implementations for differential testing.

Each reference recomputes an algorithm's answer with plain loops over
the edge list -- no CSR/CSC, no shards, no frontier machinery -- so a
bug anywhere in the GraphReduce stack (layout, partitioning, movement
scheduling, fusion, frontier management, compute) shows up as a
divergence.

Float32 discipline: the engine does all PageRank/SSSP arithmetic in
float32, and frontier decisions (``|new - old| > tol``, ``cand < dist``)
depend on the exact rounded values. The references therefore accumulate
with ``np.float32`` scalars in the engine's reduction order (in-edges of
a vertex reduce in original edge-list order -- the stable CSC sort) so
results match bit for bit, not just approximately.
"""

from __future__ import annotations

import numpy as np

F32 = np.float32
INF = float("inf")


def _out_adjacency(edges):
    """out[v] = list of destination ids, original edge order."""
    out = [[] for _ in range(edges.num_vertices)]
    for u, v in zip(edges.src.tolist(), edges.dst.tolist()):
        out[u].append(v)
    return out


def _in_adjacency(edges, with_weights=False):
    """inn[v] = list of sources (or (src, weight)), original edge order."""
    inn = [[] for _ in range(edges.num_vertices)]
    if with_weights:
        for u, v, w in zip(
            edges.src.tolist(), edges.dst.tolist(), edges.weights.tolist()
        ):
            inn[v].append((u, w))
    else:
        for u, v in zip(edges.src.tolist(), edges.dst.tolist()):
            inn[v].append(u)
    return inn


def bfs_levels(edges, source: int) -> np.ndarray:
    """BFS depth over out-edges from ``source``; inf where unreached."""
    out = _out_adjacency(edges)
    depth = [INF] * edges.num_vertices
    depth[source] = 0.0
    queue = [source]
    level = 0
    while queue:
        level += 1
        nxt = []
        for u in queue:
            for v in out[u]:
                if depth[v] == INF:
                    depth[v] = float(level)
                    nxt.append(v)
        queue = nxt
    return np.array(depth, dtype=np.float32)


def sssp_distances(edges, source: int) -> np.ndarray:
    """Bellman-Ford to the float32 fixpoint.

    Relaxes every edge with float32 addition until nothing improves.
    The engine's label-correcting schedule reaches the same least
    fixpoint of the same monotone float32 operator, so distances agree
    exactly.
    """
    src = edges.src.tolist()
    dst = edges.dst.tolist()
    w = [F32(x) for x in edges.weights.tolist()]
    dist = [F32(INF)] * edges.num_vertices
    dist[source] = F32(0.0)
    changed = True
    while changed:
        changed = False
        for i in range(len(src)):
            cand = F32(dist[src[i]] + w[i])
            if cand < dist[dst[i]]:
                dist[dst[i]] = cand
                changed = True
    return np.array(dist, dtype=np.float32)


def pagerank(
    edges,
    damping: float = 0.85,
    tolerance: float = 1e-3,
    max_iterations: int = 200,
):
    """Frontier-tracked Jacobi PageRank, float32 throughout.

    Mirrors the GAS semantics exactly: every active vertex gathers
    ``rank(u) / max(outdeg(u), 1)`` over ALL its in-edges (values from
    the previous iteration -- BSP barriers make it Jacobi), applies
    ``(1 - damping) + damping * g``, and the next frontier is the
    out-neighbors of vertices whose rank moved more than ``tolerance``.

    The engine sums each vertex's contributions left to right in CSC
    order (stable, so original edge order), as this loop does, so the
    ranks match bit for bit, as do the iteration count and the
    per-iteration frontier sizes.

    Returns ``(ranks, iterations, frontier_sizes)``.
    """
    n = edges.num_vertices
    inn = _in_adjacency(edges)
    out = _out_adjacency(edges)
    outdeg = [F32(max(len(o), 1)) for o in out]
    base = F32(1.0 - damping)
    damp = F32(damping)
    tol = F32(tolerance)
    rank = [F32(1.0)] * n
    frontier = set(range(n))
    sizes = []
    iteration = 0
    while frontier and iteration < max_iterations:
        sizes.append(len(frontier))
        active = sorted(frontier)
        new_rank = list(rank)
        changed = []
        for v in active:
            if inn[v]:
                acc = F32(0.0)
                for u in inn[v]:  # original edge order == stable CSC order
                    acc = F32(acc + F32(rank[u] / outdeg[u]))
                g = acc
            else:
                g = F32(0.0)
            new = F32(base + F32(damp * g))
            if F32(abs(F32(new - rank[v]))) > tol:
                changed.append(v)
            new_rank[v] = new
        rank = new_rank
        frontier = {w for v in changed for w in out[v]}
        iteration += 1
    return np.array(rank, dtype=np.float32), iteration, sizes


def cc_labels(edges) -> np.ndarray:
    """Min-label fixpoint: label(v) = min vertex id with a directed path
    to v (v itself included). On symmetrized graphs this is the weakly
    connected component minimum."""
    n = edges.num_vertices
    out = _out_adjacency(edges)
    label = [None] * n
    for u in range(n):
        if label[u] is not None:
            # Some u' < u reaches u, hence everything u reaches too.
            continue
        stack = [u]
        label[u] = u
        while stack:
            x = stack.pop()
            for y in out[x]:
                if label[y] is None:
                    label[y] = u
                    stack.append(y)
    return np.array(label, dtype=np.float32)
