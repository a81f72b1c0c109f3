"""Vertex relabeling / graph reordering.

Section 4.2 notes that GraphReduce "is able to take any user-provided
partitioning logic as a plugin"; reordering the vertex ids is the
classic preprocessing that makes interval partitions meaningful --
BFS order groups topologically close vertices into the same shard
(raising X-Stream-style partition locality and shard-skip rates on
road/mesh graphs), degree order concentrates hubs.

All orders return a permutation ``order`` with ``order[new_id] ==
old_id`` plus helpers to apply and invert it, so algorithm results map
back to the original ids losslessly (property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import build_csr, stable_order
from repro.graph.edgelist import EdgeList, VID_DTYPE


def bfs_order(edges: EdgeList, source: int = 0) -> np.ndarray:
    """Breadth-first visitation order; unreached vertices follow in id

    order. Groups each BFS level contiguously."""
    n = edges.num_vertices
    csr = build_csr(edges)
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    count = 0
    frontier = np.array([source], dtype=np.int64)
    seen[source] = True
    while len(frontier):
        order[count : count + len(frontier)] = frontier
        count += len(frontier)
        starts = csr.indptr[frontier]
        lengths = csr.indptr[frontier + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            break
        base = np.repeat(np.cumsum(lengths) - lengths, lengths)
        pos = np.repeat(starts, lengths) + np.arange(total) - base
        nxt = np.unique(csr.indices[pos])
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt.astype(np.int64)
    rest = np.flatnonzero(~seen)
    order[count : count + len(rest)] = rest
    return order


def degree_order(edges: EdgeList, descending: bool = True) -> np.ndarray:
    """Vertices sorted by total degree (hubs first by default)."""
    deg = edges.out_degrees() + edges.in_degrees()
    order = stable_order(deg)
    return order[::-1].copy() if descending else order


def random_order(edges: EdgeList, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).permutation(edges.num_vertices)


def apply_order(edges: EdgeList, order: np.ndarray) -> tuple[EdgeList, np.ndarray]:
    """Relabel so old vertex ``order[i]`` becomes new vertex ``i``.

    Returns ``(relabeled, new_id_of)`` where ``new_id_of[old] == new``.
    """
    n = edges.num_vertices
    order = np.asarray(order)
    if sorted(order.tolist()) != list(range(n)):
        raise ValueError("order must be a permutation of all vertex ids")
    new_id_of = np.empty(n, dtype=np.int64)
    new_id_of[order] = np.arange(n)
    out = EdgeList(
        n,
        new_id_of[edges.src].astype(VID_DTYPE),
        new_id_of[edges.dst].astype(VID_DTYPE),
        None if edges.weights is None else edges.weights.copy(),
        undirected=edges.undirected,
        name=f"{edges.name}-relabeled",
    )
    return out, new_id_of


def unmap_values(values: np.ndarray, new_id_of: np.ndarray) -> np.ndarray:
    """Vertex values computed on the relabeled graph, in original-id

    order: ``unmap_values(v, m)[old] == v[m[old]]``."""
    return np.asarray(values)[new_id_of]


def partition_locality(edges: EdgeList, num_partitions: int) -> float:
    """Fraction of edges whose endpoints share an interval partition --

    the metric reordering improves."""
    if edges.num_edges == 0:
        return 1.0
    n = edges.num_vertices
    bounds = np.linspace(0, n, num_partitions + 1).astype(np.int64)
    part = np.searchsorted(bounds, np.arange(n), side="right") - 1
    return float(np.count_nonzero(part[edges.src] == part[edges.dst])) / edges.num_edges
