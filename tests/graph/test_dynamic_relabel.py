"""Vertex relabeling (repro.graph.relabel)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ConnectedComponents
from repro.core.runtime import GraphReduce
from repro.graph.edgelist import EdgeList
from repro.graph.generators import erdos_renyi, mesh2d, rmat, road_network
from repro.graph.relabel import (
    apply_order,
    bfs_order,
    degree_order,
    partition_locality,
    random_order,
    unmap_values,
)


class TestRelabel:
    def test_apply_order_roundtrip(self):
        g = erdos_renyi(60, 200, seed=9)
        order = random_order(g, seed=10)
        relabeled, new_id_of = apply_order(g, order)
        # Every original edge exists under new ids.
        orig = set(zip(g.src.tolist(), g.dst.tolist()))
        new = set(zip(relabeled.src.tolist(), relabeled.dst.tolist()))
        assert {(new_id_of[s], new_id_of[d]) for s, d in orig} == new

    def test_invalid_order_rejected(self):
        g = erdos_renyi(10, 20, seed=11)
        with pytest.raises(ValueError):
            apply_order(g, np.zeros(10, dtype=np.int64))

    def test_unmap_values_inverts(self):
        g = erdos_renyi(40, 150, seed=12).symmetrized()
        order = degree_order(g)
        relabeled, new_id_of = apply_order(g, order)
        labels_new = GraphReduce(relabeled).run(ConnectedComponents()).vertex_values
        labels_orig = GraphReduce(g).run(ConnectedComponents()).vertex_values
        mapped = unmap_values(labels_new, new_id_of)
        # Component *partitions* agree (label values differ by naming).
        for e in range(g.num_edges):
            u, v = int(g.src[e]), int(g.dst[e])
            assert (mapped[u] == mapped[v]) == (labels_orig[u] == labels_orig[v])

    def test_bfs_order_visits_levels_contiguously(self):
        g = mesh2d(6, 6)
        order = bfs_order(g, source=0)
        assert sorted(order.tolist()) == list(range(36))
        assert order[0] == 0
        # Neighbors of the source come right after it.
        first = set(order[1:3].tolist())
        assert first == {1, 6}

    def test_degree_order_puts_hubs_first(self):
        g = rmat(9, 3000, seed=13)
        order = degree_order(g)
        deg = g.out_degrees() + g.in_degrees()
        assert deg[order[0]] == deg.max()

    def test_bfs_order_improves_road_locality(self):
        g = road_network(40, 40, 60, seed=14)
        shuffled, _ = apply_order(g, random_order(g, seed=15))
        reordered, _ = apply_order(shuffled, bfs_order(shuffled, source=0))
        assert partition_locality(reordered, 16) > partition_locality(shuffled, 16)

    def test_partition_locality_bounds(self):
        g = erdos_renyi(50, 200, seed=16)
        loc = partition_locality(g, 8)
        assert 0.0 <= loc <= 1.0
        empty = EdgeList.from_pairs([], num_vertices=4)
        assert partition_locality(empty, 2) == 1.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_relabeling_preserves_bfs_distances(self, seed):
        from repro.algorithms import BFS

        g = erdos_renyi(50, 180, seed=seed)
        order = random_order(g, seed=seed + 1)
        relabeled, new_id_of = apply_order(g, order)
        d_orig = GraphReduce(g).run(BFS(source=0)).vertex_values
        d_new = GraphReduce(relabeled).run(BFS(source=int(new_id_of[0]))).vertex_values
        assert np.array_equal(unmap_values(d_new, new_id_of), d_orig)
