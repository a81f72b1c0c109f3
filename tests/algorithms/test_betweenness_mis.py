"""Betweenness centrality and maximal independent set correctness."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import MaximalIndependentSet, betweenness_centrality
from repro.algorithms.betweenness import SigmaPhase
from repro.algorithms.bfs import BFS, BFSGather
from repro.algorithms.sssp import SSSP, DeltaSSSP
from repro.core.runtime import GraphReduce
from repro.graph.edgelist import EdgeList
from repro.graph.generators import erdos_renyi, mesh2d, path_graph, star_graph


@pytest.mark.parametrize("source", (-1, 6))
@pytest.mark.parametrize(
    "make",
    (BFS, BFSGather, SSSP, DeltaSSSP, lambda source: SigmaPhase(source, np.zeros(6))),
)
def test_solo_source_outside_the_graph_is_rejected(make, source):
    # -1 used to wrap in init_vertices/init_frontier and "converge"
    # after one iteration; 6 raised a bare IndexError.
    with pytest.raises(ValueError, match=f"source {source} out of range .* 6 vertices"):
        GraphReduce(path_graph(6)).run(make(source=source))


class TestSigmaPhase:
    def test_path_counts_on_diamond(self):
        # 0 -> {1, 2} -> 3: two shortest paths to 3.
        g = EdgeList.from_pairs([(0, 1), (0, 2), (1, 3), (2, 3)], num_vertices=4)
        depths = GraphReduce(g).run(BFS(source=0)).vertex_values
        sigma = GraphReduce(g).run(SigmaPhase(0, depths)).vertex_values
        assert sigma.tolist() == [1.0, 1.0, 1.0, 2.0]

    def test_matches_networkx_counts(self):
        g = erdos_renyi(60, 240, seed=61)
        depths = GraphReduce(g).run(BFS(source=0)).vertex_values
        sigma = GraphReduce(g).run(SigmaPhase(0, depths)).vertex_values
        G = nx.DiGraph(zip(g.src.tolist(), g.dst.tolist()))
        G.add_nodes_from(range(60))
        # networkx: count shortest paths via all_shortest_paths per target
        for v in range(60):
            if v == 0 or not np.isfinite(depths[v]):
                continue
            want = len(list(nx.all_shortest_paths(G, 0, v)))
            assert sigma[v] == want, v


class TestBetweenness:
    @pytest.mark.parametrize("make_graph", [
        lambda: erdos_renyi(40, 160, seed=62),
        lambda: path_graph(12),
        lambda: star_graph(10),
        lambda: mesh2d(5, 5),
    ])
    def test_matches_networkx(self, make_graph):
        g = make_graph()
        got = betweenness_centrality(g)
        G = nx.DiGraph(zip(g.src.tolist(), g.dst.tolist()))
        G.add_nodes_from(range(g.num_vertices))
        want_dict = nx.betweenness_centrality(G, normalized=False)
        want = np.array([want_dict[v] for v in range(g.num_vertices)])
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_sampled_sources_subset(self):
        g = erdos_renyi(50, 200, seed=63)
        full = betweenness_centrality(g)
        sample = betweenness_centrality(g, sources=range(10))
        assert np.all(sample <= full + 1e-6)

    def test_isolated_source_contributes_nothing(self):
        g = EdgeList.from_pairs([(1, 2)], num_vertices=4)
        got = betweenness_centrality(g, sources=[0, 3])
        assert np.allclose(got, 0.0)


class TestMIS:
    def check_mis(self, g, members):
        member_set = set(members.tolist())
        adj = {}
        for s, d in zip(g.src.tolist(), g.dst.tolist()):
            adj.setdefault(s, set()).add(d)
        # Independence: no edge inside the set.
        for v in member_set:
            assert not (adj.get(v, set()) & member_set), v
        # Maximality: every non-member has a member neighbor.
        for v in range(g.num_vertices):
            if v not in member_set:
                neighbors = adj.get(v, set())
                assert neighbors & member_set or not neighbors, v

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_mis_on_random_graph(self, seed):
        g = erdos_renyi(120, 500, seed=70 + seed).symmetrized()
        prog = MaximalIndependentSet(seed=seed)
        r = GraphReduce(g).run(prog)
        assert r.converged
        self.check_mis(g, prog.members(r.vertex_values))

    def test_isolated_vertices_join(self):
        g = EdgeList.from_pairs([(0, 1)], num_vertices=4).symmetrized()
        prog = MaximalIndependentSet()
        r = GraphReduce(g).run(prog)
        members = set(prog.members(r.vertex_values).tolist())
        assert {2, 3} <= members  # isolated vertices are always in
        assert len({0, 1} & members) == 1

    def test_mesh_mis(self):
        g = mesh2d(8, 8)
        prog = MaximalIndependentSet(seed=5)
        r = GraphReduce(g).run(prog)
        members = prog.members(r.vertex_values)
        self.check_mis(g, members)
        # A grid MIS covers at least ~1/5 of the vertices.
        assert len(members) >= g.num_vertices // 5

    def test_deterministic_under_seed(self):
        g = erdos_renyi(80, 300, seed=80).symmetrized()
        a = GraphReduce(g).run(MaximalIndependentSet(seed=3)).vertex_values
        b = GraphReduce(g).run(MaximalIndependentSet(seed=3)).vertex_values
        assert np.array_equal(a, b)
