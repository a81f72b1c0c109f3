"""Degenerate graphs through every runtime configuration.

The existing edge-case suite covers default options; this matrix locks
in that empty, single-vertex and all-self-loop graphs produce the same
(reference-checked) answers under every optimization combination --
unoptimized baseline, gather fusion, SSD host backing, and
observability off.
"""

import numpy as np
import pytest

from repro.algorithms import BFS, ConnectedComponents, PageRank, SSSP
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.graph.edgelist import EdgeList

OPTION_SETS = {
    "default": GraphReduceOptions(),
    "unoptimized": GraphReduceOptions.unoptimized(),
    "fuse_gather": GraphReduceOptions(fuse_gather=True),
    "ssd_backed": GraphReduceOptions(host_backing="ssd", cache_policy="never"),
    "no_observe": GraphReduceOptions(observe=False, trace=False),
}

GRAPHS = {
    "empty0": lambda: EdgeList.from_pairs([], num_vertices=0),
    "empty7": lambda: EdgeList.from_pairs([], num_vertices=7),
    "single": lambda: EdgeList.from_pairs([], num_vertices=1),
    "single_loop": lambda: EdgeList.from_pairs([(0, 0)], num_vertices=1),
    "all_self_loops": lambda: EdgeList.from_pairs(
        [(i, i) for i in range(5)], num_vertices=5
    ),
}

pytestmark = pytest.mark.parametrize("opts_name", sorted(OPTION_SETS))


def run(graph_name, opts_name, program):
    g = GRAPHS[graph_name]()
    if program.needs_weights and g.weights is None:
        g = g.with_unit_weights()
    return GraphReduce(g, options=OPTION_SETS[opts_name]).run(program)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_bfs(graph_name, opts_name):
    if graph_name == "empty0":
        pytest.skip("BFS needs a source vertex")
    r = run(graph_name, opts_name, BFS(source=0))
    assert r.converged
    n = len(r.vertex_values)
    # Depth 0 at the source (self-loops add no depth), inf elsewhere.
    assert r.vertex_values[0] == 0.0
    assert np.isinf(r.vertex_values[1:]).all()
    assert n == GRAPHS[graph_name]().num_vertices


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_sssp(graph_name, opts_name):
    if graph_name == "empty0":
        pytest.skip("SSSP needs a source vertex")
    r = run(graph_name, opts_name, SSSP(source=0))
    assert r.converged
    assert r.vertex_values[0] == 0.0
    assert np.isinf(r.vertex_values[1:]).all()


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_pagerank(graph_name, opts_name):
    r = run(graph_name, opts_name, PageRank())
    assert r.converged
    n = len(r.vertex_values)
    if graph_name in ("single_loop", "all_self_loops"):
        # Every vertex keeps its whole rank: x = 0.15 + 0.85 * x -> 1.
        np.testing.assert_allclose(r.vertex_values, np.ones(n), atol=2e-3)
    else:
        # No in-edges anywhere: ranks settle at the base 0.15.
        np.testing.assert_allclose(
            r.vertex_values, np.full(n, 0.15), atol=1e-6
        )


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_cc(graph_name, opts_name):
    r = run(graph_name, opts_name, ConnectedComponents())
    assert r.converged
    n = len(r.vertex_values)
    # Self-loops connect nothing: every vertex is its own component.
    assert np.array_equal(r.vertex_values, np.arange(n, dtype=np.float32))


def test_empty_graph_zero_iterations_stats(opts_name):
    """A 7-vertex empty graph converges with sane accounting."""
    r = run("empty7", opts_name, ConnectedComponents())
    assert r.converged
    assert r.stats.shards_processed >= 0
    assert r.sim_time >= 0.0
    if OPTION_SETS[opts_name].observe:
        (root,) = r.observer.roots
        assert root.attrs["converged"]
