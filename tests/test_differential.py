"""Differential tests: GraphReduce vs the pure-Python references.

Every fixture graph runs BFS, SSSP, PageRank and ConnectedComponents
through the full engine (partitioning, movement, fusion, frontier
management) and must agree with the loop-and-dict references in
``tests/references.py`` -- exactly, because the references reproduce the
engine's float32 rounding and reduction order.
"""

import numpy as np
import pytest

from tests import references
from tests.fixture_graphs import FIXTURE_NAMES, build
from repro.algorithms import BFS, ConnectedComponents, PageRank, SSSP
from repro.core.runtime import GraphReduce

pytestmark = pytest.mark.parametrize("graph_name", FIXTURE_NAMES)


def _mismatch(engine: np.ndarray, ref: np.ndarray) -> str:
    bad = np.flatnonzero(~((engine == ref) | (np.isinf(engine) & np.isinf(ref))))
    head = ", ".join(
        f"v{int(i)}: engine={engine[i]!r} ref={ref[i]!r}" for i in bad[:5]
    )
    return f"{len(bad)} vertices disagree ({head})"


def test_bfs_matches_reference(graph_name):
    g = build(graph_name)
    result = GraphReduce(g).run(BFS(source=0))
    expected = references.bfs_levels(g, source=0)
    assert np.array_equal(result.vertex_values, expected), _mismatch(
        result.vertex_values, expected
    )
    assert result.converged


def test_sssp_matches_reference(graph_name):
    g = build(graph_name).with_random_weights(seed=21)
    result = GraphReduce(g).run(SSSP(source=0))
    expected = references.sssp_distances(g, source=0)
    assert np.array_equal(result.vertex_values, expected), _mismatch(
        result.vertex_values, expected
    )
    assert result.converged


def test_pagerank_matches_reference(graph_name):
    g = build(graph_name)
    result = GraphReduce(g).run(PageRank(tolerance=1e-3))
    expected, ref_iters, ref_sizes = references.pagerank(g, tolerance=1e-3)
    # Both sum each in-edge segment left to right: bits and trajectory match.
    assert result.iterations == ref_iters
    assert result.frontier_history[:ref_iters] == ref_sizes
    assert result.vertex_values.tobytes() == np.asarray(expected, dtype=np.float32).tobytes()


def test_cc_matches_reference(graph_name):
    g = build(graph_name)
    result = GraphReduce(g).run(ConnectedComponents())
    expected = references.cc_labels(g)
    assert np.array_equal(result.vertex_values, expected), _mismatch(
        result.vertex_values, expected
    )
    assert result.converged
