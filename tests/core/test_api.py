"""GASProgram contract: phase detection, validation, UserInfoTuple."""

import numpy as np
import pytest

from repro.algorithms import BFS, BFSGather, SSSP, DeltaSSSP, PageRank, ConnectedComponents, SpMV
from repro.core.api import GASProgram
from repro.core.runtime import GraphReduce
from repro.graph.generators import path_graph


def test_phase_detection_bfs_apply_only():
    prog = BFS()
    assert not prog.has_gather
    assert not prog.has_scatter


def test_phase_detection_gather_algorithms():
    for prog in (SSSP(), PageRank(), ConnectedComponents()):
        assert prog.has_gather
        assert not prog.has_scatter


def test_user_info_tuple_contents():
    info = SSSP().user_info()
    assert info.gather is not None
    assert info.gather_reduce is np.minimum
    assert info.scatter is None
    assert info.vertex_dtype == np.float32
    assert info.edge_dtype is None


def test_user_info_tuple_bfs_elides_gather():
    info = BFS().user_info()
    assert info.gather is None
    assert info.gather_reduce is None


def test_validate_requires_apply():
    class NoApply(GASProgram):
        pass

    with pytest.raises(TypeError, match="apply"):
        NoApply().validate()


def test_validate_requires_ufunc_reduce():
    class BadReduce(GASProgram):
        gather_reduce = min  # not a ufunc -> cannot reduceat

        def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
            return src_vals

        def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
            return old_vals, np.zeros(len(vids), dtype=bool)

    with pytest.raises(TypeError, match="ufunc"):
        BadReduce().validate()


def test_paper_programs_validate():
    for prog in (BFS(), SSSP(), PageRank(), ConnectedComponents(), SpMV(np.zeros(3))):
        prog.validate()


def test_default_edge_state_is_none():
    class P(GASProgram):
        def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
            return old_vals, np.zeros(len(vids), dtype=bool)

    class Ctx:
        num_vertices = 4
        num_edges = 7

    assert P().init_edge_state(Ctx()) is None


def test_edge_state_allocated_when_typed():
    class P(GASProgram):
        edge_dtype = np.float32

        def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
            return old_vals, np.zeros(len(vids), dtype=bool)

    class Ctx:
        num_vertices = 4
        num_edges = 7

    state = P().init_edge_state(Ctx())
    assert state.shape == (7,)
    assert state.dtype == np.float32


@pytest.mark.parametrize("source", (-1, 6))
@pytest.mark.parametrize("make", (BFS, BFSGather, SSSP, DeltaSSSP))
def test_solo_source_outside_the_graph_is_rejected(make, source):
    # -1 used to wrap in init_vertices/init_frontier and "converge"
    # after one iteration; 6 raised a bare IndexError.
    with pytest.raises(ValueError, match=f"source {source} out of range .* 6 vertices"):
        GraphReduce(path_graph(6)).run(make(source=source))
