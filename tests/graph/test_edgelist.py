"""EdgeList construction, validation and transformations."""

import numpy as np
import pytest

from repro.graph.edgelist import EdgeList


def test_from_pairs_infers_vertex_count():
    g = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)])
    assert g.num_vertices == 3
    assert g.num_edges == 3


def test_empty_graph():
    g = EdgeList.from_pairs([], num_vertices=5)
    assert g.num_edges == 0
    assert g.out_degrees().tolist() == [0] * 5


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError):
        EdgeList.from_pairs([(0, 3)], num_vertices=3)
    with pytest.raises(ValueError):
        EdgeList(2, np.array([-1]), np.array([0]))


def test_wide_id_is_range_checked_before_narrowing():
    # 2**32 + 1 wraps to 1 under an int32 cast: checked after narrowing
    # it would pass as the edge 1 -> 2.
    with pytest.raises(ValueError, match=rf"\[0, {2**32 + 1}\]"):
        EdgeList(3, np.array([0, 2**32 + 1]), np.array([1, 2]))
    with pytest.raises(ValueError, match=rf"\[0, {2**31}\]"):
        EdgeList(3, np.array([0, 1]), np.array([1, 2**31]))


def test_in_range_int64_ids_are_narrowed():
    g = EdgeList(3, np.array([0, 2], dtype=np.int64), np.array([1, 2], dtype=np.int64))
    assert g.src.dtype == g.dst.dtype == np.int32
    assert g.src.tolist() == [0, 2] and g.dst.tolist() == [1, 2]


def test_mismatched_arrays_rejected():
    with pytest.raises(ValueError):
        EdgeList(3, np.array([0, 1]), np.array([1]))
    with pytest.raises(ValueError):
        EdgeList(3, np.array([0]), np.array([1]), weights=np.array([1.0, 2.0]))


def test_degrees():
    g = EdgeList.from_pairs([(0, 1), (0, 2), (1, 2)])
    assert g.out_degrees().tolist() == [2, 1, 0]
    assert g.in_degrees().tolist() == [0, 1, 2]


def test_symmetrized_doubles_and_marks_undirected():
    g = EdgeList.from_pairs([(0, 1), (1, 2)])
    s = g.symmetrized()
    assert s.undirected
    assert s.num_edges == 4
    pairs = set(zip(s.src.tolist(), s.dst.tolist()))
    assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_symmetrized_dedups_existing_reverse():
    g = EdgeList.from_pairs([(0, 1), (1, 0)])
    assert g.symmetrized().num_edges == 2


def test_deduplicated_removes_self_loops_and_parallels():
    g = EdgeList.from_pairs([(0, 1), (0, 1), (1, 1), (1, 2)])
    d = g.deduplicated()
    assert d.num_edges == 2
    pairs = set(zip(d.src.tolist(), d.dst.tolist()))
    assert pairs == {(0, 1), (1, 2)}


def test_deduplicated_keeps_first_weight():
    g = EdgeList.from_pairs([(0, 1), (0, 1)], weights=[5.0, 9.0])
    d = g.deduplicated()
    assert d.weights.tolist() == [5.0]


def test_unit_and_random_weights():
    g = EdgeList.from_pairs([(0, 1), (1, 2)])
    assert g.with_unit_weights().weights.tolist() == [1.0, 1.0]
    w = g.with_random_weights(low=1.0, high=10.0, seed=3).weights
    assert np.all(w >= 1.0) and np.all(w < 10.0)
    w2 = g.with_random_weights(low=1.0, high=10.0, seed=3).weights
    assert np.array_equal(w, w2)  # deterministic


def test_permuted_preserves_multiset():
    g = EdgeList.from_pairs([(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.0, 3.0])
    p = g.permuted(seed=1)
    orig = sorted(zip(g.src.tolist(), g.dst.tolist(), g.weights.tolist()))
    perm = sorted(zip(p.src.tolist(), p.dst.tolist(), p.weights.tolist()))
    assert orig == perm


def test_dtypes_are_compact():
    g = EdgeList.from_pairs([(0, 1)], weights=[1.0])
    assert g.src.dtype == np.int32
    assert g.weights.dtype == np.float32
