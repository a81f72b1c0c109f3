"""Multi-device scheduler tests (repro.core.multigpu).

The scheduler is a pure performance-plane rewrite: every device count
and frontier policy must reproduce the single-device values, iteration
count and convergence, while only the simulated time and replication
bytes change. The property tests pin the ownership invariants (every
shard has exactly one owner; the pairwise boundary sets are exactly the
crossing edges' sources).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.test_fastpath import PROGRAMS
from tests.fixture_graphs import build
from repro.algorithms import PageRank
from repro.core.multigpu import (
    MultiGPUGraphReduce,
    OwnershipMap,
    boundary_matrix,
    check_frontier_policy,
    owned_vertex_mask,
)
from repro.core.partition import PartitionEngine
from repro.core.runtime import GraphReduceOptions
from repro.graph.edgelist import EdgeList


# ----------------------------------------------------------------------
# Ownership properties
# ----------------------------------------------------------------------
@st.composite
def graphs_partitions_owners(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    vid = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(vid, min_size=m, max_size=m))
    dst = draw(st.lists(vid, min_size=m, max_size=m))
    p = draw(st.integers(min_value=1, max_value=8))
    owners = draw(st.integers(min_value=1, max_value=8))
    edges = EdgeList(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
    return edges, p, owners


@settings(max_examples=60)
@given(gpo=graphs_partitions_owners())
def test_every_shard_has_exactly_one_owner(gpo):
    edges, p, owners = gpo
    sharded = PartitionEngine().partition(edges, p)
    ownership = OwnershipMap.contiguous(sharded.num_partitions, owners)
    ownership.validate()
    claimed = [i for w in range(ownership.num_owners) for i in ownership.shards_of(w)]
    assert sorted(claimed) == list(range(sharded.num_partitions))
    # Each owner's shard run is an interval.
    for w in range(ownership.num_owners):
        ids = ownership.shards_of(w)
        assert ids == list(range(min(ids), max(ids) + 1)) if ids else True


@settings(max_examples=60, deadline=None)
@given(gpo=graphs_partitions_owners())
def test_boundary_matrix_matches_crossing_edges(gpo):
    """``matrix[(c, p)]`` is exactly the set of sources of edges that
    end in ``c``'s intervals and start in ``p``'s, read off the edge
    list directly."""
    edges, p, owners = gpo
    sharded = PartitionEngine().partition(edges, p)
    ownership = OwnershipMap.contiguous(sharded.num_partitions, owners)
    owner_of_vertex = np.empty(sharded.num_vertices, dtype=np.int64)
    for w in range(ownership.num_owners):
        owner_of_vertex[owned_vertex_mask(sharded, ownership, w)] = w
    expected = {}
    for u, v in zip(edges.src.tolist(), edges.dst.tolist()):
        c, p_ = int(owner_of_vertex[v]), int(owner_of_vertex[u])
        if c != p_:
            expected.setdefault((c, p_), set()).add(u)
    matrix = boundary_matrix(sharded, ownership)
    assert set(matrix) == set(expected)
    for pair, vids in matrix.items():
        assert vids.tolist() == sorted(expected[pair]), pair


def test_ownership_rejects_bad_maps():
    with pytest.raises(ValueError, match="invalid owner"):
        OwnershipMap(num_owners=2, owner_of=(0, 2)).validate()
    with pytest.raises(ValueError, match="at least one owner"):
        OwnershipMap(num_owners=0, owner_of=()).validate()
    with pytest.raises(ValueError, match="frontier_policy"):
        check_frontier_policy("broadcast")


# ----------------------------------------------------------------------
# Multi-device scheduler
# ----------------------------------------------------------------------
def test_multigpu_bit_identical_across_device_counts():
    g = build("er_mid")
    opts = GraphReduceOptions(num_partitions=4)
    make = PROGRAMS["pagerank"]
    base = MultiGPUGraphReduce(g, num_devices=1, options=opts).run(make())
    for n in (2, 4):
        for policy in ("replicated", "partitioned"):
            r = MultiGPUGraphReduce(
                g, num_devices=n, options=opts, frontier_policy=policy
            ).run(make())
            assert np.array_equal(r.vertex_values, base.vertex_values), (n, policy)
            assert r.iterations == base.iterations, (n, policy)
            assert r.converged == base.converged, (n, policy)
            assert r.frontier_policy == policy
            assert len(r.per_device) == n
            assert sum(d.owned_shards for d in r.per_device) == r.num_partitions
            assert sum(d.owned_vertices for d in r.per_device) == g.num_vertices
            total_sent = sum(d.bytes_sent for d in r.per_device)
            assert total_sent == r.replication_bytes
            assert r.p2p_bytes + r.host_staged_bytes == r.replication_bytes


def test_multigpu_partitioned_replication_is_sparser():
    g = build("er_mid")
    opts = GraphReduceOptions(num_partitions=4)
    make = PROGRAMS["pagerank"]
    rep = MultiGPUGraphReduce(
        g, num_devices=4, options=opts, frontier_policy="replicated"
    ).run(make())
    par = MultiGPUGraphReduce(
        g, num_devices=4, options=opts, frontier_policy="partitioned"
    ).run(make())
    assert np.array_equal(rep.vertex_values, par.vertex_values)
    assert par.replication_bytes <= rep.replication_bytes


def test_multigpu_routes_follow_switch_topology():
    g = build("er_mid")
    make = PROGRAMS["pagerank"]
    # 4 devices fit one radix-4 switch: every pair is peer-capable.
    within = MultiGPUGraphReduce(
        g, num_devices=4, options=GraphReduceOptions(num_partitions=4)
    ).run(make())
    assert within.p2p_bytes > 0
    assert within.host_staged_bytes == 0
    # 8 devices span two switches: cross-switch pairs stage via host.
    across = MultiGPUGraphReduce(
        g, num_devices=8, options=GraphReduceOptions(num_partitions=8)
    ).run(make())
    assert across.p2p_bytes > 0
    assert across.host_staged_bytes > 0


def test_multigpu_scales_from_one_to_eight_devices():
    """Simulated 1 -> 8 device scaling on the ``pagerank_er64k`` bench
    row's graph stays above 2x (deterministic sim: machine-independent)."""
    from repro.graph.generators import erdos_renyi

    g = erdos_renyi(65_536, 1_000_000, seed=7, name="er-64k")
    opts = GraphReduceOptions(
        cache_policy="never", num_partitions=8, observe=False, trace=False
    )
    make = lambda: PageRank(tolerance=None, max_iterations=25)
    one = MultiGPUGraphReduce(g, num_devices=1, options=opts).run(make())
    eight = MultiGPUGraphReduce(
        g, num_devices=8, options=opts, frontier_policy="partitioned"
    ).run(make())
    assert np.array_equal(one.vertex_values, eight.vertex_values)
    assert one.sim_time / eight.sim_time >= 2.0


def test_multigpu_rejects_bad_device_count():
    g = build("er_small")
    with pytest.raises(ValueError, match="num_devices"):
        MultiGPUGraphReduce(g, num_devices=0)
