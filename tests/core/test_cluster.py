"""Ownership-partitioned pool and multi-device scheduler tests.

The partitioned-ownership layers (repro.core.ownership feeding both the
``cluster`` worker pool and the multi-device scheduler) are pure
performance-plane rewrites: every configuration must stay bit-identical
to serial execution -- values, frontier trajectory, simulated timeline,
kernel censuses -- while each worker holds only its owned shard slice.
The property tests pin the ownership invariants (every shard exactly one
owner; the in/out boundary sets describe the same crossing edges), and
the crash test covers the hard guarantee: a SIGKILLed worker degrades to
a serial re-run with a warning, an unchanged result, and no leaked
shared memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.test_fastpath import PROGRAMS, STABLE_FRONTIER
from tests.core.test_procpool import (
    MATRIX,
    CrashyPageRank,
    _assert_identical,
    _shm_entries,
    matrix_cases,
)
from tests.fixture_graphs import build
from repro.algorithms import PageRank
from repro.core.multigpu import MultiGPUGraphReduce
from repro.core.ownership import (
    OwnershipMap,
    boundary_matrix,
    boundary_sets,
    check_frontier_policy,
    owned_vertex_mask,
)
from repro.core.partition import PartitionEngine
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.core.shardstore import ShardStore
from repro.graph.edgelist import EdgeList


def _cluster(workers, policy="replicated", **kw):
    return GraphReduceOptions(
        parallel_shards=workers,
        parallel_backend="cluster",
        frontier_policy=policy,
        **kw,
    )


# ----------------------------------------------------------------------
# Equivalence matrix: bit-identical to serial
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workers,policy",
    [
        (1, "replicated"),
        (2, "replicated"),
        (2, "partitioned"),
        (4, "partitioned"),
    ],
)
def test_cluster_matches_serial_in_ram(workers, policy):
    # The full program matrix runs at the common 2-worker shape; the
    # 1-worker (degenerate single-owner) and 4-worker (one shard per
    # owner) shapes re-check the traversal + fixpoint corners.
    algos = MATRIX if workers == 2 else ("bfs", "pagerank")
    before = _shm_entries()
    for algo, graph, make in matrix_cases(algos):
        serial = GraphReduce(
            graph, options=GraphReduceOptions(num_partitions=4, parallel_backend="serial")
        ).run(make())
        pool = GraphReduce(
            graph, options=_cluster(workers, policy, num_partitions=4)
        ).run(make())
        label = f"{algo}/w{workers}/{policy}"
        _assert_identical(label, pool, serial)
        pp = pool.procpool
        assert pp["frontier_policy"] == policy, label
        assert sum(pp["owned_shards"]) == 4, label
        assert len(pp["worker_resident_bytes"]) == pp["workers"], label
        assert pp["single_process_bytes"] > 0, label
        assert pp["boundary_bytes_sent"] > 0, label
    assert _shm_entries() == before  # every segment unlinked on exit


def test_cluster_matches_serial_store_backed(tmp_path):
    g = build("er_mid")
    weighted = g.with_random_weights(seed=33)
    stable = build(STABLE_FRONTIER[0])
    for workers, policy, label, graph, algo in (
        (2, "replicated", "plain", g, "bfs"),
        (2, "partitioned", "plain", g, "pagerank"),
        (4, "partitioned", "plain", g, "cc"),
        (2, "replicated", "weighted", weighted, "stamping_sssp"),
        (2, "partitioned", "weighted", weighted, "stamping_sssp"),
        (2, "replicated", "stable", stable, STABLE_FRONTIER[1]),
        (2, "partitioned", "stable", stable, STABLE_FRONTIER[1]),
    ):
        store = ShardStore.save(
            PartitionEngine().partition(graph, 4),
            tmp_path / f"{label}-{algo}-{workers}-{policy}",
        )
        make = PROGRAMS[algo]
        serial = GraphReduce(
            graph, options=GraphReduceOptions(num_partitions=4, parallel_backend="serial")
        ).run(make())
        pool = GraphReduce(
            shard_store=store, options=_cluster(workers, policy)
        ).run(make())
        _assert_identical(f"store/{algo}/w{workers}/{policy}", pool, serial)
        # Store workers memmap only their owned shards. On this tiny
        # fixture the per-worker state copies dwarf the shard savings,
        # so the "resident < single-process" claim is gated where it is
        # meaningful -- the shard-dominated graph of
        # test_worker_resident_bytes_scale_down_with_ownership and the
        # pool-smoke CI job. Here we pin the accounting shape.
        pp = pool.procpool
        assert len(pp["worker_resident_bytes"]) == pp["workers"]
        assert all(b > 0 for b in pp["worker_resident_bytes"])
        assert pp["single_process_bytes"] > 0


def test_partitioned_policy_ships_fewer_boundary_bytes():
    g = build("er_mid")
    make = PROGRAMS["pagerank"]
    rep = GraphReduce(
        g, options=_cluster(2, "replicated", num_partitions=4)
    ).run(make())
    par = GraphReduce(
        g, options=_cluster(2, "partitioned", num_partitions=4)
    ).run(make())
    assert np.array_equal(rep.vertex_values, par.vertex_values)
    assert par.procpool["boundary_bytes_sent"] < rep.procpool["boundary_bytes_sent"]


def test_worker_resident_bytes_scale_down_with_ownership():
    """The pool's one measured win: on a shard-dominated graph each of
    two workers holds well under the single-process footprint. Pure
    byte accounting -- machine-independent, no timing."""
    from repro.graph.generators import erdos_renyi

    g = erdos_renyi(65_536, 1_000_000, seed=7, name="er-wallclock")
    result = GraphReduce(
        g,
        options=_cluster(
            2, num_partitions=8, cache_policy="never", observe=False, trace=False
        ),
    ).run(PageRank(tolerance=None, max_iterations=2))
    pp = result.procpool
    assert pp is not None
    assert max(pp["worker_resident_bytes"]) < 0.7 * pp["single_process_bytes"]


# ----------------------------------------------------------------------
# Ownership invariants (hypothesis)
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
    for layout in (OwnershipMap.contiguous, OwnershipMap.round_robin):
        ownership = layout(sharded.num_partitions, owners)
        ownership.validate()
        claimed = [i for w in range(ownership.num_owners) for i in ownership.shards_of(w)]
        assert sorted(claimed) == list(range(sharded.num_partitions))
        # Contiguous layout: each owner's shard run is an interval.
        if layout is OwnershipMap.contiguous:
            for w in range(ownership.num_owners):
                ids = ownership.shards_of(w)
                assert ids == list(range(min(ids), max(ids) + 1)) if ids else True


@settings(max_examples=60, deadline=None)
@given(gpo=graphs_partitions_owners())
def test_boundary_sets_are_symmetric(gpo):
    edges, p, owners = gpo
    sharded = PartitionEngine().partition(edges, p)
    ownership = OwnershipMap.contiguous(sharded.num_partitions, owners)
    in_b, out_b = boundary_sets(sharded, ownership)
    owned = [
        owned_vertex_mask(sharded, ownership, w)
        for w in range(ownership.num_owners)
    ]
    for w in range(ownership.num_owners):
        # An owner never imports its own vertices.
        assert not owned[w][in_b[w]].any()
        # out_boundary[p] is exactly the union over consumers of the
        # imported vertices that p owns -- both sides see the same
        # crossing edges.
        read_by_others = np.zeros(sharded.num_vertices, dtype=bool)
        for c in range(ownership.num_owners):
            if c != w:
                read_by_others[in_b[c]] = True
        assert np.array_equal(
            np.flatnonzero(read_by_others & owned[w]), out_b[w]
        )
    # The pairwise matrix partitions each consumer's in-boundary.
    matrix = boundary_matrix(sharded, ownership)
    for c in range(ownership.num_owners):
        pieces = [vids for (cc, pp), vids in matrix.items() if cc == c]
        combined = np.sort(np.concatenate(pieces)) if pieces else np.array([], dtype=np.int64)
        assert np.array_equal(combined, in_b[c])


def test_ownership_rejects_bad_maps():
    with pytest.raises(ValueError, match="invalid owner"):
        OwnershipMap(num_owners=2, owner_of=(0, 2)).validate()
    with pytest.raises(ValueError, match="at least one owner"):
        OwnershipMap(num_owners=0, owner_of=()).validate()
    with pytest.raises(ValueError, match="frontier_policy"):
        check_frontier_policy("broadcast")


# ----------------------------------------------------------------------
# Worker-crash recovery
# ----------------------------------------------------------------------
def test_cluster_worker_crash_falls_back_to_serial():
    g = build("er_mid")
    before = _shm_entries()
    serial = GraphReduce(
        g, options=GraphReduceOptions(num_partitions=4, parallel_backend="serial")
    ).run(PageRank(tolerance=1e-3))
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        recovered = GraphReduce(
            g, options=_cluster(2, num_partitions=4)
        ).run(CrashyPageRank(tolerance=1e-3))
    # The serial re-run is deterministic, so the result is unchanged.
    assert recovered.procpool is None
    assert np.array_equal(recovered.vertex_values, serial.vertex_values)
    assert recovered.frontier_history == serial.frontier_history
    assert recovered.sim_time == serial.sim_time
    assert _shm_entries() == before  # crashed run leaked nothing


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
    """Simulated 1 -> 8 device scaling on the bench-wallclock PageRank
    graph stays above 2x (deterministic sim: machine-independent)."""
    from repro.graph.generators import erdos_renyi

    g = erdos_renyi(65_536, 1_000_000, seed=7, name="er-wallclock")
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
