"""Host fast-path equivalence and plan-cache unit tests.

The dense-frontier kernels, the gather-plan cache and parallel shard
compute are pure host-side rewrites: every combination must produce
bit-identical vertex values, the same frontier trajectory, the same
simulated timeline and the same WorkItems censuses as the slow path on
every fixture graph. The second half unit-tests the PlanCache itself
(hit/miss/invalidation accounting, epoch freshness, dense plan reuse)
and the FrontierManager machinery it leans on.
"""

import numpy as np
import pytest

from tests.fixture_graphs import FIXTURE_NAMES, build
from repro.algorithms import BFS, ConnectedComponents, PageRank, SSSP
from repro.core.frontier import FrontierManager
from repro.core.partition import PartitionEngine
from repro.core.plans import PlanCache
from repro.core.runtime import GraphReduce, GraphReduceOptions, RuntimeContext
from repro.graph.edgelist import EdgeList
from repro.obs.span import Observer


class EdgeStampingSSSP(SSSP):
    """SSSP that also broadcasts distances onto its out-edges.

    Gives the matrix a program with a real scatter phase and edge
    state, so the *full* out-plan path (eids/weights/row_ids columns)
    is exercised, not just the frontier-activate lite plan.
    """

    edge_dtype = np.float32

    def scatter(self, ctx, src_ids, src_vals, weights, edge_states):
        return src_vals + weights


PROGRAMS = {
    "bfs": lambda: BFS(source=0),
    "sssp": lambda: SSSP(source=0),
    "pagerank": lambda: PageRank(tolerance=1e-3),
    "pagerank_power": lambda: PageRank(tolerance=None, max_iterations=12),
    "cc": lambda: ConnectedComponents(),
    "stamping_sssp": lambda: EdgeStampingSSSP(source=0),
}

#: every fast path alone, then everything at once; the kernels_* pair
#: pins the fused-kernel axis explicitly (COMBOS above inherit the
#: "numpy" default).
COMBOS = {
    "dense_only": dict(dense_fast_path=True, plan_cache=False, parallel_shards=0),
    "cache_only": dict(dense_fast_path=False, plan_cache=True, parallel_shards=0),
    "parallel_only": dict(dense_fast_path=False, plan_cache=False, parallel_shards=3),
    "all_on": dict(dense_fast_path=True, plan_cache=True, parallel_shards=3),
    "kernels_off": dict(
        dense_fast_path=True, plan_cache=True, parallel_shards=0, kernel_backend="off"
    ),
    "kernels_numpy": dict(
        dense_fast_path=True, plan_cache=True, parallel_shards=0, kernel_backend="numpy"
    ),
}
SLOW = dict(dense_fast_path=False, plan_cache=False, parallel_shards=0)


def _run(g, make_program, fastpath):
    opts = GraphReduceOptions(num_partitions=3, **fastpath)
    return GraphReduce(g, options=opts).run(make_program())


def _kernel_items(result):
    return {
        name: c.value
        for name, c in result.observer.metrics.counters.items()
        if name.startswith(("compute.", "frontier."))
    }


@pytest.mark.parametrize("graph_name", FIXTURE_NAMES)
def test_fastpath_combos_match_slow_path(graph_name):
    g = build(graph_name)
    weighted = g.with_random_weights(seed=33)
    for algo, make_program in PROGRAMS.items():
        graph = weighted if "sssp" in algo else g
        slow = _run(graph, make_program, SLOW)
        assert slow.plan_cache is None  # fully disabled cache reports nothing
        for combo, fastpath in COMBOS.items():
            fast = _run(graph, make_program, fastpath)
            label = f"{algo}/{combo}"
            assert np.array_equal(fast.vertex_values, slow.vertex_values), label
            assert fast.frontier_history == slow.frontier_history, label
            assert fast.sim_time == slow.sim_time, label
            assert fast.iterations == slow.iterations, label
            assert fast.converged == slow.converged, label
            # Same simulated kernels: identical edge/vertex censuses and
            # frontier traffic, phase by phase.
            assert _kernel_items(fast) == _kernel_items(slow), label


# Out-of-core: the same matrix, but the graph lives in an on-disk shard
# store. One warm config (read-ahead hints + every host fast path) and
# one deliberately starved config (1-shard cache, no hints: every
# acquisition evicts and releases the previous shard's pages) must both
# be bit-identical to the in-RAM slow path.
STORE_COMBOS = {
    "prefetch_on": dict(dense_fast_path=True, plan_cache=True, parallel_shards=3),
    "cold_budget1": dict(memory_budget=1, host_prefetch=False),
}


@pytest.mark.parametrize("graph_name", FIXTURE_NAMES)
def test_store_runs_match_in_ram(graph_name, tmp_path):
    from repro.core.shardstore import ShardStore

    g = build(graph_name)
    stores = {
        label: ShardStore.save(PartitionEngine().partition(graph, 3), tmp_path / label)
        for label, graph in (("plain", g), ("weighted", g.with_random_weights(seed=33)))
    }
    for algo, make_program in PROGRAMS.items():
        needs_weights = "sssp" in algo
        graph = g.with_random_weights(seed=33) if needs_weights else g
        slow = _run(graph, make_program, SLOW)
        store = stores["weighted" if needs_weights else "plain"]
        for combo, extra in STORE_COMBOS.items():
            opts = GraphReduceOptions(num_partitions=3, **extra)
            ooc = GraphReduce(shard_store=store, options=opts).run(make_program())
            label = f"{algo}/{combo}"
            assert np.array_equal(ooc.vertex_values, slow.vertex_values), label
            assert ooc.frontier_history == slow.frontier_history, label
            assert ooc.sim_time == slow.sim_time, label
            assert ooc.iterations == slow.iterations, label
            assert ooc.converged == slow.converged, label
            assert _kernel_items(ooc) == _kernel_items(slow), label
            assert ooc.prefetch is not None, label


def test_power_iteration_pagerank_stays_dense():
    g = build("er_mid")
    result = _run(
        g, lambda: PageRank(tolerance=None, max_iterations=10),
        dict(dense_fast_path=True, plan_cache=True, parallel_shards=0),
    )
    n = g.num_vertices
    # always_active: the frontier is the whole vertex set every round,
    # so after the compulsory first builds every plan query hits.
    assert result.iterations == 10
    assert all(size == n for size in result.frontier_history[:-1])
    stats = result.plan_cache
    assert stats["invalidations"] == 0
    assert stats["hit_rate"] > 0.9, stats


# ----------------------------------------------------------------------
# PlanCache unit tests on a hand-built sharded graph
# ----------------------------------------------------------------------
def _make(pairs, n, p=2, dense=True, cache=True, initial=None):
    edges = EdgeList.from_pairs(pairs, num_vertices=n)
    sharded = PartitionEngine().partition(edges, p)
    init = np.ones(n, dtype=bool) if initial is None else initial
    frontier = FrontierManager(sharded, init)
    plans = PlanCache(sharded, frontier, dense=dense, cache=cache)
    return sharded, frontier, plans


PAIRS = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (1, 3)]


def test_gather_plan_matches_slow_path_build():
    sharded, frontier, plans = _make(PAIRS, 4, p=2)
    _, _, off = _make(PAIRS, 4, p=2, dense=False, cache=False)
    for shard in sharded.shards:
        fast, slow = plans.gather_plan(shard), off.gather_plan(shard)
        assert fast.dense and not slow.dense
        np.testing.assert_array_equal(fast.indices, slow.indices)
        np.testing.assert_array_equal(fast.eids, slow.eids)
        np.testing.assert_array_equal(fast.row_ids, slow.row_ids)
        np.testing.assert_array_equal(fast.starts, slow.starts)
        np.testing.assert_array_equal(fast.verts, slow.verts)
        assert fast.n_edges == slow.n_edges


def test_hit_miss_invalidation_accounting():
    sharded, frontier, plans = _make(
        PAIRS, 4, p=1, initial=np.array([True, False, True, False])
    )
    shard = sharded.shards[0]
    plans.gather_plan(shard)  # compulsory build
    plans.gather_plan(shard)  # same epoch -> hit
    assert (plans.hits, plans.misses, plans.invalidations) == (1, 1, 0)
    # An epoch bump with an unchanged row set revalidates (array_equal)
    # and counts as a hit; the entry is reused by identity afterwards.
    frontier.invalidate_plans()
    plans.gather_plan(shard)
    assert (plans.hits, plans.misses, plans.invalidations) == (2, 1, 0)
    # Growing the frontier rebuilds and retires the stale plan.
    frontier.current[1] = True
    frontier.invalidate_plans()
    plans.gather_plan(shard)
    assert (plans.hits, plans.misses, plans.invalidations) == (2, 2, 1)
    stats = plans.stats()
    assert stats["hits"] == 2 and stats["misses"] == 2
    assert stats["hit_rate"] == pytest.approx(0.5)


def test_dense_plans_are_reused_by_identity():
    sharded, frontier, plans = _make(PAIRS, 4, p=2)
    shard = sharded.shards[0]
    first = plans.gather_plan(shard)
    frontier.advance()  # epoch bump; mask re-densified by activate_all
    frontier.activate_all()
    assert plans.gather_plan(shard) is first  # topology-static plan
    rows, dense = plans.active_rows(shard)
    assert dense
    np.testing.assert_array_equal(rows, np.arange(shard.start, shard.stop))


def test_dense_out_plan_targets_are_unique_vids():
    sharded, frontier, plans = _make(PAIRS, 4, p=2)
    frontier.changed[:] = True
    frontier.invalidate_plans()
    for shard in sharded.shards:
        plan = plans.out_plan(shard, full=True)
        assert plan.dense and plan.full
        np.testing.assert_array_equal(plan.targets, np.unique(shard.csr.indices))
        assert plan.targets.dtype == shard.csr.indices.dtype
        assert plan.n_edges == shard.num_out_edges
        # A later lite query is served by the same full plan.
        assert plans.out_plan(shard, full=False) is plan


def _activations(frontier):
    return frontier.obs.metrics.counters["frontier.activations"].value


@pytest.mark.parametrize("graph_name", FIXTURE_NAMES)
def test_dense_activation_matches_per_out_edge_form(graph_name):
    """Writing a dense plan's deduplicated targets leaves the same
    ``next`` mask and the same ``frontier.activations`` total as the
    slow path's one write per out-edge."""
    sharded = PartitionEngine().partition(build(graph_name), 3)
    init = np.ones(sharded.num_vertices, dtype=bool)
    fast = FrontierManager(sharded, init, obs=Observer())
    slow = FrontierManager(sharded, init, obs=Observer())
    fast.changed[:] = True
    plans = PlanCache(sharded, fast)
    for shard in sharded.shards:
        plan = plans.out_plan(shard)
        if shard.num_interval_vertices:
            assert plan.dense
            np.testing.assert_array_equal(plan.targets, np.unique(shard.csr.indices))
        if plan.n_edges:
            fast.activate_next(plan.targets, count=plan.n_edges)
        slow.activate_next(shard.csr.indices)
        np.testing.assert_array_equal(fast.next, slow.next)
    assert _activations(fast) == _activations(slow)


def test_disabled_cache_never_counts():
    sharded, frontier, plans = _make(PAIRS, 4, p=1, dense=False, cache=False)
    shard = sharded.shards[0]
    assert not plans.enabled
    for _ in range(3):
        plans.gather_plan(shard)
        plans.out_plan(shard)
        plans.active_rows(shard)
    assert (plans.hits, plans.misses, plans.invalidations) == (0, 0, 0)


# ----------------------------------------------------------------------
# FrontierManager machinery the cache depends on
# ----------------------------------------------------------------------
class _Intervals:
    """Stand-in sharded graph: boundaries only (incl. empty intervals)."""

    def __init__(self, boundaries):
        self.boundaries = np.asarray(boundaries, dtype=np.int64)
        self.num_vertices = int(self.boundaries[-1])
        self.num_partitions = len(boundaries) - 1


def test_counts_per_shard_with_empty_intervals():
    fm = FrontierManager(_Intervals([0, 2, 2, 5, 5, 6]), np.ones(6, dtype=bool))
    mask = np.array([True, False, True, True, False, True])
    np.testing.assert_array_equal(fm.counts_per_shard(mask), [1, 0, 2, 0, 1])
    np.testing.assert_array_equal(fm.counts_per_shard(np.zeros(6, bool)), [0] * 5)


def test_shards_of_single_and_multi_interval():
    fm = FrontierManager(_Intervals([0, 2, 2, 5, 5, 6]), np.ones(6, dtype=bool))
    # All vids inside one interval: the O(log P) early exit.
    np.testing.assert_array_equal(fm._shards_of(np.array([2, 4])), [2])
    # Spanning intervals, skipping the empty ones.
    np.testing.assert_array_equal(fm._shards_of(np.array([0, 3, 5])), [0, 2, 4])
    np.testing.assert_array_equal(fm._shards_of(np.array([5])), [4])


def test_activate_next_deduplicated_equals_per_edge_form():
    init = np.ones(6, dtype=bool)
    a = FrontierManager(_Intervals([0, 3, 6]), init, obs=Observer())
    b = FrontierManager(_Intervals([0, 3, 6]), init, obs=Observer())
    per_edge = np.array([4, 1, 5, 1, 4, 4, 5])
    a.activate_next(per_edge)
    b.activate_next(np.unique(per_edge), count=len(per_edge))
    np.testing.assert_array_equal(a.next, b.next)
    assert _activations(a) == _activations(b) == 7
    # Concurrent-composition shape: a scatter only writes the listed
    # positions, so another shard's earlier activation survives.
    b.activate_next(np.array([0]))
    b.activate_next(np.unique(per_edge), count=len(per_edge))
    assert b.next[0]


def test_epoch_bumps_on_mask_mutations():
    sharded, frontier, _ = _make(PAIRS, 4, p=2)
    before = frontier.changed_epochs.copy()
    frontier.mark_changed(np.array([3]))  # second shard only
    assert frontier.changed_epochs[1] > before[1]
    assert frontier.changed_epochs[0] == before[0]
    a_before = frontier.active_epochs.copy()
    frontier.advance()
    assert (frontier.active_epochs > a_before).all()
    assert (frontier.changed_epochs > before).all()
    frontier.activate_all()
    assert frontier.current.all()
