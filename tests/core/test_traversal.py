"""Direction-optimizing traversal: equivalence matrix + decision rule.

Push, pull and auto must be *bit-identical* on final values: pull runs
an iteration with a superset frontier, which is a no-op for the extra
vertices exactly when apply is improvement-driven (the
``pull_compatible`` contract). The matrix checks BFS levels and SSSP
distances against the pure-Python references and against each other
across kernel backends and storage, plus structural parent-validity
invariants that would catch a "right by accident" fixed point.

Cost control: every direction runs in-RAM on every fixture graph; the
kernel-backend and on-disk shard-store legs run the full direction set
on a representative subset (path/road/ER/R-MAT cover the frontier
shapes that drive every code path).

The second half pins the DirectionController itself: the recorded
per-iteration decisions must replay the Beamer alpha/beta hysteresis
rule exactly, and `auto` must be deterministic for a given graph+seed
(hypothesis over generator parameters).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.fixture_graphs import FIXTURE_NAMES, build
from tests.references import bfs_levels, sssp_distances
from repro.algorithms import BFS, BFSGather, ConnectedComponents, DeltaSSSP, SSSP
from repro.core.compute import ComputeEngine
from repro.core.frontier import DirectionController
from repro.core.partition import PartitionEngine
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.core.shardstore import ShardStore
from repro.graph.generators import erdos_renyi, grid_road, rmat

DIRECTIONS = ("push", "pull", "auto")
#: representative subset for the expensive legs (see module docstring)
CORE_GRAPHS = ("path300", "road10x10", "er_small", "rmat_small")


def _options(direction, **kw):
    return GraphReduceOptions(num_partitions=3, direction=direction, **kw)


def _check_bfs(graph, levels, source=0):
    """Parent validity: the levels form a valid BFS tree layering."""
    ref = bfs_levels(graph, source)
    np.testing.assert_array_equal(levels, ref)
    assert levels[source] == 0.0
    # Every reached vertex at depth d > 0 has an in-neighbor at d - 1,
    # and no edge jumps a layer (|level(dst) - level(src)| <= 1 when
    # both ends are reached).
    finite = np.isfinite(levels)
    lsrc = levels[graph.src]
    ldst = levels[graph.dst]
    both = np.isfinite(lsrc) & np.isfinite(ldst)
    assert (ldst[both] <= lsrc[both] + 1).all()
    has_parent = np.zeros(graph.num_vertices, dtype=bool)
    parent_ok = np.isfinite(lsrc) & (ldst == lsrc + 1)
    has_parent[graph.dst[parent_ok]] = True
    need_parent = finite & (levels > 0)
    assert has_parent[need_parent].all()


def _check_sssp(graph, dist, source=0):
    """Distances are the exact float32 Bellman-Ford fixpoint."""
    ref = sssp_distances(graph, source)
    np.testing.assert_array_equal(dist, ref)
    assert dist[source] == 0.0
    # No edge can still relax, and every finite non-source distance is
    # witnessed by some in-edge (a valid shortest-path parent).
    w = dist[graph.src] + graph.weights.astype(np.float32)
    relaxable = w.astype(np.float32) < dist[graph.dst]
    assert not relaxable.any()
    witnessed = np.zeros(graph.num_vertices, dtype=bool)
    exact = w.astype(np.float32) == dist[graph.dst]
    witnessed[graph.dst[exact & np.isfinite(w)]] = True
    need = np.isfinite(dist)
    need[source] = False
    assert witnessed[need].all()


@pytest.mark.parametrize("graph_name", FIXTURE_NAMES)
def test_direction_matrix_in_ram(graph_name):
    g = build(graph_name)
    weighted = g.with_random_weights(seed=33)
    for direction in DIRECTIONS:
        opts = _options(direction)
        r = GraphReduce(g, options=opts).run(BFSGather(source=0))
        _check_bfs(g, r.vertex_values)
        s = GraphReduce(weighted, options=opts).run(SSSP(source=0))
        _check_sssp(weighted, s.vertex_values)


#: both fused-kernel backends, and the slow path: every host fast path
#: off (no stored dense plans, no row-built frontiers) under the default
#: backend
FAST_PATHS = {
    "off": dict(kernel_backend="off"),
    "numpy": dict(kernel_backend="numpy"),
    "slow": dict(dense_fast_path=False),
}


@pytest.mark.parametrize("fast_path", sorted(FAST_PATHS))
@pytest.mark.parametrize("graph_name", CORE_GRAPHS)
def test_direction_matrix_kernel_backends(graph_name, fast_path):
    """Every direction stays bit-identical across fused-kernel backends
    and with the host fast paths off.

    The direction controller feeds on frontier occupancy, so a fused
    activate that mis-counted would flip push/pull decisions; comparing
    full results (values + trajectory + timeline) against the
    kernels-off run on the same direction pins that down. The slow leg
    pins that a pull iteration served from a stored dense plan computes
    what the from-scratch build does.
    """
    g = build(graph_name)
    weighted = g.with_random_weights(seed=33)
    for direction in DIRECTIONS:
        for graph, make in ((g, lambda: BFSGather(source=0)),
                            (weighted, lambda: SSSP(source=0))):
            ref = GraphReduce(
                graph, options=_options(direction, kernel_backend="off")
            ).run(make())
            fused = GraphReduce(
                graph, options=_options(direction, **FAST_PATHS[fast_path])
            ).run(make())
            label = f"{direction}/{fast_path}"
            assert np.array_equal(fused.vertex_values, ref.vertex_values), label
            assert fused.frontier_history == ref.frontier_history, label
            assert fused.sim_time == ref.sim_time, label
            assert fused.direction_decisions == ref.direction_decisions, label


@pytest.mark.parametrize("algo", ["bfs", "sssp"])
def test_auto_pull_iterations_run_merged(algo, monkeypatch):
    """A pull iteration has every vertex active, so each of its gather and
    apply groups runs once over the whole graph; the runs still equal push,
    pull and the per-shard path bit for bit, and count plan hits and misses
    as the per-shard path does."""
    g = build("er_mid")
    if algo == "sssp":
        g, make = g.with_random_weights(seed=33), lambda: SSSP(source=0)
    else:
        make = lambda: BFSGather(source=0)
    dense_groups = []
    real = ComputeEngine.run_merged

    def spy(self, phases, shards):
        census = real(self, phases, shards)
        if census and self.frontier.all_active:
            dense_groups.append(self.iteration)
        return census

    monkeypatch.setattr(ComputeEngine, "run_merged", spy)
    auto = GraphReduce(g, options=_options("auto")).run(make())
    pulls = [d.iteration for d in auto.direction_decisions if d.direction == "pull"]
    assert pulls and set(dense_groups) == set(pulls) and len(dense_groups) >= 3 * len(pulls)
    assert auto.kernels["merged_groups"] >= len(dense_groups)
    per_shard = GraphReduce(g, options=_options("auto", kernel_backend="off")).run(make())
    assert per_shard.kernels is None
    assert auto.vertex_values.tobytes() == per_shard.vertex_values.tobytes()
    assert auto.frontier_history == per_shard.frontier_history
    assert auto.iteration_stats == per_shard.iteration_stats
    assert auto.sim_time == per_shard.sim_time
    # the same options, shard by shard: span plans replace shard plans, so
    # only the held bytes may differ (er_mid BFS: 26 404 merged, 23 224 not)
    monkeypatch.setattr(ComputeEngine, "can_merge", lambda self, plan: False)
    unmerged = GraphReduce(g, options=_options("auto")).run(make())
    assert unmerged.kernels["merged_groups"] == 0
    assert unmerged.vertex_values.tobytes() == auto.vertex_values.tobytes()
    counters = lambda r: {k: v for k, v in r.plan_cache.items() if k != "held_bytes"}
    assert counters(auto) == counters(unmerged) and auto.plan_cache["misses"] > 0
    for direction in ("push", "pull"):
        other = GraphReduce(g, options=_options(direction)).run(make())
        assert other.vertex_values.tobytes() == auto.vertex_values.tobytes(), direction


@pytest.mark.parametrize("graph_name", CORE_GRAPHS)
def test_direction_matrix_shard_store(graph_name, tmp_path):
    g = build(graph_name)
    store = ShardStore.save(
        PartitionEngine().partition(g, 3), tmp_path / "store"
    )
    for direction in DIRECTIONS:
        opts = GraphReduceOptions(direction=direction)
        r = GraphReduce(shard_store=store, options=opts).run(BFSGather(source=0))
        _check_bfs(g, r.vertex_values)


@pytest.mark.parametrize("graph_name", ("path300", "road10x10", "er_mid"))
def test_cc_pull_matches_push(graph_name):
    g = build(graph_name)
    sym = g if g.undirected else g.symmetrized()
    push = GraphReduce(sym, options=_options("push")).run(
        ConnectedComponents()
    )
    for direction in ("pull", "auto"):
        r = GraphReduce(sym, options=_options(direction)).run(
            ConnectedComponents()
        )
        np.testing.assert_array_equal(push.vertex_values, r.vertex_values)


# ----------------------------------------------------------------------
# Delta-stepping SSSP
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", CORE_GRAPHS + ("er_mid", "two_cliques"))
def test_delta_sssp_matches_plain(graph_name):
    g = build(graph_name).with_random_weights(seed=33)
    base = GraphReduce(g, options=_options("push")).run(SSSP(source=0))
    for delta in (0.1, 0.5, 2.0, 100.0):
        r = GraphReduce(g, options=_options("push")).run(
            DeltaSSSP(source=0, delta=delta)
        )
        np.testing.assert_array_equal(base.vertex_values, r.vertex_values)
        assert r.converged
    _check_sssp(g, base.vertex_values)


def test_delta_sssp_defers_out_of_bucket_work():
    # A tiny bucket width forces reseeds: more iterations than plain
    # SSSP, strictly bucketed propagation, same distances.
    g = build("road10x10").with_random_weights(seed=7)
    plain = GraphReduce(g, options=_options("push")).run(SSSP(source=0))
    delta = GraphReduce(g, options=_options("push")).run(
        DeltaSSSP(source=0, delta=0.05)
    )
    np.testing.assert_array_equal(plain.vertex_values, delta.vertex_values)
    assert delta.iterations > plain.iterations


def test_delta_sssp_validates_delta():
    with pytest.raises(ValueError, match="delta"):
        DeltaSSSP(source=0, delta=0.0)


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------
def test_pull_rejected_for_push_only_program():
    g = build("er_small")
    for direction in ("pull", "auto"):
        opts = GraphReduceOptions(direction=direction)
        with pytest.raises(ValueError, match="pull-compatible"):
            GraphReduce(g, options=opts).run(BFS(source=0))


def test_unknown_direction_rejected():
    g = build("er_small")
    with pytest.raises(ValueError, match="direction"):
        GraphReduce(g, options=GraphReduceOptions(direction="sideways")).run(
            BFSGather(source=0)
        )


def test_controller_validates_thresholds():
    deg = np.ones(4, dtype=np.int64)
    with pytest.raises(ValueError, match="direction"):
        DirectionController("diagonal", deg, 4, 4)
    with pytest.raises(ValueError, match="positive"):
        DirectionController("auto", deg, 4, 4, alpha=0.0)


@pytest.mark.parametrize("bad", [dict(direction_alpha=np.nan),
                                 dict(direction_beta=np.nan),
                                 dict(direction_alpha=np.inf)])
def test_auto_direction_rejects_non_finite_thresholds(bad):
    """NaN passes ``alpha <= 0``; the run must not quietly stay push."""
    sym = build("road10x10")
    sym = sym if sym.undirected else sym.symmetrized()
    opts = GraphReduceOptions(num_partitions=3, direction="auto", **bad)
    with pytest.raises(ValueError, match="finite and positive"):
        GraphReduce(sym, options=opts).run(ConnectedComponents())


# ----------------------------------------------------------------------
# Row-built traversal frontiers (the 0%-hit-rate BFS pathology)
# ----------------------------------------------------------------------
def test_sparse_bypass_pins_path_bfs():
    """BFS waves on a path never repeat; each is built from its rows.

    Storing a plan per wave would make every iteration's queries misses
    (~2 per iteration, 0% hit rate), which once made the fast path
    *lose* to the slow path on traversal. Pin that a sparse wave never
    enters the dense-plan store: misses stay bounded by a per-shard
    constant instead of growing with the iteration count.
    """
    g = build("path300")
    opts = GraphReduceOptions(num_partitions=3)
    r = GraphReduce(g, options=opts).run(BFS(source=0))
    assert r.iterations == 300
    pc = r.plan_cache
    assert pc["sparse_bypass"] >= 2 * 300
    assert pc["misses"] <= 2 * 3


def test_sparse_bypass_leaves_dense_workloads_alone():
    # PageRank's steady state is a dense frontier: nothing is row-built
    # (no bypass counts) and the stored dense plans keep hitting.
    from repro.algorithms import PageRank

    g = build("er_mid")
    r = GraphReduce(g, options=GraphReduceOptions(num_partitions=3)).run(
        PageRank(tolerance=None, max_iterations=8)
    )
    assert r.plan_cache["sparse_bypass"] == 0
    assert r.plan_cache["hits"] > 0


# ----------------------------------------------------------------------
# The alpha/beta rule: recorded decisions replay it exactly
# ----------------------------------------------------------------------
def _replay(decisions, num_vertices, alpha, beta):
    """Re-run the hysteresis state machine from the recorded inputs."""
    state = "push"
    out = []
    for d in decisions:
        if state == "push" and d.frontier_edges > d.unexplored_edges / alpha:
            state = "pull"
        elif state == "pull" and d.frontier_size < num_vertices / beta:
            state = "push"
        out.append(state)
    return out


@pytest.mark.parametrize("graph_name", ("road10x10", "er_mid", "rmat_small"))
def test_auto_decisions_match_alpha_beta_rule(graph_name):
    g = build(graph_name)
    alpha, beta = 14.0, 24.0
    opts = GraphReduceOptions(
        num_partitions=3, direction="auto",
        direction_alpha=alpha, direction_beta=beta,
    )
    r = GraphReduce(g, options=opts).run(BFSGather(source=0))
    ds = r.direction_decisions
    assert [d.iteration for d in ds] == list(range(len(ds)))
    assert [d.direction for d in ds] == _replay(ds, g.num_vertices, alpha, beta)
    # The recorded inputs are consistent: unexplored edges only shrink
    # and frontier out-degree sums match the graph.
    unexplored = [d.unexplored_edges for d in ds]
    assert all(a >= b >= 0 for a, b in zip(unexplored, unexplored[1:]))
    assert unexplored[0] <= g.num_edges
    # IterationStats carry the same per-iteration direction.
    assert [s.direction for s in r.iteration_stats] == [d.direction for d in ds]


@given(
    kind=st.sampled_from(["er", "rmat", "grid"]),
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.floats(min_value=1.0, max_value=64.0),
    beta=st.floats(min_value=1.0, max_value=64.0),
)
@settings(max_examples=12, deadline=None)
def test_auto_is_deterministic_and_replayable(kind, seed, alpha, beta):
    if kind == "er":
        g = erdos_renyi(180, 900, seed=seed)
    elif kind == "rmat":
        g = rmat(7, 800, seed=seed)
    else:
        g = grid_road(10, 10, 0.2, seed=seed)
    opts = GraphReduceOptions(
        num_partitions=3, direction="auto",
        direction_alpha=alpha, direction_beta=beta,
    )
    runs = [GraphReduce(g, options=opts).run(BFSGather(source=0)) for _ in range(2)]
    a, b = runs
    np.testing.assert_array_equal(a.vertex_values, b.vertex_values)
    assert [(d.iteration, d.direction, d.frontier_size, d.frontier_edges,
             d.unexplored_edges) for d in a.direction_decisions] == [
        (d.iteration, d.direction, d.frontier_size, d.frontier_edges,
         d.unexplored_edges) for d in b.direction_decisions
    ]
    assert [d.direction for d in a.direction_decisions] == _replay(
        a.direction_decisions, g.num_vertices, alpha, beta
    )
    push = GraphReduce(
        g, options=GraphReduceOptions(num_partitions=3)
    ).run(BFSGather(source=0))
    np.testing.assert_array_equal(a.vertex_values, push.vertex_values)
