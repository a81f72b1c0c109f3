"""GraphReduce end-to-end: correctness, optimization equivalence,

out-of-memory streaming, metrics sanity."""

import numpy as np
import pytest

from repro.algorithms import BFS, BFSGather, SSSP, PageRank, ConnectedComponents, HeatSimulation, SpMV
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.graph.generators import (
    erdos_renyi,
    mesh2d,
    path_graph,
    rmat,
    road_network,
    star_graph,
)
from repro.sim.specs import DeviceSpec, HostSpec, MachineSpec


def reference_bfs_depths(g, source):
    import networkx as nx

    G = nx.DiGraph(zip(g.src.tolist(), g.dst.tolist()))
    G.add_nodes_from(range(g.num_vertices))
    want = np.full(g.num_vertices, np.inf, dtype=np.float32)
    for v, d in nx.single_source_shortest_path_length(G, source).items():
        want[v] = d
    return want


class TestCorrectness:
    def test_bfs_path(self):
        r = GraphReduce(path_graph(6)).run(BFS(source=0))
        assert r.vertex_values.tolist() == [0, 1, 2, 3, 4, 5]
        assert r.converged

    def test_bfs_unreachable_stay_inf(self):
        r = GraphReduce(path_graph(4)).run(BFS(source=2))
        assert np.isinf(r.vertex_values[:2]).all()
        assert r.vertex_values[2:].tolist() == [0, 1]

    def test_bfs_matches_networkx(self):
        g = rmat(9, 4000, seed=2)
        want = reference_bfs_depths(g, 1)
        got = GraphReduce(g).run(BFS(source=1)).vertex_values
        assert np.array_equal(got, want)

    def test_bfs_gather_variant_matches(self):
        g = erdos_renyi(150, 900, seed=3)
        a = GraphReduce(g).run(BFS(source=0)).vertex_values
        b = GraphReduce(g).run(BFSGather(source=0)).vertex_values
        assert np.array_equal(a, b)

    def test_sssp_matches_dijkstra(self):
        import networkx as nx

        g = erdos_renyi(120, 800, seed=4).with_random_weights(seed=5)
        G = nx.DiGraph()
        G.add_nodes_from(range(120))
        for s, d, w in zip(g.src.tolist(), g.dst.tolist(), g.weights.tolist()):
            G.add_edge(s, d, weight=w)
        want = np.full(120, np.inf)
        for v, d in nx.single_source_dijkstra_path_length(G, 0).items():
            want[v] = d
        got = GraphReduce(g).run(SSSP(source=0)).vertex_values
        reached = ~np.isinf(want)
        np.testing.assert_allclose(got[reached], want[reached], rtol=1e-5)
        assert np.isinf(got[~reached]).all()

    def test_cc_labels_components(self):
        # Two disjoint cliques stored undirected.
        import networkx as nx

        g = erdos_renyi(60, 240, seed=6).symmetrized()
        G = nx.Graph(zip(g.src.tolist(), g.dst.tolist()))
        G.add_nodes_from(range(60))
        got = GraphReduce(g).run(ConnectedComponents()).vertex_values
        for comp in nx.connected_components(G):
            labels = {got[v] for v in comp}
            assert len(labels) == 1
            assert labels.pop() == min(comp)

    def test_pagerank_matches_networkx(self):
        import networkx as nx

        import numpy as _np

        from repro.graph.edgelist import EdgeList
        from repro.graph.generators import cycle_graph

        # Union an RMAT graph with a cycle so no vertex is dangling --
        # NetworkX redistributes dangling mass, which the GAS recursion
        # (like the paper's formulation) does not.
        a = rmat(8, 2000, seed=7)
        c = cycle_graph(a.num_vertices)
        g = EdgeList(
            a.num_vertices,
            _np.concatenate([a.src, c.src]),
            _np.concatenate([a.dst, c.dst]),
        ).deduplicated()
        r = GraphReduce(g).run(PageRank(tolerance=1e-7))
        pr = nx.pagerank(
            nx.DiGraph(zip(g.src.tolist(), g.dst.tolist())), alpha=0.85, tol=1e-12
        )
        want = np.array([pr.get(i, 0.0) for i in range(g.num_vertices)])
        got = r.vertex_values / r.vertex_values.sum()
        mask = want > 0
        np.testing.assert_allclose(got[mask], want[mask], rtol=5e-3)

    def test_spmv_matches_scipy(self):
        import scipy.sparse as sp

        g = erdos_renyi(80, 500, seed=8).with_random_weights(seed=9)
        x = np.random.default_rng(10).random(80).astype(np.float32)
        r = GraphReduce(g).run(SpMV(x))
        A = sp.coo_matrix((g.weights, (g.src, g.dst)), shape=(80, 80))
        np.testing.assert_allclose(r.vertex_values, (A.T @ x), rtol=1e-4, atol=1e-5)
        assert r.iterations == 1

    def test_heat_diffusion_properties(self):
        g = mesh2d(8, 8)
        r = GraphReduce(g).run(HeatSimulation(hot_vertices=(0,), hot_temperature=100.0))
        vals = r.vertex_values
        assert vals[0] == pytest.approx(100.0)  # source pinned
        assert np.all(vals >= -1e-4) and np.all(vals <= 100.0 + 1e-4)
        # Monotone decay with distance from the corner source.
        assert vals[1] > vals[63]

    def test_star_graph_bfs_one_hop(self):
        r = GraphReduce(star_graph(50)).run(BFS(source=0))
        assert r.vertex_values[0] == 0
        assert np.all(r.vertex_values[1:] == 1)
        assert r.iterations == 2


class TestOptimizationEquivalence:
    """Every optimization configuration computes identical results."""

    @pytest.mark.parametrize("prog_factory", [
        lambda: BFS(source=1),
        lambda: SSSP(source=1),
        lambda: PageRank(tolerance=1e-4),
        lambda: ConnectedComponents(),
    ])
    def test_all_switch_combos_equal(self, prog_factory):
        g = rmat(8, 1500, seed=11).symmetrized()
        base = GraphReduce(g, options=GraphReduceOptions()).run(prog_factory())
        combos = [
            GraphReduceOptions.unoptimized(),
            GraphReduceOptions(frontier_skipping=False),
            GraphReduceOptions(fusion=False),
            GraphReduceOptions(fuse_gather=True),
            GraphReduceOptions(async_streams=False, spray=False),
            GraphReduceOptions(cache_policy="never"),
            GraphReduceOptions(cache_policy="greedy"),
            GraphReduceOptions(num_partitions=7),
            GraphReduceOptions(partition_logic="vertex_balanced"),
        ]
        for opts in combos:
            r = GraphReduce(g, options=opts).run(prog_factory())
            assert np.array_equal(r.vertex_values, base.vertex_values), opts
            assert r.iterations == base.iterations

    def test_optimized_moves_fewer_bytes(self):
        g = rmat(10, 10_000, seed=12)
        opts_stream = GraphReduceOptions(cache_policy="never")
        opt = GraphReduce(g, options=opts_stream).run(BFS(source=1))
        unopt = GraphReduce(g, options=GraphReduceOptions.unoptimized()).run(BFS(source=1))
        assert opt.stats.h2d_bytes < unopt.stats.h2d_bytes
        assert opt.memcpy_time < unopt.memcpy_time
        assert opt.sim_time < unopt.sim_time

    def test_fuse_gather_extension_reduces_memcpy(self):
        g = rmat(10, 10_000, seed=21)
        base = GraphReduce(
            g, options=GraphReduceOptions(cache_policy="never")
        ).run(PageRank(tolerance=1e-3))
        fused = GraphReduce(
            g, options=GraphReduceOptions(cache_policy="never", fuse_gather=True)
        ).run(PageRank(tolerance=1e-3))
        assert np.array_equal(base.vertex_values, fused.vertex_values)
        # The update array no longer crosses PCIe twice per iteration.
        assert fused.stats.h2d_bytes < base.stats.h2d_bytes
        assert fused.stats.d2h_bytes < base.stats.d2h_bytes
        assert fused.memcpy_time < base.memcpy_time

    def test_frontier_skipping_skips_shards(self):
        g = road_network(20, 20, 10, seed=13)
        opts = GraphReduceOptions(cache_policy="never", num_partitions=8)
        r = GraphReduce(g, options=opts).run(BFS(source=0))
        assert r.stats.shards_skipped > 0


class TestModes:
    def test_in_memory_mode_auto(self):
        g = erdos_renyi(100, 600, seed=14)
        r = GraphReduce(g).run(BFS(source=0))
        assert r.in_memory_mode
        # After the initial cache upload, iterations move no shard bytes:
        # H2D equals residents + one full graph upload.
        assert r.stats.h2d_bytes > 0

    def test_never_cache_streams_every_iteration(self):
        g = erdos_renyi(100, 600, seed=14)
        r_cache = GraphReduce(g).run(PageRank(tolerance=1e-3))
        r_stream = GraphReduce(
            g, options=GraphReduceOptions(cache_policy="never")
        ).run(PageRank(tolerance=1e-3))
        assert not r_stream.in_memory_mode
        assert r_stream.stats.h2d_bytes > r_cache.stats.h2d_bytes

    def test_out_of_memory_graph_streams(self):
        # Shrink the device so the graph cannot cache.
        g = rmat(10, 20_000, seed=15)
        machine = MachineSpec(
            device=DeviceSpec(memory_bytes=120_000), host=HostSpec()
        )
        r = GraphReduce(g, machine=machine).run(BFS(source=1))
        assert not r.in_memory_mode
        assert r.num_partitions > 1
        want = reference_bfs_depths(g, 1)
        assert np.array_equal(r.vertex_values, want)

    def test_vertex_set_too_big_raises(self):
        g = erdos_renyi(1000, 3000, seed=16)
        machine = MachineSpec(device=DeviceSpec(memory_bytes=5_000))
        with pytest.raises(ValueError, match="vertex set"):
            GraphReduce(g, machine=machine).run(BFS())

    def test_unknown_cache_policy(self):
        # refused at construction, before any partitioning or upload
        for policy in ("maybe", "lru"):
            with pytest.raises(ValueError, match="cache_policy .*valid: auto, never, greedy"):
                GraphReduceOptions(cache_policy=policy)

    def test_max_iterations_cuts_off(self):
        g = path_graph(100)
        r = GraphReduce(g).run(BFS(source=0), max_iterations=5)
        assert r.iterations == 5
        assert not r.converged

    def test_out_of_range_iteration_and_partition_limits_raise(self):
        # A negative limit used to return iterations=0, converged=False,
        # and num_partitions=0 was quietly treated as "auto".
        with pytest.raises(ValueError, match="max_iterations must be >= 0"):
            GraphReduceOptions(max_iterations=-3)
        with pytest.raises(ValueError, match="num_partitions must be >= 1"):
            GraphReduceOptions(num_partitions=0)
        with pytest.raises(ValueError, match="max_iterations must be >= 0"):
            GraphReduce(path_graph(4)).run(BFS(source=0), max_iterations=-2)
        r = GraphReduce(path_graph(4)).run(BFS(source=0), max_iterations=0)
        assert (r.iterations, r.converged) == (0, False)

    def test_removed_host_parallelism_options_are_refused(self):
        for removed in ("parallel_backend", "frontier_policy"):
            with pytest.raises(TypeError, match=removed):
                GraphReduceOptions(**{removed: "serial"})

    def test_parallel_shards_accepts_only_zero(self):
        with pytest.raises(ValueError, match="host parallelism was removed"):
            GraphReduceOptions(parallel_shards=2)
        assert GraphReduceOptions(parallel_shards=0).parallel_shards == 0


class TestMetrics:
    def test_times_consistent(self):
        g = rmat(9, 5000, seed=18)
        r = GraphReduce(g, options=GraphReduceOptions(cache_policy="never")).run(
            PageRank(tolerance=1e-3)
        )
        assert r.sim_time > 0
        assert r.memcpy_busy_span <= r.memcpy_time + 1e-12
        assert r.memcpy_busy_span <= r.sim_time + 1e-12
        assert 0 < r.memcpy_fraction <= 1
        assert r.stats.kernel_launches > 0
        assert r.stats.h2d_count > 0

    def test_frontier_history_recorded(self):
        g = path_graph(10)
        r = GraphReduce(g).run(BFS(source=0))
        # Path: frontier stays size 1 for 10 iterations then empties.
        assert r.frontier_history[:10] == [1] * 10
        assert r.frontier_history[-1] == 0

    def test_k_respects_partition_count(self):
        g = erdos_renyi(100, 500, seed=19)
        r = GraphReduce(
            g, options=GraphReduceOptions(num_partitions=3, cache_policy="never")
        ).run(BFS(source=0))
        assert 1 <= r.concurrent_shards <= 3


class TestEngineReuse:
    """What an engine derives from its graph is derived once, not per run."""

    def test_unit_weight_view_partitions_once(self, monkeypatch):
        g = rmat(10, 8000, seed=20)
        assert g.weights is None
        engine = GraphReduce(g)
        calls = []
        partition = engine.partition_engine.partition
        monkeypatch.setattr(
            engine.partition_engine,
            "partition",
            lambda *args, **kw: calls.append(args) or partition(*args, **kw),
        )
        runs = [engine.run(SSSP(source=1)) for _ in range(6)]
        assert len(calls) == 1
        assert len(engine._sharded_cache) == 1
        for r in runs[1:]:
            assert np.array_equal(r.vertex_values, runs[0].vertex_values)

    def test_degrees_counted_once_per_engine_and_read_only(self):
        g = erdos_renyi(100, 600, seed=21)
        seen = []

        class Probe(PageRank):
            def init_vertices(self, ctx):
                seen.append((ctx.out_degrees, ctx.in_degrees))
                return super().init_vertices(ctx)

        engine = GraphReduce(g)
        for _ in range(2):
            engine.run(Probe(tolerance=1e-3))
        (out0, in0), (out1, in1) = seen
        assert out0 is out1 and in0 is in1
        assert np.array_equal(out0, g.out_degrees())
        assert np.array_equal(in0, g.in_degrees())
        with pytest.raises(ValueError, match="read-only"):
            out0[0] = 1


class TestIterationStats:
    def test_stats_cover_every_iteration(self):
        g = erdos_renyi(200, 1_000, seed=56)
        r = GraphReduce(
            g, options=GraphReduceOptions(cache_policy="never")
        ).run(BFS(source=0))
        assert len(r.iteration_stats) == r.iterations
        assert [s.iteration for s in r.iteration_stats] == list(range(r.iterations))
        # Frontier sizes in stats match the frontier history.
        assert [s.frontier_size for s in r.iteration_stats] == r.frontier_history[: r.iterations]

    def test_traffic_sums_match_totals(self):
        g = erdos_renyi(200, 1_000, seed=56)
        r = GraphReduce(
            g, options=GraphReduceOptions(cache_policy="never")
        ).run(PageRank(tolerance=1e-3))
        # Per-iteration h2d sums to the total minus the resident upload.
        per_iter = sum(s.h2d_bytes for s in r.iteration_stats)
        assert 0 < per_iter <= r.stats.h2d_bytes
        assert sum(s.sim_seconds for s in r.iteration_stats) <= r.sim_time + 1e-12

    def test_low_activity_iterations_move_less(self):
        g = rmat(10, 20_000, seed=57)
        r = GraphReduce(
            g, options=GraphReduceOptions(cache_policy="never")
        ).run(BFS(source=int(np.argmax(g.out_degrees()))))
        stats = r.iteration_stats
        peak = max(s.frontier_size for s in stats)
        big = [s.h2d_bytes for s in stats if s.frontier_size == peak]
        small = [s.h2d_bytes for s in stats if s.frontier_size == 1]
        assert min(big) >= max(small)
