"""Host fast-path wall-clock ablation: the execution fast paths
(dense-or-rows plans with the fused kernels) switched on against the
slow path on power-iteration PageRank, verifying the two are
bit-identical while the fast one clears the committed speedup floor. Wall-clock numbers are
emitted as informational context; the asserted quantities are the
same-machine speedup ratio and the exact-equality invariants."""

from repro.bench.reporting import emit, format_table


def _run_ablation():
    import time

    import numpy as np

    from repro.algorithms import PageRank
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.graph.generators import erdos_renyi
    from repro.obs import bench

    g = erdos_renyi(32_768, 500_000, seed=11, name="er-wallclock-bench")
    common = dict(
        cache_policy="never", num_partitions=4, observe=False, trace=False
    )
    configs = {
        "slow": GraphReduceOptions(**common, dense_fast_path=False),
        "+plans": GraphReduceOptions(**common),
    }

    def run(opts):
        return GraphReduce(g, options=opts).run(
            PageRank(tolerance=None, max_iterations=20)
        )

    out = {"order": list(configs), "wall_ms": {}, "sim_times": {}}
    reference = None
    for name, opts in configs.items():
        run(opts)  # warm-up: allocators, plan builds
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            result = run(opts)
            best = min(best, time.perf_counter() - t0)
        out["wall_ms"][name] = best * 1e3
        out["sim_times"][name] = result.sim_time
        if reference is None:
            reference = result
        else:
            # Every fast path must be an exact host-side rewrite: same
            # ranks bit for bit, same frontier trajectory, same
            # simulated device timeline.
            assert np.array_equal(result.vertex_values, reference.vertex_values)
            assert result.frontier_history == reference.frontier_history
            assert result.sim_time == reference.sim_time
    out["speedup"] = out["wall_ms"]["slow"] / out["wall_ms"]["+plans"]
    return out


def _run_batch_axis(K):
    import time

    import numpy as np

    from repro.algorithms import BFSGather
    from repro.core.batch import BatchRunner
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.graph.generators import erdos_renyi

    g = erdos_renyi(32_768, 500_000, seed=11, name="er-wallclock-bench")
    sources = [(k * 2897) % g.num_vertices for k in range(K)]
    opts = GraphReduceOptions(
        cache_policy="never", num_partitions=4, observe=False, trace=False
    )
    engine = GraphReduce(g, options=opts)

    def batch_run():
        return BatchRunner(engine, batch_size=max(64, K)).run_bfs(sources)

    report = batch_run()  # warm-up: allocators, plan builds
    batch_wall = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        report = batch_run()
        batch_wall = min(batch_wall, time.perf_counter() - t0)

    solo_times, solo_cols = [], []
    for s in sources:
        t0 = time.perf_counter()
        solo_cols.append(engine.run(BFSGather(source=int(s))).vertex_values)
        solo_times.append(time.perf_counter() - t0)
    # Bit-identical per query: the batch contract, asserted per column.
    assert np.array_equal(report.values_matrix(), np.stack(solo_cols, axis=1))

    # A query completes when its column retires; charge it the batch
    # wall time prorated to the iterations it was live for.
    batch_iters = max(1, report.stats["batch_iterations"])
    completion = [batch_wall * q.iterations / batch_iters for q in report.queries]
    return {
        "queries": K,
        "batch_wall_ms": batch_wall * 1e3,
        "solo_wall_ms": sum(solo_times) * 1e3,
        "speedup": sum(solo_times) / batch_wall,
        "batch_p50_ms": float(np.percentile(completion, 50)) * 1e3,
        "batch_p99_ms": float(np.percentile(completion, 99)) * 1e3,
        "solo_p50_ms": float(np.percentile(solo_times, 50)) * 1e3,
        "solo_p99_ms": float(np.percentile(solo_times, 99)) * 1e3,
        "retired_early": report.stats["retired_early"],
    }


def test_batch_query_axis(once, queries):
    """Batched MS-BFS vs sequential solo runs at width ``--queries``.

    Records total wall time for both sides plus per-query p50/p99
    completion times: a batched query completes when its column
    retires, so its completion time is the batch wall prorated to the
    iterations it was live for, while a solo query's completion time is
    its own run. The asserted quantities are per-column bit-equality
    (inside the runner) and the amortization win itself.
    """
    data = once(_run_batch_axis, queries)
    text = format_table(
        f"Batched queries: ms-bfs/er 32k/500k, P=4, K={data['queries']} (wall ms)",
        ["side", "wall", "p50/query", "p99/query"],
        [
            ["batch", f"{data['batch_wall_ms']:.1f}",
             f"{data['batch_p50_ms']:.1f}", f"{data['batch_p99_ms']:.1f}"],
            ["solo x K", f"{data['solo_wall_ms']:.1f}",
             f"{data['solo_p50_ms']:.1f}", f"{data['solo_p99_ms']:.1f}"],
        ],
    )
    emit("batch_query_axis", text, data)
    # One shared scan must beat K separate scans; the committed CLI
    # gate (batch_bfs_wallclock) enforces the 2x floor at K=16, this
    # axis just has to stay profitable at whatever K was requested.
    assert data["speedup"] > 1.0, data


def test_fastpath_wallclock_ablation(once):
    data = once(_run_ablation)
    slow_ms = data["wall_ms"]["slow"]
    rows = [
        [name, f"{data['wall_ms'][name]:.1f}", f"{slow_ms / data['wall_ms'][name]:.2f}x"]
        for name in data["order"]
    ]
    text = format_table(
        "Host fast-path ablation: pagerank-power/er 32k/500k, P=4 (wall ms)",
        ["config", "wall", "speedup"],
        rows,
    )
    emit("fastpath_wallclock", text, data)

    # Simulated time is invariant under host-side rewrites.
    sims = set(data["sim_times"].values())
    assert len(sims) == 1, data["sim_times"]
    # The full stack must beat the slow path decisively. The per-stage
    # floor is looser than the CLI gate's (this ablation runs a smaller
    # graph where fixed overheads weigh more).
    assert data["speedup"] > 1.5, data["wall_ms"]
