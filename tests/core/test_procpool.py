"""Worker-pool tests (repro.core.procpool, ``parallel_backend="cluster"``).

The pool is a pure host-side rewrite of shard execution: every run must
be bit-identical to serial (values, frontier trajectory, simulated
timeline, kernel censuses) whether each worker's owned shard arrays are
exported through shared memory (in-RAM graphs) or mapped per worker from
the store (shard stores); the ownership, frontier-policy and
worker-count axes of the same pool are in ``test_cluster.py``. The
failure-handling half covers the hard guarantees: a killed worker
degrades to a serial re-run with a warning and an unchanged
result, shared-memory segments never outlive the run, and a store-backed
run leaves no thread and no resident shard behind when an iteration
raises.
"""

import os
import signal
import threading
import warnings

import numpy as np
import pytest

from tests.core.test_fastpath import (
    PROGRAMS,
    STABLE_FRONTIER,
    _assert_stable_nondense,
    _kernel_items,
    assert_iteration_scoped_routes_engaged,
)
from tests.fixture_graphs import FIXTURE_NAMES, build
from repro.algorithms import PageRank
from repro.core.partition import PartitionEngine
from repro.core.procpool import ENV_WORKER_FLAG, SHM_PREFIX
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.core.shardstore import ShardStore

POOL = dict(parallel_shards=2, parallel_backend="cluster")


def _shm_entries() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _assert_identical(label, pool, serial):
    assert pool.procpool is not None, f"{label}: pool fell back to serial"
    assert pool.procpool["tasks"] > 0, label
    assert np.array_equal(pool.vertex_values, serial.vertex_values), label
    assert pool.frontier_history == serial.frontier_history, label
    assert pool.sim_time == serial.sim_time, label
    assert pool.iterations == serial.iterations, label
    assert pool.converged == serial.converged, label
    assert _kernel_items(pool) == _kernel_items(serial), label


# `stamping_sssp` has a real scatter phase plus edge state, so the
# edge-state delta path is exercised, not just vertex/frontier deltas.
MATRIX = ("bfs", "sssp", "pagerank", "cc", "stamping_sssp")


def matrix_cases(algos=MATRIX):
    """(label, graph, make_program): ``algos`` on er_mid, then the
    stable non-dense frontier input (see ``STABLE_FRONTIER``) and, with
    ``sssp`` among them, SSSP on the road grid (serial merges its waves
    into one rows pass per group; the pool goes shard by shard)."""
    g = build("er_mid")
    weighted = g.with_random_weights(seed=33)
    for algo in algos:
        yield algo, (weighted if "sssp" in algo else g), PROGRAMS[algo]
    name, algo = STABLE_FRONTIER
    yield f"{name}/{algo}", build(name), PROGRAMS[algo]
    if "sssp" in algos:
        yield "road10x10/sssp", build("road10x10").with_random_weights(seed=33), PROGRAMS["sssp"]


def test_process_backend_matches_serial_in_ram():
    before = _shm_entries()
    for algo, graph, make in matrix_cases():
        serial = GraphReduce(
            graph, options=GraphReduceOptions(num_partitions=3, parallel_backend="serial")
        ).run(make())
        pool = GraphReduce(
            graph, options=GraphReduceOptions(num_partitions=3, **POOL)
        ).run(make())
        _assert_identical(algo, pool, serial)
        assert_iteration_scoped_routes_engaged(algo, *algo.rpartition("/")[::2], serial)
        assert pool.kernels["merged_groups"] == 0, algo
        if algo.startswith(STABLE_FRONTIER[0]):
            _assert_stable_nondense(serial, graph.num_vertices)
            assert pool.plan_cache["sparse_bypass"] > 0
    assert _shm_entries() == before  # every segment unlinked on exit


@pytest.mark.parametrize("graph_name", FIXTURE_NAMES)
def test_process_backend_dense_activation_matches_slow_path(graph_name):
    """Workers ship a dense plan's deduplicated target vids as an
    ordinary ``activate_next`` delta: same frontier trajectory and
    per-out-edge ``frontier.activations`` as the serial slow path."""
    g = build(graph_name)
    make = PROGRAMS["pagerank_power"]
    slow = GraphReduce(
        g,
        options=GraphReduceOptions(num_partitions=3, dense_fast_path=False),
    ).run(make())
    pool = GraphReduce(g, options=GraphReduceOptions(num_partitions=3, **POOL)).run(make())
    _assert_identical(graph_name, pool, slow)
    assert _kernel_items(pool)["frontier.activations"] > 0


def test_process_backend_matches_serial_store_backed(tmp_path):
    g = build("er_mid")
    weighted = g.with_random_weights(seed=33)
    for label, graph, algo in (
        ("plain", g, "bfs"),
        ("plain", g, "pagerank"),
        ("weighted", weighted, "stamping_sssp"),
        ("stable", build(STABLE_FRONTIER[0]), STABLE_FRONTIER[1]),
    ):
        store = ShardStore.save(
            PartitionEngine().partition(graph, 3), tmp_path / f"{label}-{algo}"
        )
        make = PROGRAMS[algo]
        serial = GraphReduce(
            graph, options=GraphReduceOptions(num_partitions=3, parallel_backend="serial")
        ).run(make())
        pool = GraphReduce(
            shard_store=store, options=GraphReduceOptions(**POOL)
        ).run(make())
        _assert_identical(f"store/{algo}", pool, serial)


@pytest.mark.parametrize("kernel_backend", ("off", "numpy"))
def test_process_backend_kernel_axis(kernel_backend):
    """Workers resolve the kernel layer locally and stay bit-identical.

    The pool pickles captured deltas *after* the next task may have
    reused the kernel arena, so this doubles as the regression test for
    the delta-capture copy; the aggregated pool kernel stats must also
    show the workers actually ran the fused path.
    """
    g = build("er_mid")
    weighted = g.with_random_weights(seed=33)
    for algo in ("bfs", "pagerank", "stamping_sssp"):
        graph = weighted if "sssp" in algo else g
        make = PROGRAMS[algo]
        serial = GraphReduce(
            graph,
            options=GraphReduceOptions(num_partitions=3, kernel_backend="off"),
        ).run(make())
        pool = GraphReduce(
            graph,
            options=GraphReduceOptions(
                num_partitions=3, kernel_backend=kernel_backend, **POOL
            ),
        ).run(make())
        _assert_identical(f"{algo}/{kernel_backend}", pool, serial)
        if kernel_backend == "off":
            assert pool.kernels is None, algo
            continue
        assert pool.kernels["backend"] == kernel_backend, algo
        assert pool.kernels["fused_calls"] > 0, algo
        assert pool.kernels["fallbacks"] == 0, algo


# ----------------------------------------------------------------------
# Worker-crash recovery
# ----------------------------------------------------------------------
class CrashyPageRank(PageRank):
    """Kills the hosting pool worker dead (SIGKILL) in iteration >= 1."""

    def apply(self, ctx, vertex_ids, old_values, gathered, has_gathered, iteration):
        if iteration >= 1 and os.environ.get(ENV_WORKER_FLAG):
            os.kill(os.getpid(), signal.SIGKILL)
        return super().apply(ctx, vertex_ids, old_values, gathered, has_gathered, iteration)


def test_worker_crash_falls_back_to_serial():
    g = build("er_mid")
    before = _shm_entries()
    serial = GraphReduce(
        g, options=GraphReduceOptions(num_partitions=3, parallel_backend="serial")
    ).run(PageRank(tolerance=1e-3))
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        recovered = GraphReduce(
            g, options=GraphReduceOptions(num_partitions=3, **POOL)
        ).run(CrashyPageRank(tolerance=1e-3))
    # The serial re-run is deterministic, so the result is unchanged.
    assert recovered.procpool is None
    assert np.array_equal(recovered.vertex_values, serial.vertex_values)
    assert recovered.frontier_history == serial.frontier_history
    assert recovered.sim_time == serial.sim_time
    assert _shm_entries() == before  # crashed run leaked nothing


# ----------------------------------------------------------------------
# Prefetcher lifetime when an iteration raises mid-run
# ----------------------------------------------------------------------
class ExplodingPageRank(PageRank):
    def apply(self, ctx, vertex_ids, old_values, gathered, has_gathered, iteration):
        if iteration >= 1:
            raise RuntimeError("boom in apply")
        return super().apply(ctx, vertex_ids, old_values, gathered, has_gathered, iteration)


def test_prefetcher_threads_die_when_iteration_raises(tmp_path):
    g = build("er_mid")
    store = ShardStore.save(PartitionEngine().partition(g, 3), tmp_path / "s")
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="boom in apply"):
        GraphReduce(
            shard_store=store, options=GraphReduceOptions(host_prefetch=True)
        ).run(ExplodingPageRank(tolerance=1e-3))
    # There is no prefetch thread to die any more: nothing was started.
    assert set(threading.enumerate()) == before


def test_prefetcher_context_manager_shuts_down(tmp_path):
    from repro.core.movement import HostPrefetcher

    g = build("er_mid")
    store = ShardStore.save(PartitionEngine().partition(g, 3), tmp_path / "s")
    with pytest.raises(RuntimeError, match="mid-iteration"):
        with HostPrefetcher(store, capacity=3) as pf:
            pf.schedule([0, 1, 2])
            pf.get(0)
            pf.get(1)
            raise RuntimeError("mid-iteration")
    # Leaving the block released both resident shards' pages.
    resident = store.shard_meta[0]["nbytes"] + store.shard_meta[1]["nbytes"]
    assert pf.snapshot()["released_bytes"] == resident
    assert pf.arrays(2) is not None and pf.faults == 3  # emptied, still usable


# ----------------------------------------------------------------------
# Plan-cache LRU byte budget
# ----------------------------------------------------------------------
def test_plan_cache_budget_evicts_and_preserves_results():
    g = build("er_mid")
    make = PROGRAMS["pagerank_power"]
    unbounded = GraphReduce(
        g, options=GraphReduceOptions(num_partitions=3, plan_cache_budget=None)
    ).run(make())
    assert unbounded.plan_cache["evictions"] == 0
    assert unbounded.plan_cache["budget_bytes"] is None
    # A budget far below one shard's plan footprint forces evictions on
    # every reuse attempt; semantics must be untouched.
    tiny = GraphReduce(
        g, options=GraphReduceOptions(num_partitions=3, plan_cache_budget=64)
    ).run(make())
    assert tiny.plan_cache["evictions"] > 0
    assert tiny.plan_cache["budget_bytes"] == 64
    assert np.array_equal(tiny.vertex_values, unbounded.vertex_values)
    assert tiny.frontier_history == unbounded.frontier_history
    assert tiny.sim_time == unbounded.sim_time
    assert _kernel_items(tiny) == _kernel_items(unbounded)


def test_plan_cache_budget_bounds_held_bytes():
    g = build("er_mid")
    budget = 32 * 1024
    result = GraphReduce(
        g, options=GraphReduceOptions(num_partitions=3, plan_cache_budget=budget)
    ).run(PROGRAMS["pagerank"]())
    pc = result.plan_cache
    # The LRU keeps at least the most recent plan even when it alone
    # exceeds the budget; with several shards cached, held bytes must
    # settle at or below the budget after evictions.
    assert pc["evictions"] > 0 or pc["held_bytes"] <= budget


def test_plan_cache_counts_evictions_in_metrics():
    g = build("er_mid")
    result = GraphReduce(
        g, options=GraphReduceOptions(num_partitions=3, plan_cache_budget=64)
    ).run(PROGRAMS["pagerank_power"]())
    metrics = result.observer.metrics
    assert metrics.value("plans.evictions") == result.plan_cache["evictions"]


# ----------------------------------------------------------------------
# Observability surfaces
# ----------------------------------------------------------------------
def test_pool_snapshot_feeds_profile_and_trace():
    from repro.obs.export import result_to_chrome_trace
    from repro.obs.profile import build_profile

    g = build("er_mid")
    result = GraphReduce(
        g, options=GraphReduceOptions(num_partitions=3, **POOL)
    ).run(PROGRAMS["pagerank"]())
    assert result.procpool is not None
    report = build_profile(result)
    assert report.procpool["workers"] == 2
    assert report.procpool["tasks"] == result.procpool["tasks"]
    assert "lane" not in report.procpool
    assert "process pool       : 2 workers (shards 1/2)" in report.to_text()
    assert "peak resident" in report.to_text()
    assert "evictions" in report.to_text()
    doc = result_to_chrome_trace(result)
    lanes = [
        ev for ev in doc["traceEvents"]
        if ev.get("ph") == "X" and ev.get("cat") == "procpool.task"
    ]
    assert len(lanes) == result.procpool["tasks"]
    workers = {
        ev["args"]["name"]
        for ev in doc["traceEvents"]
        if ev.get("ph") == "M" and ev.get("pid") == 4 and ev.get("name") == "thread_name"
    }
    assert workers == {"pool worker 0 (wall clock)", "pool worker 1 (wall clock)"}


def test_serial_backend_ignores_parallel_shards():
    g = build("er_mid")
    result = GraphReduce(
        g,
        options=GraphReduceOptions(
            num_partitions=3, parallel_shards=4, parallel_backend="serial"
        ),
    ).run(PROGRAMS["bfs"]())
    assert result.procpool is None


def test_unknown_backend_rejected():
    g = build("er_mid")
    # "processes" (the deleted replicated pool) is unknown, not an alias.
    for backend in ("fibers", "processes"):
        with pytest.raises(ValueError, match="parallel_backend"):
            GraphReduce(
                g, options=GraphReduceOptions(parallel_shards=2, parallel_backend=backend)
            ).run(PROGRAMS["bfs"]())


# ----------------------------------------------------------------------
# Watchdog escalation: a SIGSTOP'd worker is a stall, not a slow task
# ----------------------------------------------------------------------
class StallingPageRank(PageRank):
    """SIGSTOPs its hosting pool worker once, mid-apply, in iteration 1.

    The worker stays alive (``_check_alive`` passes) but stops beating;
    only the heartbeat stall check can tell this hang from a slow task.
    """

    def apply(self, ctx, vertex_ids, old_values, gathered, has_gathered, iteration):
        if (
            iteration >= 1
            and os.environ.get(ENV_WORKER_FLAG)
            and not getattr(self, "_stopped", False)
        ):
            self._stopped = True
            os.kill(os.getpid(), signal.SIGSTOP)
        return super().apply(ctx, vertex_ids, old_values, gathered, has_gathered, iteration)


def _sigcont_stopped_children(done, grace):
    """SIGCONT any stopped pool worker, after ``grace`` seconds.

    The grace period is longer than the stall timeout plus the pool's
    0.1s detection poll, so escalation always lands first; the resume
    then lets the pool's shutdown join the worker instead of leaking a
    stopped process.
    """
    import multiprocessing as mp
    import time as _time

    deadline = _time.monotonic() + 60.0
    while _time.monotonic() < deadline and not done.is_set():
        for proc in mp.active_children():
            try:
                with open(f"/proc/{proc.pid}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                continue
            if state == "T":
                _time.sleep(grace)
                try:
                    os.kill(proc.pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
        _time.sleep(0.05)


def test_sigstopped_worker_escalates_as_stall_incident(tmp_path):
    import json

    from repro.obs.telemetry import TelemetryConfig

    g = build("er_mid")
    stream = tmp_path / "telemetry.jsonl"
    serial = GraphReduce(
        g, options=GraphReduceOptions(num_partitions=3, parallel_backend="serial")
    ).run(PageRank(tolerance=1e-3))
    done = threading.Event()
    resumer = threading.Thread(
        target=_sigcont_stopped_children, args=(done, 2.0), daemon=True
    )
    resumer.start()
    try:
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            recovered = GraphReduce(
                g,
                options=GraphReduceOptions(
                    num_partitions=3,
                    telemetry=TelemetryConfig(
                        out=str(stream),
                        interval=3600.0,
                        stall_timeout=0.75,
                        watchdog_poll=30.0,
                    ),
                    **POOL,
                ),
            ).run(StallingPageRank(tolerance=1e-3))
    finally:
        done.set()
        resumer.join(timeout=5.0)
    # The deterministic serial fallback produced the serial answer.
    assert recovered.procpool is None
    assert np.array_equal(recovered.vertex_values, serial.vertex_values)
    records = [json.loads(l) for l in stream.read_text().splitlines()]
    stalls = [r for r in records if r.get("kind") == "incident"]
    assert stalls, "no stall incident reached the telemetry stream"
    assert stalls[0]["incident_kind"] == "stall"
    assert stalls[0]["component_kind"] == "worker"
    assert "escalating to serial fallback" in stalls[0]["details"]
    # Both executions streamed to the same sink: the pool run ends with
    # the WorkerCrashed error, the fallback run ends converged.
    ends = [r for r in records if r.get("kind") == "run_end"]
    assert len(ends) == 2
    assert "WorkerCrashed" in ends[0]["error"]
    assert ends[0]["incidents"] >= 1
    assert ends[1]["error"] is None and ends[1]["converged"]
