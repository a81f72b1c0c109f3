"""Per-layer attribution from outside the library.

``Tracer.installed()`` temporarily replaces the public entry points of
each layer (class attributes, restored on exit) with timing wrappers.
A wrapper records one span per call on a stack, so a layer's *self*
time is its span minus the spans of the wrapped calls made inside it;
self times therefore partition the traced query and can be summed.
Nothing under ``src/`` is edited: spans inside the program are a later
change (choosing-metrics guide, section 4).

``layer_metrics`` turns one tracer's totals plus the exact counters on
the query's result objects into the per-layer metrics that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from repro.core.batch import BatchRunner, BitParallelBFS
from repro.core.compute import ComputeEngine
from repro.core.frontier import FrontierManager
from repro.core.movement import DataMovementEngine, HostPrefetcher
from repro.core.partition import PartitionEngine
from repro.core.plans import PlanCache
from repro.core.runtime import GraphReduce
from repro.core.shardstore import ShardStore
from repro.sim.device import GPUDevice

MB = 1e6

#: (class, method names, layer). The layer of ``ComputeEngine.run_group``
#: is refined per call by its phase group (see ``_compute_key``).
WRAPPED = (
    (GraphReduce, ("run",), "runtime"),
    (BatchRunner, ("execute",), "batch"),
    (BitParallelBFS, ("end_iteration", "query_values"), "batch"),
    (PartitionEngine, ("partition",), "partition"),
    (ShardStore, ("save",), "shardstore.save"),
    (ShardStore, ("open",), "shardstore.open"),
    (ShardStore, ("load_arrays",), "shardstore.load"),
    (HostPrefetcher, ("get",), "prefetch"),
    (PlanCache, ("gather_plan", "out_plan", "sparse_rows", "active_rows"), "plans"),
    (ComputeEngine, ("run_group",), "compute"),
    (
        FrontierManager,
        (
            "advance", "active_shards", "changed_shards", "activate_next",
            "activate_next_mask", "mark_changed", "activate_all", "set_current",
        ),
        "frontier",
    ),
    (
        DataMovementEngine,
        ("run_phase", "iteration_sync", "upload_resident", "cache_all_shards"),
        "movement",
    ),
    (GPUDevice, ("synchronize",), "sim"),
)

COMPUTE_PHASES = ("gather_map", "gather_reduce", "apply", "frontier_activate")


def _compute_key(args) -> str:
    # run_group(self, phases, shard, count_full): one key per phase group
    return "compute." + "+".join(args[1])


class Tracer:
    """Span stack + per-layer totals of self seconds and call counts."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: sums taken from wrapped calls' return values
        self.edge_items = 0
        self.vertex_items = 0
        self.load_bytes = 0
        self.shard_edges: list[int] = []
        self._stack: list[list[float]] = []

    # -- wrapping --------------------------------------------------------
    def _wrap(self, func, layer: str):
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        keyed = layer == "compute"

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                key = _compute_key(args) if keyed else layer
                self_s[key] = self_s.get(key, 0.0) + dt - child[0]
                calls[key] = calls.get(key, 0) + 1
            self._count(layer, result)
            return result

        return wrapper

    def _count(self, layer: str, result) -> None:
        if layer == "compute":
            self.edge_items += result.edge_items
            self.vertex_items += result.vertex_items
        elif layer == "shardstore.load":
            self.load_bytes += result.nbytes
        elif layer == "partition":
            self.shard_edges = [
                s.num_in_edges + s.num_out_edges for s in result.shards
            ]

    @contextmanager
    def installed(self):
        """Wrap every entry in ``WRAPPED``; restore the exact original
        class attributes on exit, whatever the body raised."""
        originals = []
        try:
            for cls, names, layer in WRAPPED:
                for name in names:
                    original = cls.__dict__[name]
                    originals.append((cls, name, original))
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self._wrap(original.__func__, layer))
                    else:
                        wrapped = self._wrap(original, layer)
                    setattr(cls, name, wrapped)
            yield self
        finally:
            for cls, name, original in reversed(originals):
                setattr(cls, name, original)

    # -- totals ----------------------------------------------------------
    def busy(self, prefix: str) -> float:
        """Self seconds of one layer, including its sub-keys."""
        return sum(
            v for k, v in self.self_s.items()
            if k == prefix or k.startswith(prefix + ".")
        )

    def count(self, prefix: str) -> int:
        return sum(
            v for k, v in self.calls.items()
            if k == prefix or k.startswith(prefix + ".")
        )

    def total(self) -> float:
        return sum(self.self_s.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(warm: Tracer, cold: Tracer, queries: int, run, extras: dict) -> dict:
    """Per-layer metrics of one workload.

    ``warm`` traced ``queries`` warm queries, ``cold`` one cold start;
    ``run`` is the last traced query's ``GraphReduceResult`` (its
    counters repeat exactly from query to query); ``extras`` carries
    what only the caller can measure (wall clocks, store size, batch
    summary).
    """
    def per_query(layer: str) -> float:
        return warm.busy(layer) / queries

    def calls(layer: str) -> float:
        return warm.count(layer) / queries

    stats = run.stats
    plans = run.plan_cache or {}
    kernels = run.kernels or {}
    prefetch = run.prefetch or {}
    batch = extras.get("batch") or {}
    items = (warm.edge_items + warm.vertex_items) / queries
    sim_ops = stats.h2d_count + stats.d2h_count + stats.kernel_launches
    visits = stats.shards_processed + stats.shards_skipped
    edges = cold.shard_edges
    traced_wall = extras["traced_wall_s"]

    m = {
        "compute.busy_s": per_query("compute"),
        "compute.calls": calls("compute"),
        "compute.edge_items": warm.edge_items / queries,
        "compute.vertex_items": warm.vertex_items / queries,
        "compute.ns_per_item": _ratio(per_query("compute") * 1e9, items),
        "kernels.fused_calls": kernels.get("fused_calls", 0),
        "kernels.fallbacks": kernels.get("fallbacks", 0),
        "kernels.arena_reuse_rate": _ratio(
            kernels.get("reuses", 0),
            kernels.get("reuses", 0) + kernels.get("allocations", 0),
        ),
        "plans.busy_s": per_query("plans"),
        "plans.calls": calls("plans"),
        "plans.hits": plans.get("hits", 0),
        "plans.misses": plans.get("misses", 0),
        "plans.invalidations": plans.get("invalidations", 0),
        "plans.sparse_bypass": plans.get("sparse_bypass", 0),
        "plans.hit_rate": plans.get("hit_rate", 0.0),
        "plans.held_mb": plans.get("held_bytes", 0) / MB,
        "shardstore.save_s": cold.busy("shardstore.save"),
        "shardstore.open_s": cold.busy("shardstore.open"),
        "shardstore.disk_mb": extras.get("store_bytes", 0) / MB,
        "shardstore.load.busy_s": per_query("shardstore.load"),
        "shardstore.load.calls": calls("shardstore.load"),
        "shardstore.load.mb": warm.load_bytes / queries / MB,
        "prefetch.busy_s": per_query("prefetch"),
        "prefetch.hits": prefetch.get("hits", 0),
        "prefetch.faults": prefetch.get("faults", 0),
        "prefetch.waits": prefetch.get("waits", 0),
        "prefetch.evictions": prefetch.get("evictions", 0),
        "prefetch.hit_rate": prefetch.get("hit_rate", 0.0),
        "prefetch.wait_s": prefetch.get("wait_seconds", 0.0),
        "frontier.busy_s": per_query("frontier"),
        "frontier.calls": calls("frontier"),
        "runtime.frontier_sum": sum(run.frontier_history),
        "runtime.iterations": run.iterations,
        "runtime.self_s": per_query("runtime"),
        "movement.busy_s": per_query("movement"),
        "movement.h2d_mb": stats.h2d_bytes / MB,
        "movement.d2h_mb": stats.d2h_bytes / MB,
        "movement.shards_processed": stats.shards_processed,
        "movement.shards_skipped": stats.shards_skipped,
        "movement.skip_rate": _ratio(stats.shards_skipped, visits),
        "movement.kernel_launches": stats.kernel_launches,
        "sim.busy_s": per_query("sim"),
        "sim.ops": sim_ops,
        "sim.host_us_per_op": _ratio(per_query("sim") * 1e6, sim_ops),
        "sim.kernel_s": run.kernel_time,
        "sim.memcpy_busy_s": run.memcpy_busy_span,
        "sim.overlap": 1.0 - _ratio(run.sim_time, run.memcpy_time + run.kernel_time),
        "batch.busy_s": per_query("batch"),
        "batch.queries": batch.get("queries", 0),
        "batch.retired_early": batch.get("retired_early", 0),
        "batch.max_query_iterations": batch.get("max_query_iterations", 0),
        "partition.busy_s": cold.busy("partition"),
        "partition.shards": len(edges),
        "partition.edge_imbalance": _ratio(max(edges, default=0) * len(edges), sum(edges)),
        "obs.overhead_s": extras["wall_s"] - extras["bare_wall_s"],
        "trace.coverage": _ratio(warm.total(), traced_wall * queries),
        "trace.overhead": _ratio(traced_wall, extras["wall_s"]) - 1.0,
    }
    for phase in COMPUTE_PHASES:
        m[f"compute.{phase}.busy_s"] = per_query(f"compute.{phase}")
    return m
