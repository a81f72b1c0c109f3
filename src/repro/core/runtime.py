"""The GraphReduce runtime: the iteration driver of Figure 12.

Ties the engines together: the Partition Engine shards the input, the
Phase Fusion Engine builds the iteration's phase plan, and each phase
streams its active shards through the Data Movement Engine while the
Compute Engine executes the user's device functions. Phases are
bulk-synchronous (the next phase starts only when the previous completed
across all shards); within a phase, shards overlap freely.

Every Section-5 optimization is an independent switch on
:class:`GraphReduceOptions` so the Figure-15 ablation can toggle them:

* ``async_streams`` / ``spray`` -- asynchronous execution and the spray
  operation (Section 5.1),
* ``frontier_skipping`` -- dynamic frontier management (Section 5.2),
* ``fusion`` -- dynamic phase fusion/elimination (Section 5.3).

``GraphReduceOptions.unoptimized()`` is the paper's baseline
configuration; the default is everything on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.api import GASProgram
from repro.core.compute import ComputeEngine
from repro.core.frontier import DirectionController, FrontierManager
from repro.core.fusion import PhaseGroup, build_plan
from repro.core.kernels import resolve_backend
from repro.core.movement import (
    DataMovementEngine,
    HostPrefetcher,
    MovementConfig,
    MovementStats,
    optimal_concurrent_shards,
)
from repro.core.partition import PartitionEngine, ShardedGraph
from repro.core.plans import PlanCache
from repro.graph.edgelist import EdgeList
from repro.obs.span import NULL_OBSERVER, Observer
from repro.obs.telemetry import RunTelemetry, TelemetryConfig
from repro.sim.device import GPUDevice
from repro.sim.engine import Simulator
from repro.sim.specs import MachineSpec, default_machine
from repro.sim.trace import TraceRecorder


#: valid ``GraphReduceOptions.cache_policy`` values
CACHE_POLICIES = ("auto", "never", "greedy")
#: valid ``GraphReduceOptions.host_backing`` values
HOST_BACKINGS = ("dram", "ssd")


@dataclass(frozen=True)
class GraphReduceOptions:
    """Runtime configuration; defaults are the fully optimized GR."""

    num_partitions: int | None = None  # None -> Section 4.2 auto choice
    partition_logic: str = "edge_balanced"
    async_streams: bool = True
    spray: bool = True
    frontier_skipping: bool = True
    fusion: bool = True
    #: extension beyond the paper: fuse gatherMap+gatherReduce so the
    #: edge update array stays on-device (see fusion.build_plan)
    fuse_gather: bool = False
    #: one of :data:`CACHE_POLICIES`. 'auto': keep all shards resident
    #: when the graph's *canonical* footprint (Table 1's accounting, all
    #: buffer kinds) fits -- the Table-4 in-memory mode; 'never': always
    #: stream (the Table-3 regime); 'greedy': cache whenever this
    #: program's actual buffers fit, even if the canonical footprint does
    #: not (an extension beyond the paper: e.g. BFS needs no edge values,
    #: so kron21's topology alone fits the K20c).
    cache_policy: str = "auto"
    #: one of :data:`HOST_BACKINGS`. 'dram' keeps the whole graph in host memory (the paper's Table-3
    #: setting); 'ssd' backs the host with simulated flash storage so
    #: graphs larger than host DRAM stream from disk (future work,
    #: Section 8 item 2). The spilled fraction of every shard read pays
    #: an SSD pass before crossing PCIe.
    host_backing: str = "dram"
    max_iterations: int = 100_000
    #: Host-side fast paths (see :mod:`repro.core.plans`). They change
    #: only host wall-clock, never results or the simulated timeline:
    #: ``dense_fast_path`` serves a shard whose whole interval is
    #: active/changed from a stored topology-only plan and any other
    #: frontier straight from its row set (fused kernels included);
    #: ``False`` is the from-scratch reference the equivalence tests
    #: compare against.
    dense_fast_path: bool = True
    #: Kernel backend for the fused gather/apply/activate inner loops
    #: (see :mod:`repro.core.kernels`): ``"numpy"`` runs the fused
    #: shapes with whole-array primitives and arena-reused scratch
    #: buffers; ``"off"`` disables the kernel layer entirely (the
    #: generic path the equivalence tests compare against). Like the
    #: other host fast paths this changes wall-clock only: results,
    #: frontier history and the simulated timeline are bit-identical
    #: either way.
    kernel_backend: str = "numpy"
    #: Traversal direction: ``"push"`` executes the natural change-
    #: driven frontier (the paper's model); ``"pull"`` runs every
    #: iteration bottom-up with all vertices active, which the dense
    #: fast path serves from cached whole-interval plans; ``"auto"``
    #: switches per iteration with the Beamer alpha/beta rule (see
    #: :class:`repro.core.frontier.DirectionController`). Anything but
    #: ``"push"`` requires a pull-compatible gather program; results
    #: are bit-identical in every mode.
    direction: str = "push"
    direction_alpha: float = 14.0
    direction_beta: float = 24.0
    #: Removed host parallelism; kept only so existing callers passing
    #: ``0`` still construct. Any other value raises ``ValueError``.
    parallel_shards: int = 0
    #: Out-of-core execution (shard-store-backed runs only; see
    #: :mod:`repro.core.shardstore`). ``memory_budget`` bounds the host
    #: RAM spent on resident shards: the prefetcher's cache capacity comes
    #: from the Eq. (1)/(2) formula with this budget standing in for
    #: device memory (None -> every shard may stay resident); evicted
    #: shards' pages are handed back to the OS, so the budget bounds
    #: RSS. ``host_prefetch`` asks the OS to read the next scheduled
    #: shards in ahead of use (``madvise(MADV_WILLNEED)``); disabled,
    #: pages fault in on first touch. No thread is involved either way.
    #: Like the host fast paths these change wall-clock only -- results
    #: and the simulated timeline are bit-identical to in-RAM runs.
    memory_budget: int | None = None
    host_prefetch: bool = True
    trace: bool = True
    #: structured observability (hierarchical spans + typed counters,
    #: see :mod:`repro.obs`); when off the runtime uses the shared
    #: no-op recorder and the instrumentation costs one method call
    observe: bool = True
    #: telemetry stream (see :mod:`repro.obs.telemetry`): a
    #: :class:`~repro.obs.telemetry.TelemetryConfig` appends throttled
    #: JSONL snapshots to its ``out`` file from the run's own thread
    #: (``repro telemetry-report`` folds them). It bounds no memory:
    #: ``observe`` and ``trace`` are the switches for the span tree and
    #: the device trace, which grow with the run. ``None`` (default)
    #: adds nothing.
    telemetry: "TelemetryConfig | None" = None

    def __post_init__(self) -> None:
        if self.parallel_shards != 0:
            raise ValueError(
                f"parallel_shards={self.parallel_shards!r}: host parallelism was "
                "removed; shards run serially in process (only 0 is accepted)"
            )
        if self.num_partitions is not None and self.num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1 or None (auto), got {self.num_partitions!r}"
            )
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations!r}")
        for name, valid in (("cache_policy", CACHE_POLICIES), ("host_backing", HOST_BACKINGS)):
            value = getattr(self, name)
            if value not in valid:
                raise ValueError(f"unknown {name} {value!r} (valid: {', '.join(valid)})")

    @staticmethod
    def unoptimized() -> "GraphReduceOptions":
        """The Figure-15 baseline: synchronous single-stream execution,

        full-shard movement every phase, no fusion, no frontier skips."""
        return GraphReduceOptions(
            async_streams=False,
            spray=False,
            frontier_skipping=False,
            fusion=False,
            cache_policy="never",
        )

    def replace(self, **kw) -> "GraphReduceOptions":
        return replace(self, **kw)


def iteration_limit(max_iterations: int | None, opts: GraphReduceOptions) -> int:
    """A run's iteration cap: the ``run()`` argument, else the option."""
    limit = opts.max_iterations if max_iterations is None else max_iterations
    if limit < 0:
        raise ValueError(f"max_iterations must be >= 0, got {limit!r}")
    return limit


class RuntimeContext:
    """Graph-level read-only state exposed to user device functions.

    Degree arrays are counted on first use into ``degrees`` (one dict
    per engine) and handed out read-only, like a store's mapped views."""

    def __init__(self, edges: EdgeList, degrees: dict | None = None):
        self.num_vertices = edges.num_vertices
        self.num_edges = edges.num_edges
        self._edges = edges
        self._degrees = {} if degrees is None else degrees

    def _degree(self, side: str) -> np.ndarray:
        arr = self._degrees.get(side)
        if arr is None:
            arr = getattr(self._edges, f"{side}_degrees")()
            arr.flags.writeable = False
            self._degrees[side] = arr
        return arr

    @property
    def out_degrees(self) -> np.ndarray:
        return self._degree("out")

    @property
    def in_degrees(self) -> np.ndarray:
        return self._degree("in")


@dataclass(frozen=True)
class IterationStat:
    """Per-iteration accounting (the Figure-3/16 views plus traffic)."""

    iteration: int
    frontier_size: int
    h2d_bytes: int
    d2h_bytes: int
    sim_seconds: float
    shards_processed: int
    shards_skipped: int
    #: execution direction this iteration ran in ('push' or 'pull');
    #: frontier_size stays the *natural* frontier either way
    direction: str = "push"


@dataclass
class GraphReduceResult:
    """Output values plus the simulated performance accounting."""

    vertex_values: np.ndarray
    iterations: int
    converged: bool
    #: simulated wall time of the whole run, seconds
    sim_time: float
    #: summed transfer durations, both directions (Figure 15's metric)
    memcpy_time: float
    #: summed kernel durations
    kernel_time: float
    #: time during which at least one transfer was in flight
    memcpy_busy_span: float
    stats: MovementStats
    frontier_history: list[int]
    #: True when every shard stayed resident (Table-4 in-memory mode)
    in_memory_mode: bool
    num_partitions: int
    concurrent_shards: int
    edge_state: np.ndarray | None = None
    #: full device trace (intervals) for energy/overlap analysis
    trace: "TraceRecorder | None" = None
    #: per-iteration frontier/traffic/time breakdown
    iteration_stats: list[IterationStat] = field(default_factory=list)
    #: span tree + metrics of the run (None when options.observe is off)
    observer: "Observer | None" = None
    _engine_snapshots: object = field(default=None, repr=False)  # or its builder
    #: plan totals of the host fast path (dense-plan hits/misses/
    #: hit_rate, row-built ``sparse_bypass``, held bytes); None when
    #: ``dense_fast_path`` was off
    plan_cache: dict | None = None
    #: kernel-layer totals (backend, fused_calls, fallbacks, arena
    #: reuse); None when ``kernel_backend`` was "off"
    kernels: dict | None = None
    #: host prefetcher totals: hits, faults, evictions, bytes loaded
    #: and released (shard-store runs only; None for in-RAM runs)
    prefetch: dict | None = None
    #: telemetry summary (schema, records emitted, sink path); None
    #: unless ``options.telemetry`` was set
    telemetry: dict | None = None
    #: per-iteration :class:`repro.core.frontier.DirectionDecision`
    #: records (options.direction != 'push' only; None otherwise)
    direction_decisions: list | None = None
    #: batch-executor summary (layout, query count, per-query retirement
    #: iterations) for programs exposing ``batch_stats()``; None for
    #: ordinary single-query programs
    batch: dict | None = None

    @property
    def engine_snapshots(self) -> dict | None:
        """Per-engine busy/utilization timelines (None when options.trace
        is off), for :mod:`repro.obs.profile`; built on first read."""
        if callable(self._engine_snapshots):
            self._engine_snapshots = self._engine_snapshots()
        return self._engine_snapshots

    @property
    def memcpy_fraction(self) -> float:
        """Share of execution occupied by transfers (paper: >95% for the

        large graphs). Uses the busy span so overlap is not
        double-counted."""
        return self.memcpy_busy_span / self.sim_time if self.sim_time > 0 else 0.0


class GraphReduce:
    """One GraphReduce execution context over a fixed input graph.

    >>> from repro.graph.generators import path_graph
    >>> from repro.algorithms.bfs import BFS
    >>> engine = GraphReduce(path_graph(4))
    >>> result = engine.run(BFS(source=0))
    >>> result.vertex_values.tolist()
    [0.0, 1.0, 2.0, 3.0]
    """

    def __init__(
        self,
        edges: EdgeList | None = None,
        machine: MachineSpec | None = None,
        options: GraphReduceOptions | None = None,
        partition_engine: PartitionEngine | None = None,
        shard_store=None,
    ):
        if shard_store is not None and not hasattr(shard_store, "load_arrays"):
            from repro.core.shardstore import ShardStore

            shard_store = ShardStore.open(shard_store)
        self.shard_store = shard_store
        if edges is None:
            if shard_store is None:
                raise ValueError("GraphReduce needs an edge list or a shard store")
            edges = shard_store.edgelist()
        self.edges = edges
        self.machine = machine or default_machine()
        self.options = options or GraphReduceOptions()
        self.partition_engine = partition_engine or PartitionEngine()
        # Sharded graphs (and so their dense plans, see repro.core.plans)
        # by partitioning, weighting and edge-list identity; a store's
        # lazy view by ("store", unit_weights).
        self._sharded_cache: dict[tuple, ShardedGraph] = {}
        # Phase tapes (repro.sim.tape), one book per sharded graph and
        # DataMovementEngine.tape_key(), so warm queries reuse them.
        self._tapes: dict[tuple, dict] = {}
        # Once per engine, not per run: the unit-weight view (the cache
        # above is keyed by its identity) and the degree arrays.
        self._unit_edges: EdgeList | None = None
        self._degrees: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def run(self, program: GASProgram, max_iterations: int | None = None) -> GraphReduceResult:
        """Execute ``program`` to convergence on the simulated machine."""
        opts = self.options
        limit = iteration_limit(max_iterations, opts)
        program.validate()
        if opts.direction not in ("push", "pull", "auto"):
            raise ValueError(f"unknown direction {opts.direction!r}")
        if opts.direction != "push" and not (
            program.pull_compatible and program.has_gather
        ):
            raise ValueError(
                f"direction={opts.direction!r} needs a pull-compatible gather "
                f"program; {type(program).__name__} is push-only (its apply "
                "treats activation as information, so a superset frontier "
                "would change results)"
            )
        edges = self.edges
        if program.needs_weights and edges.weights is None:
            if self._unit_edges is None:
                self._unit_edges = edges.with_unit_weights()
            edges = self._unit_edges
        ctx = RuntimeContext(edges, self._degrees)

        # --- Simulated device + observability --------------------------
        sim = Simulator()
        obs = Observer(clock=lambda: sim.now) if opts.observe else NULL_OBSERVER
        telem = (
            RunTelemetry(opts.telemetry, sim=sim, obs=obs)
            if opts.telemetry is not None
            else None
        )
        run_span_cm = obs.span(
            "run", category="run", algo=program.name, graph=edges.name
        )
        run_span = run_span_cm.__enter__()

        # --- Partition Engine -----------------------------------------
        with_weights = program.needs_weights
        with_state = program.edge_dtype is not None
        resident_bytes = self._resident_bytes(program, edges.num_vertices)
        prefetcher = None
        telemetry_summary = None
        # Initialized before the try so the telemetry run_end in the
        # finally block has defined values even when setup raises.
        converged = False
        iteration = 0
        run_error = None
        # One try/finally covers everything from here on: the prefetcher's
        # resident pages and the telemetry sink must be released even
        # when setup or an iteration raises mid-run.
        try:
            with obs.span("partition", category="setup") as part_span:
                if self.shard_store is not None:
                    graph_key, sharded, prefetcher = self._open_store(
                        opts,
                        with_weights,
                        with_state,
                        resident_bytes,
                        obs,
                        telemetry=telem,
                    )
                    part_span.set(
                        num_partitions=sharded.num_partitions,
                        logic=self.shard_store.logic,
                        shard_store=str(self.shard_store.path),
                        prefetch_capacity=prefetcher.capacity,
                    )
                else:
                    p = opts.num_partitions or PartitionEngine.choose_num_partitions(
                        edges,
                        self.machine.device.memory_bytes,
                        with_weights,
                        with_state,
                        resident_bytes,
                    )
                    graph_key = (p, opts.partition_logic, with_weights, id(edges))
                    sharded = self._sharded_cache.get(graph_key)
                    if sharded is None:
                        sharded = self.partition_engine.partition(edges, p, opts.partition_logic)
                        self._sharded_cache[graph_key] = sharded
                    part_span.set(
                        num_partitions=sharded.num_partitions, logic=opts.partition_logic
                    )

            kernels = resolve_backend(opts.kernel_backend)
            if telem is not None:
                telem.start(
                    algorithm=program.name,
                    graph=edges.name,
                    kernel_backend=opts.kernel_backend,
                    num_vertices=edges.num_vertices,
                    num_edges=edges.num_edges,
                    num_shards=sharded.num_partitions,
                )

            device = GPUDevice(sim, self.machine.device, TraceRecorder(enabled=opts.trace))
            movement = DataMovementEngine(
                device,
                sharded,
                MovementConfig(async_streams=opts.async_streams, spray=opts.spray),
                with_weights,
                with_state,
                obs=obs,
            )
            if opts.host_backing == "ssd":
                from repro.sim.resources import FluidResource

                host = self.machine.host
                graph_host_bytes = sum(
                    s.total_bytes(with_weights, with_state) for s in sharded.shards
                ) + resident_bytes
                spill = max(0.0, 1.0 - host.memory_bytes / max(graph_host_bytes, 1))
                ssd = FluidResource(
                    sim, host.ssd_bandwidth, max_concurrent=host.ssd_queue_depth, name="ssd"
                )
                movement.ssd, device.ssd = (ssd, spill), ssd
            with obs.span("resident", category="phase"):
                movement.upload_resident(self._resident_buffers(program, edges.num_vertices))
            in_memory = False
            with obs.span("cache", category="phase") as cache_span:
                if opts.cache_policy == "auto":
                    from repro.graph.properties import footprint_bytes

                    if footprint_bytes(edges) <= self.machine.device.memory_bytes:
                        in_memory = movement.cache_all_shards()
                elif opts.cache_policy == "greedy":
                    in_memory = movement.cache_all_shards()
                if not in_memory:
                    movement.reserve_stage_slots()
                movement.tapes = self._tapes.setdefault((graph_key, movement.tape_key()), {})
                # Everything the profiler's Eq. (1)/(2) replay needs to
                # re-derive K from first principles lives on this span.
                cache_span.set(
                    policy=opts.cache_policy,
                    in_memory=in_memory,
                    k=movement.k,
                    async_streams=opts.async_streams,
                    max_shard_bytes=movement.max_shard_bytes,
                    interval_bytes=movement.interval_bytes,
                    resident_bytes=resident_bytes,
                    device_memory=self.machine.device.memory_bytes,
                    num_partitions=sharded.num_partitions,
                )

            # --- Compute side ------------------------------------------
            frontier = FrontierManager(
                sharded, np.asarray(program.init_frontier(ctx), dtype=bool), obs=obs
            )
            plans = PlanCache(sharded, frontier, obs=obs, dense=opts.dense_fast_path)
            if kernels is not None:
                obs.add(f"kernels.backend.{kernels.name}")
            compute = ComputeEngine(
                sharded, program, ctx, frontier, obs=obs, plans=plans, kernels=kernels
            )
            if telem is not None and plans.enabled:
                telem.add_source("plan_cache", plans.stats)
            if telem is not None and kernels is not None:
                telem.add_source("kernels", compute.kernel_stats)
            if telem is not None and hasattr(program, "batch_stats"):
                # Per-query lanes for the monitor: retirement progress
                # rides the same snapshot stream as the other sources.
                telem.add_source("batch", program.batch_stats)
            plan = build_plan(
                program, optimized=opts.fusion, fuse_gather=opts.fuse_gather, obs=obs
            )
            # --- Iterations --------------------------------------------
            controller = None
            if opts.direction != "push":
                controller = DirectionController(
                    opts.direction,
                    ctx.out_degrees,
                    edges.num_edges,
                    edges.num_vertices,
                    alpha=opts.direction_alpha,
                    beta=opts.direction_beta,
                )
            frontier_bytes = edges.num_vertices // 8 + 1
            iteration_stats: list[IterationStat] = []
            end_hook = type(program).end_iteration is not GASProgram.end_iteration
            while iteration < limit:
                if program.always_active:
                    frontier.activate_all()
                if frontier.size == 0:
                    reseed = program.reseed_frontier(ctx, compute.vertex_values)
                    if reseed is None or not np.any(reseed):
                        converged = True
                        break
                    frontier.set_current(reseed)
                if program.converged(ctx, iteration, frontier.size):
                    converged = True
                    break
                frontier_size = frontier.size
                direction = "push"
                if controller is not None:
                    direction = controller.choose(
                        frontier.current, iteration, vids=frontier.compact_indices
                    )
                    if direction == "pull":
                        # Bottom-up: run the iteration with every vertex
                        # active. The natural next frontier still comes
                        # from FA over the changed set, so termination
                        # and the direction rule are unaffected.
                        frontier.activate_all()
                t0 = sim.now
                h2d0, d2h0 = movement.stats.h2d_bytes, movement.stats.d2h_bytes
                proc0, skip0 = movement.stats.shards_processed, movement.stats.shards_skipped
                compute.begin_iteration(iteration)
                # Over in-RAM shards, each group of an iteration whose
                # frontier is uniform -- every vertex active, or rows that
                # fill no shard interval -- runs once over the whole graph;
                # anything else, and a group run_merged declines, shard by shard.
                merge = (
                    prefetcher is None
                    and opts.frontier_skipping
                    and compute.can_merge(plan)
                    and (frontier.all_active or frontier.sparse_everywhere())
                )
                with obs.span(
                    "iteration",
                    category="iteration",
                    index=iteration,
                    frontier=frontier_size,
                    direction=direction,
                ) as it_span:
                    for group in plan:
                        shards, skipped = self._select_shards(group, sharded, frontier, opts)
                        # Only a group that streams edges acquires its
                        # shards, and only the frontier-selected ones:
                        # skipped shards are neither hinted nor faulted.
                        pf = prefetcher if group.streams_edges else None
                        if pf is not None:
                            pf.schedule([s.index for s in shards])
                        if shards:
                            compute.begin_group(group.phases)
                        census = compute.run_merged(group.phases, shards) if merge else None

                        def run_shard(shard, g=group, pf=pf, census=census):
                            if census is not None:
                                return census[shard.index]
                            if pf is not None:
                                pf.get(shard.index)
                            return compute.run_group(g.phases, shard, not opts.frontier_skipping)

                        with obs.span(
                            group.name,
                            category="phase",
                            selector=group.selector,
                            shards=len(shards),
                            skipped=skipped,
                        ):
                            movement.run_phase(group, shards, skipped, run_shard)
                    with obs.span("frontier", category="phase"):
                        movement.iteration_sync(frontier_bytes)
                    stat = IterationStat(
                        iteration=iteration,
                        frontier_size=frontier_size,
                        h2d_bytes=movement.stats.h2d_bytes - h2d0,
                        d2h_bytes=movement.stats.d2h_bytes - d2h0,
                        sim_seconds=sim.now - t0,
                        shards_processed=movement.stats.shards_processed - proc0,
                        shards_skipped=movement.stats.shards_skipped - skip0,
                        direction=direction,
                    )
                    it_span.set(h2d_bytes=stat.h2d_bytes, d2h_bytes=stat.d2h_bytes)
                iteration_stats.append(stat)
                obs.add("runtime.iterations")
                if telem is not None:
                    telem.iteration(iteration, frontier_size, direction=direction)
                if end_hook:
                    # Before advance clears the changed mask, so the
                    # hook sees the iteration's final values.
                    program.end_iteration(
                        ctx, compute.vertex_values, frontier.changed, iteration
                    )
                frontier.advance()
                iteration += 1
            else:
                converged = frontier.size == 0
        except BaseException as exc:
            # Captured explicitly: sys.exc_info() in the finally would
            # also see an *outer* exception the caller is handling.
            run_error = exc
            raise
        finally:
            if prefetcher is not None:
                prefetcher.shutdown()
            if telem is not None:
                # Emits run_end and closes the sink even when setup or
                # a phase raised.
                telemetry_summary = telem.finish(
                    iteration,
                    converged,
                    error=repr(run_error) if run_error else None,
                )

        run_span.set(iterations=iteration, converged=converged)
        run_span_cm.__exit__(None, None, None)
        trace = device.trace
        batch_summary = None
        if hasattr(program, "batch_stats"):
            batch_summary = program.batch_stats()
            if batch_summary and obs.enabled:
                for key, value in batch_summary.items():
                    if isinstance(value, bool) or not isinstance(value, int):
                        continue
                    obs.add(f"batch.{key}", value)
        memcpy_time, kernel_time, memcpy_busy_span = trace.breakdown()
        return GraphReduceResult(
            vertex_values=compute.vertex_values,
            iterations=iteration,
            converged=converged,
            sim_time=sim.now,
            memcpy_time=memcpy_time,
            kernel_time=kernel_time,
            memcpy_busy_span=memcpy_busy_span,
            stats=movement.stats,
            frontier_history=frontier.history,
            in_memory_mode=in_memory,
            num_partitions=sharded.num_partitions,
            concurrent_shards=movement.k,
            edge_state=compute.edge_state,
            trace=trace,
            iteration_stats=iteration_stats,
            observer=obs if obs.enabled else None,
            _engine_snapshots=device.engine_snapshots if opts.trace else None,
            plan_cache=plans.stats() if plans.enabled else None,
            kernels=compute.kernel_stats(),
            prefetch=prefetcher.snapshot() if prefetcher is not None else None,
            telemetry=telemetry_summary,
            direction_decisions=(
                controller.decisions if controller is not None else None
            ),
            batch=batch_summary,
        )

    # ------------------------------------------------------------------
    def _open_store(self, opts, with_weights, with_state, resident_bytes, obs, telemetry=None):
        """(graph key, lazy sharded view, budgeted prefetcher) over
        ``shard_store``.

        The view is kept per weighting, so its dense plans serve every
        later run; each run binds its shards to a fresh prefetcher, so
        no residency carries over. The prefetcher's cache capacity is
        Eq. (1)/(2) with the host ``memory_budget`` in place of device
        memory: how many whole shards (plus their interval's share of
        vertex staging and the resident vertex arrays) fit the budget.
        No budget -> every shard may stay resident, like a host whose
        RAM fits the graph. ``host_prefetch`` off issues no read-ahead
        hints.
        """
        store = self.shard_store
        if opts.num_partitions and opts.num_partitions != store.num_partitions:
            raise ValueError(
                f"options request {opts.num_partitions} partitions but the "
                f"shard store was built with {store.num_partitions}"
            )
        if opts.memory_budget is not None and opts.memory_budget < 0:
            raise ValueError(
                f"memory_budget must be >= 0 bytes or None, got {opts.memory_budget}"
            )
        unit_weights = with_weights and not store.weighted
        key = ("store", unit_weights)
        sharded = self._sharded_cache.get(key)
        if sharded is None:
            sharded = self._sharded_cache[key] = store.sharded_graph(unit_weights=unit_weights)
        if opts.memory_budget is not None:
            capacity = optimal_concurrent_shards(
                opts.memory_budget,
                resident_bytes,
                store.max_interval_vertices() * 4,
                sharded.max_shard_bytes(with_weights, with_state),
                store.num_partitions,
                hardware_limit=store.num_partitions,
            )
        else:
            capacity = store.num_partitions
        prefetcher = HostPrefetcher(
            store, capacity, obs=obs, unit_weights=unit_weights, advise=opts.host_prefetch
        )
        for shard in sharded.shards:
            shard.bind(prefetcher)
        if telemetry is not None:
            telemetry.add_source("prefetch", prefetcher.snapshot)
        return key, sharded, prefetcher

    # ------------------------------------------------------------------
    @staticmethod
    def _select_shards(
        group: PhaseGroup,
        sharded: ShardedGraph,
        frontier: FrontierManager,
        opts: GraphReduceOptions,
    ):
        """Shard work list for one phase (+ how many were skipped)."""
        if not opts.frontier_skipping or group.selector == "all":
            return list(sharded.shards), 0
        if group.selector == "active":
            ids = frontier.active_shards()
        else:
            ids = frontier.changed_shards()
        shards = [sharded.shards[i] for i in ids]
        return shards, sharded.num_partitions - len(shards)

    @staticmethod
    def _resident_buffers(program: GASProgram, n: int) -> dict[str, int]:
        """Static buffers (Section 3.2): uploaded once, device-resident."""
        vdt = np.dtype(program.vertex_dtype).itemsize
        gdt = np.dtype(program.gather_dtype).itemsize
        # Batched programs carry one state column per query, so the
        # resident vertex buffers scale with the batch width (the shard
        # topology does not) -- the partition choice must account for it.
        width = getattr(program, "state_cols", None) or 1
        return {
            "vertex_values": n * vdt * width,
            "vertex_update_array": n * gdt * width,  # the gather result
            "frontier_flags": 3 * (n // 8 + 1),  # current/next/changed bitmaps
            "degrees": n * 4,
        }

    @classmethod
    def _resident_bytes(cls, program: GASProgram, n: int) -> int:
        return sum(cls._resident_buffers(program, n).values())
