"""Adaptive processor choice (the paper's future work, Section 8

item 4: "how dynamic profiling and processor choice (i.e., GPU vs CPU
execution) could be integrated into GraphReduce").

The :class:`AdaptiveEngine` runs the same BSP iterations as GraphReduce
but decides *per iteration* whether the GPU or the host CPU executes it,
from a lightweight cost prediction over the frontier census:

* GPU iteration cost ~ bytes of active shards over PCIe (plus launch
  overheads) -- cheap when frontiers are large and shard skipping is
  ineffective anyway, expensive per useful edge when frontiers are tiny;
* CPU iteration cost ~ active edges at the host's graph-processing rate
  -- unbeatable for a handful of active vertices, hopeless for full
  sweeps.

Switching sides mid-run costs a vertex-state transfer over PCIe, which
the predictor charges before it flips. The engine therefore tends to
run the dense middle of a BFS on the GPU and the long sparse tail on
the CPU -- with high-diameter inputs showing the largest wins, as the
ablation benchmark demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import GASProgram
from repro.core.fusion import build_plan
from repro.core.partition import PartitionEngine
from repro.core.runtime import GraphReduce, GraphReduceOptions, RuntimeContext
from repro.graph.csr import (
    build_csc,
    build_csr,
    dense_rows,
    dense_segments,
    ragged_gather,
    segment_reduce,
)
from repro.graph.edgelist import EdgeList
from repro.obs.span import NULL_OBSERVER, Observer
from repro.sim.specs import HostSpec, MachineSpec, default_machine


@dataclass
class AdaptiveResult:
    vertex_values: np.ndarray
    iterations: int
    converged: bool
    sim_time: float
    #: 'gpu' or 'cpu' per executed iteration
    placement: list[str]
    #: seconds spent per side (including switch transfers)
    gpu_time: float
    cpu_time: float
    switch_time: float
    switches: int
    #: span tree + metrics (None when observe=False)
    observer: "Observer | None" = None


@dataclass(frozen=True)
class AdaptiveConfig:
    #: host-side effective processing rate for GAS iterations, edges/s
    cpu_edge_rate: float = 50e6
    #: per-iteration host overhead (thread fork/join), seconds
    cpu_iteration_overhead: float = 1e-5
    #: GPU per-kernel launch + sync overhead per phase, seconds
    gpu_phase_overhead: float = 3e-5
    #: shard granularity of GPU streaming: one active vertex drags its
    #: whole shard across PCIe
    num_partitions: int = 16


class AdaptiveEngine:
    """Per-iteration GPU/CPU placement over one graph."""

    def __init__(
        self,
        edges: EdgeList,
        machine: MachineSpec | None = None,
        config: AdaptiveConfig | None = None,
        num_partitions: int | None = None,
        observe: bool = True,
    ):
        self.edges = edges
        self.machine = machine or default_machine()
        self.config = config or AdaptiveConfig()
        self.num_partitions = num_partitions
        self.observe = observe

    # ------------------------------------------------------------------
    def _iteration_costs(self, active_edges: int, active_bytes: int, phases: int):
        """(gpu_seconds, cpu_seconds) predictions for one iteration."""
        cfg = self.config
        dev = self.machine.device
        gpu = (
            active_bytes / dev.pcie_bandwidth
            + phases * cfg.gpu_phase_overhead
            + active_edges / dev.edge_rate_seq
        )
        cpu = cfg.cpu_iteration_overhead + active_edges / cfg.cpu_edge_rate
        return gpu, cpu

    def run(self, program: GASProgram, max_iterations: int = 100_000) -> AdaptiveResult:
        program.validate()
        edges = self.edges
        if program.needs_weights and edges.weights is None:
            edges = edges.with_unit_weights()
        ctx = RuntimeContext(edges)
        csc = build_csc(edges)
        csr = build_csr(edges)
        csc_w = None if edges.weights is None else edges.weights[csc.edge_ids]
        csr_w = None if edges.weights is None else edges.weights[csr.edge_ids]
        plan = build_plan(program, optimized=True)
        phases = len(plan)
        # Bytes per active edge when streaming shards (topology + update
        # array + weights), the dominant GPU-side cost.
        bytes_per_edge = 12 + (8 if program.needs_weights else 0)
        vdt = np.dtype(program.vertex_dtype).itemsize

        n = edges.num_vertices
        # Shard-granular streaming model: partition_of drives touched
        # fractions, since a single active vertex moves its whole shard.
        p = max(1, min(self.config.num_partitions, max(n, 1)))
        bounds = np.linspace(0, n, p + 1).astype(np.int64)
        partition_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
        total_stream_bytes = edges.num_edges * bytes_per_edge
        frontier = np.asarray(program.init_frontier(ctx), dtype=bool)
        values = np.asarray(program.init_vertices(ctx)).astype(program.vertex_dtype, copy=False)
        edge_state = program.init_edge_state(ctx)

        placement: list[str] = []
        # Dense-frontier fast path (host-only, same trick as
        # repro.core.plans): when every vertex is active/changed the
        # edge enumeration is a function of topology alone, built once.
        dense_in = None  # (seg, starts, rows_with_edges) over the CSC
        dense_out_seg = None  # per-edge source row over the CSR
        gpu_time = cpu_time = switch_time = 0.0
        side = "gpu"  # vertex state starts on the device
        switches = 0
        converged = False
        iteration = 0
        # The adaptive engine has no event simulator; its clock is the
        # accumulated predicted time, so spans still line up end to end.
        clock = {"now": 0.0}
        obs = Observer(clock=lambda: clock["now"]) if self.observe else NULL_OBSERVER
        run_cm = obs.span("run", category="run", algo=program.name, graph=edges.name)
        run_span = run_cm.__enter__()
        while iteration < max_iterations:
            if program.always_active:
                frontier[:] = True
            active = np.flatnonzero(frontier)
            if len(active) == 0:
                converged = True
                break
            if program.converged(ctx, iteration, len(active)):
                converged = True
                break
            # ---- placement decision ----------------------------------
            deg = csc.indptr[active + 1] - csc.indptr[active]
            active_edges = int(deg.sum()) if program.has_gather else len(active)
            touched = len(np.unique(partition_of[active])) / p
            active_bytes = touched * total_stream_bytes
            gpu_cost, cpu_cost = self._iteration_costs(active_edges, active_bytes, phases)
            transfer = n * vdt / self.machine.device.pcie_bandwidth
            want = "gpu" if gpu_cost <= cpu_cost else "cpu"
            if want != side:
                # Only flip when the gain pays for moving vertex state.
                if abs(gpu_cost - cpu_cost) > transfer:
                    side = want
                    switches += 1
                    switch_time += transfer
                    clock["now"] += transfer
                    obs.add("adaptive.switches")
                    obs.event("switch", category="adaptive", to=side)
            placement.append(side)
            it_cm = obs.span(
                "iteration",
                category="iteration",
                index=iteration,
                placement=side,
                frontier=len(active),
            )
            it_cm.__enter__()
            if side == "gpu":
                gpu_time += gpu_cost
                clock["now"] += gpu_cost
                obs.add("adaptive.gpu_iterations")
            else:
                cpu_time += cpu_cost
                clock["now"] += cpu_cost
                obs.add("adaptive.cpu_iterations")
            it_cm.__exit__(None, None, None)

            # ---- semantic execution (identical on both sides) --------
            gathered = np.full(len(active), program.gather_identity, dtype=program.gather_dtype)
            has = np.zeros(len(active), dtype=bool)
            if program.has_gather:
                if len(active) == n:
                    if dense_in is None:
                        dense_in = (dense_rows(csc.indptr), *dense_segments(csc.indptr))
                    seg, starts, seg_verts = dense_in
                    n_sel = len(seg)
                    src = csc.indices
                    w = csc_w
                    st = None if edge_state is None else edge_state[csc.edge_ids]
                else:
                    pos, seg = ragged_gather(csc.indptr, active)
                    n_sel = len(pos)
                    if n_sel:
                        src = csc.indices[pos]
                        w = None if csc_w is None else csc_w[pos]
                        st = None if edge_state is None else edge_state[csc.edge_ids[pos]]
                        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
                        seg_verts = seg[starts]
                if n_sel:
                    contrib = program.gather_map(ctx, src, seg.astype(src.dtype), values[src], w, st)
                    red = segment_reduce(program.gather_reduce, contrib, starts)
                    slot = np.searchsorted(active, seg_verts)
                    gathered[slot] = red.astype(program.gather_dtype, copy=False)
                    has[slot] = True
            new_vals, changed = program.apply(ctx, active, values[active], gathered, has, iteration)
            changed = np.asarray(changed, dtype=bool)
            values[active] = np.asarray(new_vals).astype(program.vertex_dtype, copy=False)
            changed_ids = active[changed]
            if len(changed_ids) == n:
                if dense_out_seg is None:
                    dense_out_seg = dense_rows(csr.indptr)
                seg = dense_out_seg
                out_indices = csr.indices
                eids = csr.edge_ids
                w = csr_w
            else:
                pos, seg = ragged_gather(csr.indptr, changed_ids)
                out_indices = csr.indices[pos]
                eids = csr.edge_ids[pos] if program.has_scatter and len(pos) else None
                w = None if csr_w is None or eids is None else csr_w[pos]
            if program.has_scatter and len(seg):
                st = None if edge_state is None else edge_state[eids]
                out = program.scatter(ctx, seg.astype(np.int32), values[seg], w, st)
                if edge_state is not None:
                    edge_state[eids] = out
            frontier = np.zeros(n, dtype=bool)
            frontier[out_indices] = True
            iteration += 1
        else:
            converged = frontier.sum() == 0

        run_span.set(iterations=iteration, converged=converged, switches=switches)
        run_cm.__exit__(None, None, None)
        return AdaptiveResult(
            vertex_values=values,
            iterations=iteration,
            converged=converged,
            sim_time=gpu_time + cpu_time + switch_time,
            placement=placement,
            gpu_time=gpu_time,
            cpu_time=cpu_time,
            switch_time=switch_time,
            switches=switches,
            observer=obs if self.observe else None,
        )
