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

from repro.baselines.executor import HostGASExecutor
from repro.core.api import GASProgram
from repro.core.fusion import build_plan
from repro.graph.edgelist import EdgeList
from repro.obs.span import NULL_OBSERVER, Observer
from repro.sim.specs import MachineSpec, default_machine


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
        observe: bool = True,
    ):
        self.edges = edges
        self.machine = machine or default_machine()
        self.config = config or AdaptiveConfig()
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
        # The semantic iterations are the host executor's (identical on
        # both sides); this engine only decides where each one runs.
        host = HostGASExecutor(self.edges, program, self.config.num_partitions)
        phases = len(build_plan(program, optimized=True))
        # Bytes per active edge when streaming shards (topology + update
        # array + weights), the dominant GPU-side cost.
        bytes_per_edge = 12 + (8 if program.needs_weights else 0)
        vdt = np.dtype(program.vertex_dtype).itemsize
        n = self.edges.num_vertices
        # Shard-granular streaming: one active vertex moves its whole
        # shard, so the executor's partition_of gives the touched fraction.
        total_stream_bytes = self.edges.num_edges * bytes_per_edge
        placement: list[str] = []
        gpu_time = cpu_time = switch_time = 0.0
        side = "gpu"  # vertex state starts on the device
        switches = 0
        # The adaptive engine has no event simulator; its clock is the
        # accumulated predicted time, so spans still line up end to end.
        clock = {"now": 0.0}
        obs = Observer(clock=lambda: clock["now"]) if self.observe else NULL_OBSERVER

        def place(iteration: int, active: np.ndarray) -> None:
            nonlocal side, switches, gpu_time, cpu_time, switch_time
            deg = host.csc.indptr[active + 1] - host.csc.indptr[active]
            active_edges = int(deg.sum()) if program.has_gather else len(active)
            touched = len(np.unique(host.partition_of[active])) / host.num_partitions
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
            with obs.span(
                "iteration", category="iteration", index=iteration, placement=side,
                frontier=len(active),
            ):
                if side == "gpu":
                    gpu_time += gpu_cost
                    clock["now"] += gpu_cost
                    obs.add("adaptive.gpu_iterations")
                else:
                    cpu_time += cpu_cost
                    clock["now"] += cpu_cost
                    obs.add("adaptive.cpu_iterations")

        with obs.span("run", category="run", algo=program.name, graph=self.edges.name) as run_span:
            trace = host.run(max_iterations, on_iteration=place)
            run_span.set(iterations=trace.iterations, converged=trace.converged, switches=switches)
        return AdaptiveResult(
            vertex_values=trace.vertex_values,
            iterations=trace.iterations,
            converged=trace.converged,
            sim_time=gpu_time + cpu_time + switch_time,
            placement=placement,
            gpu_time=gpu_time,
            cpu_time=cpu_time,
            switch_time=switch_time,
            switches=switches,
            observer=obs if self.observe else None,
        )
