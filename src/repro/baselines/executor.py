"""Shared host-side GAS executor.

Every baseline framework runs the same bulk-synchronous GAS semantics as
GraphReduce -- what differs between GraphChi, X-Stream, CuSha and
MapGraph is *how* the data is laid out and moved, i.e. the cost model.
This executor performs the semantic computation once per framework run
(on global CSC/CSR with frontier tracking, mirroring
:class:`repro.core.compute.ComputeEngine`) and records the per-iteration
activity census each framework's cost model consumes:

* how many vertices were active / changed,
* how many in-edges were gathered,
* how many out-edges carried updates,
* and how many of those updates stayed *partition-local* -- the quantity
  that makes X-Stream's shuffle cheap on meshes and expensive on
  Kronecker graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import GASProgram
from repro.core.runtime import RuntimeContext
from repro.graph.csr import build_csc, build_csr, ragged_gather, segment_reduce
from repro.graph.edgelist import EdgeList


@dataclass(frozen=True)
class IterationProfile:
    """Activity census of one BSP iteration."""

    active_vertices: int
    #: in-edges actually gathered (0 for apply-only programs)
    active_in_edges: int
    #: in-edges *incident* to active vertices, regardless of phases --
    #: what a vertex-centric subgraph loader (GraphChi) must materialize
    incident_in_edges: int
    changed_vertices: int
    changed_out_edges: int
    local_out_edges: int  # changed out-edges with dst in src's partition
    touched_partitions: int  # partitions holding >= 1 active vertex
    num_partitions: int

    @property
    def touched_fraction(self) -> float:
        return self.touched_partitions / max(self.num_partitions, 1)


@dataclass
class ExecutionTrace:
    vertex_values: np.ndarray
    profiles: list[IterationProfile]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.profiles)


class HostGASExecutor:
    """Reference BSP execution with activity profiling.

    ``num_partitions`` only affects the locality census (frameworks with
    partitioned layouts pass their own partition count); results are
    partition-independent.
    """

    def __init__(self, edges: EdgeList, program: GASProgram, num_partitions: int = 16):
        program.validate()
        if program.needs_weights and edges.weights is None:
            edges = edges.with_unit_weights()
        self.edges = edges
        self.program = program
        self.ctx = RuntimeContext(edges)
        self.csc = build_csc(edges)
        self.csr = build_csr(edges)
        n = edges.num_vertices
        p = max(1, min(num_partitions, max(n, 1)))
        self.num_partitions = p
        bounds = np.linspace(0, n, p + 1).astype(np.int64)
        self.partition_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
        self._csc_w = None if edges.weights is None else edges.weights[self.csc.edge_ids]

    def run(self, max_iterations: int = 100_000, on_iteration=None) -> ExecutionTrace:
        """``on_iteration(iteration, active)``, if given, is called before
        each iteration's gather (the adaptive engine places it there)."""
        prog, ctx = self.program, self.ctx
        n = self.edges.num_vertices
        frontier = np.asarray(prog.init_frontier(ctx), dtype=bool)
        values = np.asarray(prog.init_vertices(ctx)).astype(prog.vertex_dtype, copy=False)
        edge_state = prog.init_edge_state(ctx)
        profiles: list[IterationProfile] = []
        converged = False
        for iteration in range(max_iterations):
            if prog.always_active:
                frontier[:] = True
            active = np.flatnonzero(frontier)
            if len(active) == 0:
                converged = True
                break
            if prog.converged(ctx, iteration, len(active)):
                converged = True
                break
            if on_iteration is not None:
                on_iteration(iteration, active)
            # ---- gather -------------------------------------------------
            gathered = np.full(len(active), prog.gather_identity, dtype=prog.gather_dtype)
            has = np.zeros(len(active), dtype=bool)
            gathered_edges = 0
            if prog.has_gather:
                pos, seg = ragged_gather(self.csc.indptr, active)
                gathered_edges = len(pos)
                if gathered_edges:
                    src = self.csc.indices[pos]
                    w = None if self._csc_w is None else self._csc_w[pos]
                    st = None if edge_state is None else edge_state[self.csc.edge_ids[pos]]
                    contrib = prog.gather_map(ctx, src, seg.astype(src.dtype), values[src], w, st)
                    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
                    red = segment_reduce(prog.gather_reduce, contrib, starts)
                    # seg values are *global* vertex ids; map back to the
                    # position inside `active` (active is sorted).
                    slot = np.searchsorted(active, seg[starts])
                    gathered[slot] = red.astype(prog.gather_dtype, copy=False)
                    has[slot] = True
            # ---- apply --------------------------------------------------
            new_vals, changed = prog.apply(ctx, active, values[active], gathered, has, iteration)
            changed = np.asarray(changed, dtype=bool)
            values[active] = np.asarray(new_vals).astype(prog.vertex_dtype, copy=False)
            changed_ids = active[changed]
            # ---- scatter + frontier activate ----------------------------
            pos, seg = ragged_gather(self.csr.indptr, changed_ids)
            dsts = self.csr.indices[pos]
            if prog.has_scatter and len(pos):
                eids = self.csr.edge_ids[pos]
                w = None if self.edges.weights is None else self.edges.weights[eids]
                st = None if edge_state is None else edge_state[eids]
                out = prog.scatter(ctx, seg.astype(dsts.dtype), values[seg], w, st)
                if edge_state is not None:
                    edge_state[eids] = out
            frontier = np.zeros(n, dtype=bool)
            frontier[dsts] = True
            local = int(
                np.count_nonzero(self.partition_of[dsts] == self.partition_of[seg])
            ) if len(pos) else 0
            touched = int(len(np.unique(self.partition_of[active])))
            incident = int((self.csc.indptr[active + 1] - self.csc.indptr[active]).sum())
            profiles.append(
                IterationProfile(
                    active_vertices=len(active),
                    active_in_edges=gathered_edges,
                    incident_in_edges=incident,
                    changed_vertices=len(changed_ids),
                    changed_out_edges=len(pos),
                    local_out_edges=local,
                    touched_partitions=touched,
                    num_partitions=self.num_partitions,
                )
            )
        else:  # out of iterations: converged iff nothing is left to run
            converged = not frontier.any()
        return ExecutionTrace(values, profiles, converged)
