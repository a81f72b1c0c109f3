"""The Partition Engine (Section 4.2).

Divides the vertex set into disjoint *intervals* and builds one *shard*
per interval holding every edge with a source or destination inside it:
in-edges sorted by destination (CSC) and out-edges sorted by source
(CSR), so neither the Gather nor the Scatter phase ever transposes data
at runtime.

Interval selection answers the paper's three questions:

1. *Choice of interval*: edge-balanced -- each shard gets approximately
   equal in+out edges (the Shard Creator's load balancing).
2. *Number of shards*: enough that one shard (plus the resident vertex
   arrays) fits comfortably in device memory; see
   :meth:`PartitionEngine.choose_num_partitions`.
3. *Edge order*: CSC by destination / CSR by source, giving contiguous
   PCIe transfers, consecutive gather updates per vertex, and coalesced
   device access.

Alternative partitioning logics plug into :class:`PartitionLogicTable`,
mirroring the paper's user-pluggable Partition Logic Table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro.graph.csr import CSR, build_csc, build_csr
from repro.graph.edgelist import EdgeList

#: Bytes of one vertex-id index slot (int32 on device).
IDX_BYTES = 4
#: Bytes of one float32 edge weight / update slot.
VAL_BYTES = 4
#: Bytes per indptr entry as stored on device (int64).
PTR_BYTES = 8


# ----------------------------------------------------------------------
# Interval selection strategies (the Partition Logic Table)
# ----------------------------------------------------------------------
def edge_balanced_from_loads(load: np.ndarray, num_partitions: int) -> np.ndarray:
    """Boundary math of :func:`edge_balanced_intervals` from a per-vertex
    load array alone -- shared with the external partitioner, which
    accumulates degrees in a streaming pass and never holds the edges.
    """
    n = len(load)
    if n == 0:
        return np.zeros(num_partitions + 1, dtype=np.int64)
    # Give every vertex a small epsilon so isolated-vertex runs still
    # split and no interval is forced empty.
    cum = np.cumsum(load.astype(np.float64) + 1e-9)
    total = cum[-1]
    targets = total * np.arange(1, num_partitions) / num_partitions
    inner = np.searchsorted(cum, targets, side="left") + 1
    boundaries = np.concatenate(([0], inner, [n])).astype(np.int64)
    return np.maximum.accumulate(boundaries)


def edge_balanced_intervals(edges: EdgeList, num_partitions: int) -> np.ndarray:
    """Interval boundaries equalizing per-shard (in + out) edge counts.

    Returns ``boundaries`` of length ``num_partitions + 1`` with
    ``boundaries[0] == 0`` and ``boundaries[-1] == num_vertices``.
    """
    if edges.num_vertices == 0:
        return np.zeros(num_partitions + 1, dtype=np.int64)
    load = edges.out_degrees() + edges.in_degrees()
    return edge_balanced_from_loads(load, num_partitions)


def vertex_balanced_intervals(edges: EdgeList, num_partitions: int) -> np.ndarray:
    """Equal-width vertex intervals (the naive alternative)."""
    n = edges.num_vertices
    return np.linspace(0, n, num_partitions + 1).astype(np.int64)


class PartitionLogicTable:
    """Named partitioning strategies; users may register their own."""

    def __init__(self) -> None:
        self._logics: dict[str, Callable[[EdgeList, int], np.ndarray]] = {}
        self.register("edge_balanced", edge_balanced_intervals)
        self.register("vertex_balanced", vertex_balanced_intervals)

    def register(self, name: str, fn: Callable[[EdgeList, int], np.ndarray]) -> None:
        self._logics[name] = fn

    def get(self, name: str) -> Callable[[EdgeList, int], np.ndarray]:
        try:
            return self._logics[name]
        except KeyError:
            raise KeyError(
                f"unknown partition logic {name!r}; registered: {sorted(self._logics)}"
            ) from None

    @property
    def names(self) -> list[str]:
        return sorted(self._logics)


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
class ShardBytes:
    """Streaming-buffer byte accounting shared by every shard flavour.

    Everything here is a function of three counts --
    ``num_interval_vertices``, ``num_in_edges``, ``num_out_edges`` -- so
    the Data Movement Engine can size transfers for an in-RAM
    :class:`Shard` and an out-of-core lazy shard identically, without
    the latter ever faulting its arrays in from disk.
    """

    @property
    def num_edges(self) -> int:
        return self.num_in_edges + self.num_out_edges

    # ------------------------------------------------------------------
    # Streaming-buffer byte sizes (what the Data Movement Engine moves)
    # ------------------------------------------------------------------
    #: logical buffer name -> its constituent deep-copied sub-arrays.
    SUB_ARRAYS = {
        "in_topology": ("in_indptr", "in_indices"),
        "out_topology": ("out_indptr", "out_indices"),
        "edge_update_array": ("edge_update_array",),
        "vertex_update_array": ("vertex_update_array",),
        "in_weights": ("in_weights",),
        "out_weights": ("out_weights",),
        "in_edge_state": ("in_edge_state",),
        "out_edge_state": ("out_edge_state",),
    }

    def sub_array_bytes(self, with_weights: bool, with_edge_state: bool) -> dict[str, int]:
        """Sizes of each deep-copied sub-array of this shard.

        A shard is not one contiguous byte-array; each entry here needs
        its own ``cudaMemcpyAsync`` -- the fact the spray operation
        exploits (Section 5.1). Topology splits into the indptr and
        indices arrays of the CSC/CSR layouts.
        """
        nv = self.num_interval_vertices
        arrays = {
            "in_indptr": (nv + 1) * PTR_BYTES,
            "in_indices": self.num_in_edges * IDX_BYTES,
            "out_indptr": (nv + 1) * PTR_BYTES,
            "out_indices": self.num_out_edges * IDX_BYTES,
            "edge_update_array": self.num_in_edges * VAL_BYTES,
            "vertex_update_array": nv * VAL_BYTES,
        }
        if with_weights:
            arrays["in_weights"] = self.num_in_edges * VAL_BYTES
            arrays["out_weights"] = self.num_out_edges * VAL_BYTES
        if with_edge_state:
            arrays["in_edge_state"] = self.num_in_edges * VAL_BYTES
            arrays["out_edge_state"] = self.num_out_edges * VAL_BYTES
        return arrays

    def buffer_bytes(self, with_weights: bool, with_edge_state: bool) -> dict[str, int]:
        """Logical-buffer sizes (sums of their sub-arrays)."""
        sub = self.sub_array_bytes(with_weights, with_edge_state)
        out = {}
        for name, parts in self.SUB_ARRAYS.items():
            if all(p in sub for p in parts):
                out[name] = sum(sub[p] for p in parts)
        return out

    def expand_buffers(
        self, names, with_weights: bool, with_edge_state: bool
    ) -> dict[str, int]:
        """The deep-copy list for a set of logical buffers."""
        sub = self.sub_array_bytes(with_weights, with_edge_state)
        out = {}
        for name in names:
            for part in self.SUB_ARRAYS[name]:
                out[part] = sub[part]
        return out

    def total_bytes(self, with_weights: bool, with_edge_state: bool) -> int:
        return sum(self.buffer_bytes(with_weights, with_edge_state).values())


@dataclass
class Shard(ShardBytes):
    """All edges incident to one vertex interval (Figure 7).

    ``csc`` holds the interval's in-edges (rows are interval vertices,
    ``csc.indices`` their source vertices) and ``csr`` its out-edges.
    ``csc_weights``/``csr_weights`` are the static edge values in each
    layout; ``edge_update_array`` slots (one per in-edge) and the
    interval slice of the ``vertex_update_array`` live in the runtime's
    buffer pool and are sized from this shard's counts.
    """

    index: int
    start: int
    stop: int
    csc: CSR
    csr: CSR
    csc_weights: np.ndarray | None = None
    csr_weights: np.ndarray | None = None

    @property
    def num_interval_vertices(self) -> int:
        return self.stop - self.start

    @property
    def num_in_edges(self) -> int:
        return self.csc.num_edges

    @property
    def num_out_edges(self) -> int:
        return self.csr.num_edges


@dataclass
class ShardedGraph:
    """The Partition Engine's output: interval boundaries plus shards."""

    edges: EdgeList
    boundaries: np.ndarray
    shards: list[Shard]
    logic: str = "edge_balanced"
    #: the whole graph as one more shard (index P): ``[0, V)`` over the
    #: flat CSC/CSR and weight arrays the shards are views of; a store's
    #: holds no arrays (vertex phases only, see ``ComputeEngine.run_merged``)
    span: Shard | None = field(repr=False, default=None)
    #: dense plans and dense vid aranges by ``(kind, shard index)``, the
    #: span's index being P: topology alone, so :class:`~repro.core.plans.
    #: PlanCache` builds each on first use and every later run reuses it
    plans: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def num_partitions(self) -> int:
        return len(self.shards)

    @property
    def num_vertices(self) -> int:
        return self.edges.num_vertices

    @cached_property
    def has_in_edge(self) -> np.ndarray:
        """Whether each vertex has an in-edge, off the in-degrees (a store's degree block)."""
        return self.edges.in_degrees() > 0

    @cached_property
    def whole_census(self) -> dict:
        """Per-shard items of each phase over whole intervals, read off shard
        counts and ``has_in_edge``: in-edges, vertices with one, vertices, out-edges."""
        b = self.boundaries
        ins, outs = np.array([(s.num_in_edges, s.num_out_edges) for s in self.shards]).T
        with_in = np.diff(np.concatenate(([0], np.cumsum(self.has_in_edge)))[b])
        sizes = (ins, with_in, np.diff(b), outs)
        return dict(zip(("gather_map", "gather_reduce", "apply", "frontier_activate"), sizes))

    def interval_of(self, vertex: int) -> int:
        """Shard index owning a vertex."""
        return int(np.searchsorted(self.boundaries, vertex, side="right") - 1)

    def max_shard_bytes(self, with_weights: bool, with_edge_state: bool) -> int:
        return max(
            (s.total_bytes(with_weights, with_edge_state) for s in self.shards),
            default=0,
        )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class PartitionEngine:
    """Shard Creator + Graph Layout Engine + Partition Logic Table."""

    def __init__(self, logic_table: PartitionLogicTable | None = None):
        self.logic_table = logic_table or PartitionLogicTable()

    def partition(
        self,
        edges: EdgeList,
        num_partitions: int,
        logic: str = "edge_balanced",
    ) -> ShardedGraph:
        """Split ``edges`` into ``num_partitions`` shards."""
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions!r}")
        if num_partitions > max(edges.num_vertices, 1):
            num_partitions = max(edges.num_vertices, 1)
        boundaries = self.logic_table.get(logic)(edges, num_partitions)
        self._check_boundaries(boundaries, edges.num_vertices, num_partitions)
        csc = build_csc(edges)
        csr = build_csr(edges)
        # One flat weight array per layout; each shard's is a view of it.
        csc_w = csr_w = None
        if edges.weights is not None:
            csc_w = edges.weights[csc.edge_ids]
            csr_w = edges.weights[csr.edge_ids]
        shards = []
        for i in range(num_partitions):
            start, stop = int(boundaries[i]), int(boundaries[i + 1])
            shard = Shard(i, start, stop, csc.row_slice(start, stop), csr.row_slice(start, stop))
            if csc_w is not None:
                shard.csc_weights = csc_w[csc.indptr[start] : csc.indptr[stop]]
                shard.csr_weights = csr_w[csr.indptr[start] : csr.indptr[stop]]
            shards.append(shard)
        span = Shard(num_partitions, 0, edges.num_vertices, csc, csr, csc_w, csr_w)
        return ShardedGraph(edges, boundaries, shards, logic, span)

    @staticmethod
    def choose_num_partitions(
        edges: EdgeList,
        device_memory: int,
        with_weights: bool,
        with_edge_state: bool,
        resident_bytes: int,
        target_fraction: float = 0.25,
        min_partitions: int = 1,
    ) -> int:
        """Pick P so a single shard fits in a ``target_fraction`` slice of

        the device memory left after resident buffers -- guaranteeing at
        least one (in practice several) shard can be loaded completely,
        per Section 4.2's requirement (2).
        """
        avail = device_memory - resident_bytes
        if avail <= 0:
            raise ValueError(
                f"resident buffers ({resident_bytes} B) exceed device memory "
                f"({device_memory} B); the vertex set does not fit"
            )
        # Per logical edge: one in-slot + one out-slot of topology, one
        # update slot, plus weight/state copies in both layouts.
        per_edge = 2 * IDX_BYTES + VAL_BYTES
        if with_weights:
            per_edge += 2 * VAL_BYTES
        if with_edge_state:
            per_edge += 2 * VAL_BYTES
        total_edge_bytes = edges.num_edges * per_edge
        budget = max(int(avail * target_fraction), 1)
        p = max(min_partitions, -(-total_edge_bytes // budget))
        return min(p, max(edges.num_vertices, 1))

    @staticmethod
    def _check_boundaries(boundaries: np.ndarray, n: int, p: int) -> None:
        if len(boundaries) != p + 1 or boundaries[0] != 0 or boundaries[-1] != n:
            raise ValueError(
                f"partition logic produced invalid boundaries {boundaries!r} "
                f"for n={n}, p={p}"
            )
        if np.any(np.diff(boundaries) < 0):
            raise ValueError("partition boundaries must be non-decreasing")
