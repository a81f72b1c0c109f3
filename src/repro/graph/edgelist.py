"""COO edge lists.

The raw dataset format of Section 4.2: "a set of source and destination
vertex pairs (edges) with the associated value for each edge", generally
unordered. The Partition Engine's Graph Layout Engine sorts these into
per-shard CSC/CSR order; everything upstream of that works on this class.

Vertex ids are ``int32`` (reproduction-scale graphs stay far below 2**31)
and edge weights ``float32``, matching the paper's `float` datatype for
all experiments. Graphs whose vertex count does not fit ``int32`` fall
back to ``int64`` ids so ids straddling 2**32 survive a round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VID_DTYPE = np.int32
WEIGHT_DTYPE = np.float32


@dataclass
class EdgeList:
    """A directed multigraph as parallel ``src``/``dst`` arrays."""

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray | None = None
    #: True when the edge set is the directed doubling of an undirected
    #: graph ("stored as pairs of directed edges", Section 6.1).
    undirected: bool = False
    name: str = field(default="graph")

    def __post_init__(self) -> None:
        src, dst = np.asarray(self.src), np.asarray(self.dst)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=WEIGHT_DTYPE)
            if self.weights.shape != src.shape:
                raise ValueError("weights must match the edge arrays")
        if self.num_vertices < 0:
            raise ValueError(f"negative vertex count {self.num_vertices!r}")
        if src.size:
            # On the ids as given: narrowing first would wrap an
            # out-of-range int64 id into range and pass the check.
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= self.num_vertices:
                raise ValueError(
                    f"edge endpoints [{lo}, {hi}] outside [0, {self.num_vertices})"
                )
        vid_dtype = VID_DTYPE
        if self.num_vertices > np.iinfo(VID_DTYPE).max:
            vid_dtype = np.int64
        self.src = np.ascontiguousarray(src, dtype=vid_dtype)
        self.dst = np.ascontiguousarray(dst, dtype=vid_dtype)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Stored (directed) edge count."""
        return int(self.src.shape[0])

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.num_vertices).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.num_vertices).astype(np.int64)

    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs,
        num_vertices: int | None = None,
        weights=None,
        undirected: bool = False,
        name: str = "graph",
    ) -> "EdgeList":
        """Build from an iterable of (src, dst) pairs."""
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be an (m, 2) array-like")
        if num_vertices is None:
            num_vertices = int(arr.max()) + 1 if arr.size else 0
        w = None if weights is None else np.asarray(weights)
        return cls(num_vertices, arr[:, 0], arr[:, 1], w, undirected, name)

    # ------------------------------------------------------------------
    def symmetrized(self) -> "EdgeList":
        """Add the reverse of every edge (undirected storage)."""
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        w = None
        if self.weights is not None:
            w = np.concatenate([self.weights, self.weights])
        out = EdgeList(self.num_vertices, src, dst, w, True, self.name)
        return out.deduplicated()

    def deduplicated(self) -> "EdgeList":
        """Drop parallel edges (keeping the first weight) and self-loops."""
        keep = self.src != self.dst
        src, dst = self.src[keep], self.dst[keep]
        w = None if self.weights is None else self.weights[keep]
        key = src.astype(np.int64) * self.num_vertices + dst
        _, first = np.unique(key, return_index=True)
        first.sort()
        w = None if w is None else w[first]
        return EdgeList(self.num_vertices, src[first], dst[first], w, self.undirected, self.name)

    def with_unit_weights(self) -> "EdgeList":
        return EdgeList(
            self.num_vertices,
            self.src,
            self.dst,
            np.ones(self.num_edges, dtype=WEIGHT_DTYPE),
            self.undirected,
            self.name,
        )

    def with_random_weights(self, low: float = 1.0, high: float = 10.0, seed: int = 0) -> "EdgeList":
        """Uniform weights in [low, high) -- the SSSP input convention."""
        rng = np.random.default_rng(seed)
        w = rng.uniform(low, high, size=self.num_edges).astype(WEIGHT_DTYPE)
        return EdgeList(self.num_vertices, self.src, self.dst, w, self.undirected, self.name)

    def permuted(self, seed: int = 0) -> "EdgeList":
        """Shuffle edge order (the 'generally unordered' raw format)."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.num_edges)
        w = None if self.weights is None else self.weights[perm]
        return EdgeList(self.num_vertices, self.src[perm], self.dst[perm], w, self.undirected, self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "undirected-stored" if self.undirected else "directed"
        return (
            f"EdgeList({self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges}, {kind})"
        )
