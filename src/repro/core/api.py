"""The GraphReduce user interface (Section 4.1).

Programmers express a graph algorithm by subclassing :class:`GASProgram`
and defining up to four device functions -- ``gather_map``,
``gather_reduce`` (a NumPy ufunc, so the Compute Engine can segment-
reduce it vertex-centrically), ``apply`` and ``scatter`` -- together with
the vertex/edge state dtypes. The runtime detects which phases are
defined and the Phase Fusion Engine eliminates or fuses the rest
(Section 5.3), exactly as the paper's BFS defines only ``apply``.

All functions are *vectorized*: they receive NumPy arrays covering every
active edge (or vertex) of one shard and must return arrays of the same
length. This is the reproduction's analogue of the paper's
``__host__ __device__`` scalar functions, which CUDA maps over threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import RuntimeContext


class GASProgram:
    """Base class for user algorithms.

    Class attributes
    ----------------
    vertex_dtype / gather_dtype / edge_dtype:
        NumPy dtypes of the vertex values, gathered partial results, and
        mutable per-edge state (``None`` when edges carry no mutable
        state -- true for all four paper algorithms).
    gather_reduce:
        The |+| combiner of Section 2.1 as a binary NumPy ufunc
        (``np.add`` for PageRank, ``np.minimum`` for BFS/SSSP/CC).
    gather_identity:
        Value a vertex sees when no in-edge contributed this iteration.
    needs_weights:
        True when ``gather_map``/``scatter`` read static edge weights.
    """

    vertex_dtype = np.float32
    gather_dtype = np.float32
    edge_dtype: np.dtype | None = None
    gather_reduce: np.ufunc = np.add
    gather_identity: float = 0.0
    needs_weights: bool = False
    #: None: classic scalar state, one value per vertex. An integer C
    #: widens every vertex buffer to an ``(n, C)`` matrix -- one column
    #: per in-flight query -- and the engine gathers/applies all columns
    #: in a single shard pass (the batch executor's scan sharing). The
    #: frontier stays a single shared bitmask: the *union* of the
    #: per-column frontiers, which is results-preserving exactly for
    #: pull-compatible (improvement-driven) programs.
    state_cols: int | None = None
    #: dense programs whose activation cannot be change-driven (e.g.
    #: level-scheduled sweeps): every vertex stays in the frontier each
    #: iteration and termination comes solely from :meth:`converged`.
    always_active: bool = False
    #: whether the runtime may execute an iteration with a *superset* of
    #: the natural frontier (pull / bottom-up direction). Safe exactly
    #: when ``apply`` is improvement-driven: extra active vertices must
    #: be no-ops (no value change, ``changed`` False) whenever none of
    #: their in-neighbors improved. Programs whose apply treats
    #: activation itself as information (the apply-only BFS marks every
    #: active unvisited vertex) must leave this False.
    pull_compatible: bool = False
    name: str = "gas-program"

    # ------------------------------------------------------------------
    # Initialization stage
    # ------------------------------------------------------------------
    def init_vertices(self, ctx: "RuntimeContext") -> np.ndarray:
        """Initial vertex values (length ``ctx.num_vertices``)."""
        raise NotImplementedError

    def init_frontier(self, ctx: "RuntimeContext") -> np.ndarray:
        """Initial frontier as a boolean mask over vertices."""
        raise NotImplementedError

    def init_edge_state(self, ctx: "RuntimeContext") -> np.ndarray | None:
        """Initial mutable per-edge state (only when edge_dtype is set)."""
        if self.edge_dtype is None:
            return None
        return np.zeros(ctx.num_edges, dtype=self.edge_dtype)

    # ------------------------------------------------------------------
    # Iteration-stage device functions (override the ones you need)
    # ------------------------------------------------------------------
    def gather_map(
        self,
        ctx: "RuntimeContext",
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        src_vals: np.ndarray,
        weights: np.ndarray | None,
        edge_states: np.ndarray | None,
    ) -> np.ndarray:
        """Per-in-edge contribution G(u, v, e) for each active edge."""
        raise NotImplementedError  # pragma: no cover - presence-checked

    def apply(
        self,
        ctx: "RuntimeContext",
        vids: np.ndarray,
        old_vals: np.ndarray,
        gathered: np.ndarray,
        has_gather: np.ndarray,
        iteration: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """U(v, R): returns (new vertex values, changed mask)."""
        raise NotImplementedError

    def scatter(
        self,
        ctx: "RuntimeContext",
        src_ids: np.ndarray,
        src_vals: np.ndarray,
        weights: np.ndarray | None,
        edge_states: np.ndarray | None,
    ) -> np.ndarray:
        """S(v', e_out): new mutable state for each active out-edge."""
        raise NotImplementedError  # pragma: no cover - presence-checked

    def converged(self, ctx: "RuntimeContext", iteration: int, frontier_size: int) -> bool:
        """Extra termination condition; the empty frontier always stops."""
        return False

    def end_iteration(
        self,
        ctx: "RuntimeContext",
        values: np.ndarray,
        changed: np.ndarray,
        iteration: int,
    ) -> None:
        """Hook after one full iteration, before advance.

        Called with the iteration's final vertex values and changed
        bitmask, so programs that track cross-iteration state -- the
        batch executor's per-query retirement ledger and depth capture
        -- update it once per iteration, outside the per-shard phases.
        """
        return None

    def reseed_frontier(
        self, ctx: "RuntimeContext", values: np.ndarray
    ) -> np.ndarray | None:
        """Called when the frontier empties, before terminating.

        Bucketed algorithms (delta-stepping SSSP) hold improvements back
        until their bucket opens; this hook lets them re-activate the
        deferred vertices. Return a bool mask to continue with it as the
        next frontier, or None to accept convergence (the default).
        """
        return None

    # ------------------------------------------------------------------
    # Fusable kernel shapes (drive the compiled kernel layer)
    # ------------------------------------------------------------------
    def gather_kernel_spec(self):
        """Declare gather as a fusable kernel shape, or None.

        Return a :class:`repro.core.kernels.GatherSpec` when this
        program's ``gather_map`` + ``gather_reduce`` match one of the
        kernel layer's fused shapes *exactly* (bit-identical results are
        a contract, not a goal). The default None keeps the generic
        vectorized path.
        """
        return None

    def apply_kernel_spec(self):
        """Declare apply as a fusable kernel shape, or None.

        Return a :class:`repro.core.kernels.ApplySpec`; same contract
        as :meth:`gather_kernel_spec`. Programs with mutable Python
        state in apply (ledgers, histories) must return None.
        """
        return None

    # ------------------------------------------------------------------
    # Phase presence (drives the Phase Fusion Engine)
    # ------------------------------------------------------------------
    @property
    def has_gather(self) -> bool:
        return type(self).gather_map is not GASProgram.gather_map

    @property
    def has_scatter(self) -> bool:
        return type(self).scatter is not GASProgram.scatter

    def user_info(self) -> "UserInfoTuple":
        """The paper's UserInfoTuple for this program."""
        return UserInfoTuple(
            gather=type(self).gather_map if self.has_gather else None,
            gather_reduce=self.gather_reduce if self.has_gather else None,
            apply=type(self).apply,
            scatter=type(self).scatter if self.has_scatter else None,
            vertex_dtype=np.dtype(self.vertex_dtype),
            edge_dtype=None if self.edge_dtype is None else np.dtype(self.edge_dtype),
        )

    def validate(self) -> None:
        """Reject malformed programs before the runtime starts."""
        if type(self).apply is GASProgram.apply:
            raise TypeError(f"{type(self).__name__} must define apply()")
        if self.has_gather and not isinstance(self.gather_reduce, np.ufunc):
            raise TypeError(
                f"{type(self).__name__}.gather_reduce must be a NumPy ufunc "
                f"(got {self.gather_reduce!r}) so gatherReduce can run "
                "vertex-centrically as a segmented reduction"
            )


def source_frontier(ctx: "RuntimeContext", source: int) -> np.ndarray:
    """A single-source traversal's initial frontier; a ``source`` outside
    the graph is refused (a negative id would wrap, not fail)."""
    n = ctx.num_vertices
    if not 0 <= source < n:
        raise ValueError(
            f"source {source} out of range for a graph with "
            f"{n} vertices (valid ids: 0..{n - 1})"
        )
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    return frontier


@dataclass(frozen=True)
class UserInfoTuple:
    """<gather(), apply(), scatter(), VertexDataType, EdgeDataType>

    (Section 4.1). Informational bundle; the runtime itself works with
    the :class:`GASProgram` instance.
    """

    gather: object | None
    gather_reduce: np.ufunc | None
    apply: object
    scatter: object | None
    vertex_dtype: np.dtype
    edge_dtype: np.dtype | None
