"""Dynamic Frontier Management (Section 5.2).

The Frontier Manager maintains the set of active vertices for the
current iteration (the computational frontier), marks the vertices whose
state changed in apply/gather, and derives the next frontier as their
one-hop out-neighborhood. Its per-shard activity counts are what let the
Data Movement Engine skip the memcpy and kernel launch for shards with
no active vertex or edge -- the paper's headline memcpy optimization --
and feed CTA load balancing in the Compute Engine.

The masks are the whole interface to the plan layer
(:mod:`repro.core.plans`): every plan query re-reads ``changed`` and the
compacted copy of ``current``, so a mutation needs no notification. The
upkeep is what changed: every write to ``current`` ends in ``_recompact``,
which splits the vids per shard once (as the changed vids are after a
``mark_changed``) for all queries; ``activate_all`` only sets a flag.

It also records the per-iteration frontier sizes, which regenerate
Figures 3, 16 and 17.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.partition import ShardedGraph
from repro.obs.span import NULL_OBSERVER

#: Keep a compacted (sorted-vid) copy of the active frontier only while
#: it is this sparse; denser frontiers answer interval queries straight
#: from the mask, and the dense fast path takes over anyway.
COMPACT_MAX_FRACTION = 0.25


class FrontierManager:
    """Active/changed vertex tracking over a sharded graph."""

    def __init__(self, sharded: ShardedGraph, initial: np.ndarray, obs=None):
        n = sharded.num_vertices
        initial = np.asarray(initial, dtype=bool)
        if initial.shape != (n,):
            raise ValueError(
                f"initial frontier must be a bool mask of length {n}, "
                f"got shape {initial.shape}"
            )
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.sharded = sharded
        self.current = initial.copy()
        self.next = np.zeros(n, dtype=bool)
        self.changed = np.zeros(n, dtype=bool)
        #: what ``mark_changed`` was handed this iteration, the split derived
        #: from it (None: not derived yet, False: unusable), and whether a
        #: whole mark covered every vertex
        self._marks, self._marked, self._all_changed = [], None, False
        #: ``current`` is exactly what ``advance`` promoted: the targets
        #: FrontierActivate wrote, not a reseed or the pull expansion
        self.natural = False
        self.iteration = 0
        #: frontier size per completed iteration (Figures 3/16)
        self.history: list[int] = [int(np.count_nonzero(initial))]
        self._starts = sharded.boundaries[:-1]
        self._stops = sharded.boundaries[1:]
        self._nonempty = np.flatnonzero(self._stops > self._starts)
        self._recompact()

    def _split(self, vids: np.ndarray) -> tuple:
        """``(sorted vids, where each shard boundary falls among them, the
        shards holding any)``: one per-shard split of a vid set."""
        at = np.searchsorted(vids, self.sharded.boundaries)
        return vids, at, np.flatnonzero(at[1:] > at[:-1])

    def _recompact(self) -> None:
        """Refresh the compacted frontier after a ``current`` mutation.

        ``current`` is stable for the whole iteration (only ``next`` and
        ``changed`` mutate mid-iteration), so one flatnonzero and split at
        the mutation boundary replace per-shard-per-phase interval scans.
        Every method that rewrites ``current`` must end here.
        """
        n = len(self.current)
        size = int(np.count_nonzero(self.current))
        #: ``all_active``: :meth:`activate_all` set this iteration's frontier
        self._size, self.all_active = size, False
        if 0 < size <= int(n * COMPACT_MAX_FRACTION):
            self._compact = self._split(np.flatnonzero(self.current))
        else:
            self._compact = None

    # ------------------------------------------------------------------
    # Queries used to build each phase's shard work list
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    @property
    def compact_indices(self) -> np.ndarray | None:
        """Sorted indices of ``current``, or None when not compacted."""
        return None if self._compact is None else self._compact[0]

    def counts_per_shard(self, mask: np.ndarray) -> np.ndarray:
        """How many set vertices of ``mask`` fall in each interval.

        One ``np.add.reduceat`` over the interval starts instead of an
        O(V) prefix-sum array. Empty intervals need care: reduceat
        yields the *element* at the start index for an empty segment, so
        reduce only over non-empty intervals (their starts partition the
        mask) and leave the empty ones at zero.
        """
        counts = np.zeros(len(self._starts), dtype=np.int64)
        nonempty = self._nonempty
        if len(mask) and len(nonempty):
            counts[nonempty] = np.add.reduceat(
                mask, self._starts[nonempty], dtype=np.int64
            )
        return counts

    def _shards_of(self, split, mask) -> np.ndarray:
        """Shards holding a set vertex of ``mask``: from its ``split``
        when there is one, else an O(V) reduceat."""
        if split is None:
            return np.flatnonzero(self.counts_per_shard(mask) > 0)
        return split[2]

    def _in(self, split, mask, start: int, stop: int) -> np.ndarray:
        """Set vertex ids of ``mask`` inside [start, stop): a slice of its
        split vids when there are any, else a scan of the interval."""
        if split is None:
            return start + np.flatnonzero(mask[start:stop])
        vids = split[0]
        lo, hi = np.searchsorted(vids, (start, stop))
        return vids[lo:hi]

    def _dense_in(self, split, mask, start: int, stop: int) -> bool:
        if split is None:
            return bool(mask[start:stop].all())
        return len(self._in(split, mask, start, stop)) == stop - start

    def _changed_vids(self):
        """The changed vids' split from what :meth:`mark_changed` was handed:
        O(changed) where the mask scans are O(V). None when they cannot stand in
        for the mask -- out of order, duplicated, negative, not every set bit (a
        test or hook wrote ``changed``) -- or are too many to beat it."""
        v = self._marked
        if v is None:
            v = False
            if sum(map(len, self._marks)) <= len(self.changed) * COMPACT_MAX_FRACTION:
                marks = self._marks or [np.empty(0, np.int64)]
                v = marks[0] if len(marks) == 1 else np.concatenate(marks)
                ok = v.dtype.kind in "iu" and not (len(v) and v[0] < 0) and (v[1:] > v[:-1]).all()
                v = self._split(v) if ok else False
            self._marked = v
        if v is False or len(v[0]) != np.count_nonzero(self.changed):
            return None
        return v

    def split(self, mask: str) -> tuple:
        """The ``"active"`` or ``"changed"`` set's split (see ``_split``):
        the stored one when there is one, else from one scan of the mask."""
        split = self._compact if mask == "active" else self._changed_vids()
        if split is None:
            split = self._split(np.flatnonzero(self.current if mask == "active" else self.changed))
        return split

    def active_shards(self) -> np.ndarray:
        """Shards with at least one *active* vertex (gather/apply work)."""
        if self.all_active:
            return self._nonempty
        return self._shards_of(self._compact, self.current)

    def sparse_everywhere(self) -> bool:
        """Whether the frontier is compacted and leaves every shard's
        interval partly inactive -- each (shard, mask) query of the
        iteration would take the rows route."""
        if self._compact is None:
            return False
        per = np.diff(self._compact[1])
        return not np.any((per > 0) & (per == self._stops - self._starts))

    def changed_shards(self) -> np.ndarray:
        """Shards with at least one *changed* vertex (scatter/FA work)."""
        if self._all_changed:
            return self._nonempty
        return self._shards_of(self._changed_vids(), self.changed)

    def active_in(self, start: int, stop: int) -> np.ndarray:
        """Active vertex ids inside [start, stop)."""
        return self._in(self._compact, self.current, start, stop)

    def changed_in(self, start: int, stop: int) -> np.ndarray:
        return self._in(self._changed_vids(), self.changed, start, stop)

    def dense_active_in(self, start: int, stop: int) -> bool:
        """Whether *every* vertex of [start, stop) is active."""
        return self.all_active or self._dense_in(self._compact, self.current, start, stop)

    def dense_changed_in(self, start: int, stop: int) -> bool:
        """Whether *every* vertex of [start, stop) changed."""
        return self._all_changed or self._dense_in(self._changed_vids(), self.changed, start, stop)

    # ------------------------------------------------------------------
    # Updates from the Compute Engine
    # ------------------------------------------------------------------
    def mark_changed(self, vids: np.ndarray, whole: bool = False) -> None:
        """``whole``: ``vids`` are one ascending run, written as a slice.
        ``vids`` is kept, not copied, for the changed split: do not mutate it."""
        self.changed[slice(vids[0], vids[-1] + 1) if whole else vids] = True
        self._marks.append(vids)
        self._marked = None
        # every bit is set now, whatever else writes ``changed`` before advance
        self._all_changed |= whole and vids[0] == 0 and vids[-1] + 1 == len(self.changed)
        self.obs.add("frontier.changes", len(vids))

    def activate_next(self, vids: np.ndarray) -> None:
        """FrontierActivate: these vertices (one entry per out-edge) are
        active next iteration."""
        self.next[vids] = True
        self.obs.add("frontier.activations", len(vids))

    def activate_next_mask(self, mask: np.ndarray, count: int, start: int = 0) -> None:
        """Dense FrontierActivate: OR a dense out plan's presence span (the
        vertices from ``start`` on) into ``next`` -- the same mask as one
        write per out-edge; ``count`` reports that per-out-edge total."""
        span = self.next[start : start + len(mask)]
        np.logical_or(span, mask, out=span)
        self.obs.add("frontier.activations", count)

    def activate_all(self) -> None:
        """The whole vertex set is this iteration's frontier.

        Used by ``always_active`` programs every iteration, and by the
        runtime's pull direction: a pull iteration executes with every
        vertex active (bottom-up gather), while ``next``/``changed``
        still derive the natural frontier for termination and the
        direction rule. A flag, not a recompaction, until the next rewrite.
        """
        self.current[:] = True
        self.natural = False
        self._size, self._compact, self.all_active = len(self.current), None, True

    def set_current(self, mask: np.ndarray) -> None:
        """Replace this iteration's frontier before any phase ran.

        The reseed path (:meth:`repro.core.api.GASProgram.
        reseed_frontier`): the recorded history entry for this iteration
        is corrected to the real frontier size.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.current.shape:
            raise ValueError(
                f"reseed frontier must be a bool mask of length "
                f"{len(self.current)}, got shape {mask.shape}"
            )
        self.current[:] = mask
        self.natural = False
        self._recompact()
        self.history[-1] = self._size

    def advance(self) -> None:
        """BSP iteration boundary: promote next -> current."""
        self.current, self.next = self.next, self.current
        self.next[:] = False
        self.changed[:] = False
        self._marks, self._marked, self._all_changed = [], None, False
        self.natural = True
        self.iteration += 1
        self._recompact()
        size = self._size
        self.history.append(size)
        self.obs.observe("frontier.size", size)

    # ------------------------------------------------------------------
    # Figure-17 statistic
    # ------------------------------------------------------------------
    def low_activity_fraction(self, threshold: float = 0.5) -> float:
        """Fraction of iterations whose frontier was below ``threshold``

        of the maximum lifetime frontier size (Figure 17's metric).
        """
        sizes = self.history
        if not sizes:
            return 0.0
        peak = max(sizes)
        if peak == 0:
            return 1.0
        below = sum(1 for s in sizes if s < threshold * peak)
        return below / len(sizes)


# ----------------------------------------------------------------------
# Direction-optimizing traversal (Beamer-style push/pull switching)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionDecision:
    """One iteration's direction choice and the rule inputs behind it.

    Recorded on :class:`repro.core.runtime.GraphReduceResult` so tests
    (and the report) can replay the alpha/beta rule exactly.
    """

    iteration: int
    direction: str
    #: natural frontier size n_f (before any pull expansion)
    frontier_size: int
    #: out-edges of the natural frontier, m_f
    frontier_edges: int
    #: out-edges of still-unexplored vertices, m_u (frontier counted
    #: as explored)
    unexplored_edges: int


class DirectionController:
    """Per-iteration push/pull selection (Gunrock / Beamer 2012).

    Push (top-down) enumerates the frontier's out-edges; pull
    (bottom-up) gathers over every vertex's in-edges, which the host
    fast path serves from cached dense plans. The classic hysteresis
    rule picks between them:

    * push -> pull when the frontier's edge work exceeds its share of
      the unexplored edges: ``m_f > m_u / alpha``;
    * pull -> push when the frontier thins out again: ``n_f < n / beta``.

    Every input is derived from the *natural* (change-driven) frontier,
    which is identical in both directions for improvement-driven
    programs -- so the decision sequence is a deterministic function of
    (graph, program, alpha, beta), independent of execution backend.
    ``m_u`` counts each unexplored vertex's out-degree (for the
    symmetrized graphs traversal runs on, identical to in-degree).
    """

    def __init__(
        self,
        mode: str,
        out_degrees: np.ndarray,
        num_edges: int,
        num_vertices: int,
        alpha: float = 14.0,
        beta: float = 24.0,
    ):
        if mode not in ("push", "pull", "auto"):
            raise ValueError(f"unknown direction {mode!r}")
        if not (0 < alpha < math.inf and 0 < beta < math.inf):
            raise ValueError(
                f"direction alpha/beta must be finite and positive, got {alpha!r}/{beta!r}"
            )
        self.mode = mode
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._out_degrees = np.asarray(out_degrees, dtype=np.int64)
        self._num_vertices = int(num_vertices)
        self._unexplored_edges = int(num_edges)
        self._visited = np.zeros(num_vertices, dtype=bool)
        self._state = "push"
        self.decisions: list[DirectionDecision] = []

    def choose(
        self,
        frontier_mask: np.ndarray,
        iteration: int,
        vids: np.ndarray | None = None,
    ) -> str:
        """Pick this iteration's direction from the natural frontier.

        ``vids``, when given, is the compacted index form of
        ``frontier_mask``; the bookkeeping then costs O(F) instead of
        four O(V) passes, which matters on the long sparse tail of
        high-diameter traversals. Both forms yield identical decisions.
        """
        if vids is not None:
            new = vids[~self._visited[vids]]
            self._unexplored_edges -= int(self._out_degrees[new].sum())
            self._visited[vids] = True
            n_f = len(vids)
            m_f = int(self._out_degrees[vids].sum())
        else:
            new = frontier_mask & ~self._visited
            self._unexplored_edges -= int(self._out_degrees[new].sum())
            self._visited |= frontier_mask
            n_f = int(np.count_nonzero(frontier_mask))
            m_f = int(self._out_degrees[frontier_mask].sum())
        if self.mode == "auto":
            if self._state == "push" and m_f > self._unexplored_edges / self.alpha:
                self._state = "pull"
            elif self._state == "pull" and n_f < self._num_vertices / self.beta:
                self._state = "push"
            direction = self._state
        else:
            direction = self.mode
        self.decisions.append(
            DirectionDecision(
                iteration=iteration,
                direction=direction,
                frontier_size=n_f,
                frontier_edges=m_f,
                unexplored_edges=self._unexplored_edges,
            )
        )
        return direction
