"""Batched query execution: K queries over one shard stream.

Running K independent queries (BFS from K sources, PageRank at K
damping factors, ...) as K solo runs streams every shard K times. The
shard stream is the expensive part -- H2D movement, plan building,
kernel launches all scale with shards touched -- while each query only
adds O(n) state. This module shares one stream across the batch:

* **Columnar layout** (float32): vertex state becomes an ``(n, K)``
  matrix, one column per query. gather/apply run once per shard per
  iteration on the whole matrix; every elementwise op broadcasts over
  the columns in the same order as the solo run, so each column stays
  bit-identical to its solo counterpart.
* **Bit-packed layout** (uint64, BFS only): the MS-BFS formulation.
  Each vertex holds ``W = ceil(K/64)`` words whose bit ``k`` means
  "reached by query k"; gather ORs parent words (64 traversals per
  machine word), and per-query depths are recovered exactly by
  recording, in bit planes, the iteration at which each bit first
  appears; the ``(K, n)`` float32 depths are built once, when read.

**Union frontier.** The batch drives shard selection and direction
switching with the union of the per-query frontiers. Correctness rests
on the same invariant the pull direction already relies on: the
programs here are improvement-driven, so a column sees no spurious
update from vertices another query activated -- their in-neighbors
carry no better candidate in *that* column (each column's candidate is
a fold over the same in-edge sequence the solo run folds). Iteration 0
is the one exception -- other queries' sources are active but a solo
push run improves nothing on iteration 0 -- so apply is an explicit
no-op there, which keeps per-column *changed* sets (and therefore
retirement iterations) identical to solo runs.

A note on direction: a solo ``pull`` run gains a one-iteration head
start (with every vertex active on iteration 0, depth-1 vertices
already see their source), so solo iteration counts were never
direction-invariant -- only values are. The batch's iteration-0 no-op
instead pins every batch run to the canonical *natural-schedule*
(push) trajectory: per-query ``iterations`` equals the solo **push**
count under any batch direction, and values stay bit-identical in
every mode, the same invariant the solo engine documents for itself.

**Early retirement.** A query retires when its solo run would have
converged: the column's changed rows this iteration have zero total
out-degree, i.e. the solo frontier for the next iteration is empty.
Retired columns stop changing, the union frontier shrinks to the live
wavefronts, and the batch ends when the union empties -- exactly when
the last query retires.

:class:`BatchRunner` is the front end: submit queries (grouped by
program family), chunk to ``batch_size``, pick a layout, execute each
chunk in one :meth:`~repro.core.runtime.GraphReduce.run`, and hand
back per-query results in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.api import GASProgram
from repro.core.kernels import GatherSpec

#: program families the batch executor can fuse
FAMILIES = ("bfs", "sssp", "cc", "pagerank")
LAYOUTS = ("auto", "columns", "bits")


def _validate_sources(sources, num_vertices: int) -> np.ndarray:
    """Source ids as int64, failing fast on out-of-range values."""
    arr = np.atleast_1d(np.asarray(sources))
    if arr.size == 0:
        raise ValueError("batch needs at least one source")
    if not np.issubdtype(arr.dtype, np.integer):
        try:
            cast = arr.astype(np.int64)
        except (TypeError, ValueError):
            raise ValueError(f"source ids must be integers, got {arr.dtype}")
        if not np.array_equal(cast, arr):
            raise ValueError("source ids must be integers")
        arr = cast
    arr = arr.astype(np.int64)
    bad = (arr < 0) | (arr >= num_vertices)
    if bad.any():
        culprit = int(arr[bad][0])
        raise ValueError(
            f"source {culprit} out of range for a graph with "
            f"{num_vertices} vertices (valid ids: 0..{num_vertices - 1})"
        )
    return arr


class _BatchLedger:
    """Per-query retirement bookkeeping (main process only).

    Tracks, per column, the iteration at which the matching solo run
    would have stopped: a solo run exits at the top of iteration ``t+1``
    when the frontier is empty, i.e. when none of its changed rows at
    iteration ``t`` has an out-edge. The programs hand over each
    iteration's changed rows with a bit row each, bit ``k`` set iff
    column ``k`` changed that row (MS-BFS's newly set words; packed
    value diffs against a kept previous-state copy for the columns,
    since improvement-driven programs change a value iff the row
    changed), and one OR-reduce over the rows with an out-edge tests
    every column: O(changed rows x words) per iteration.
    """

    def __init__(self, num_queries: int):
        self.num_queries = num_queries
        self.retired_at = np.full(num_queries, -1, dtype=np.int64)

    @property
    def alive(self) -> np.ndarray:
        return self.retired_at < 0

    def observe(self, rows, changes, out_degrees, iteration) -> None:
        """Retire columns whose solo frontier empties after ``iteration``.

        ``changes[i]`` is vertex ``rows[i]``'s bit row (unsigned words;
        bit ``k`` of its little-endian bytes is column ``k``). A column
        stays live iff it changed some vertex with an out-edge.
        """
        hit = np.bitwise_or.reduce(changes[out_degrees[rows] > 0], axis=0)
        live = np.unpackbits(hit.view(np.uint8), bitorder="little")[: self.num_queries]
        self.retired_at[self.alive & (live == 0)] = iteration + 1

    def observe_seeds(self, sources, out_degrees) -> None:
        """Iteration 0: each query's source counts as its one changed
        row (solo runs report it changed without a value change)."""
        self.retired_at[self.alive & (out_degrees[sources] == 0)] = 1

    def stats(self) -> dict:
        done = self.retired_at[self.retired_at >= 0]
        return {
            "queries": int(self.num_queries),
            "retired": int(done.size),
            "active": int(self.num_queries - done.size),
            "min_query_iterations": int(done.min()) if done.size else 0,
            "max_query_iterations": int(done.max()) if done.size else 0,
        }


class BatchedTraversal(GASProgram):
    """Columnar multi-query traversal: BFS levels / SSSP / CC labels.

    One float32 column per query; gather folds each column over the
    same in-edge sequence as the solo program (``add_one`` / gather
    ``add_weight`` / ``copy`` with a min reduction), apply keeps
    per-column improvements. Solo equivalence is exact: every
    elementwise op matches the solo program's op and order per column.
    """

    gather_reduce = np.minimum
    gather_identity = np.inf
    pull_compatible = True

    _GATHER_KINDS = {"bfs": "add_one", "sssp": "add_weight", "cc": "copy"}

    def __init__(self, mode: str, sources=None, count: int | None = None):
        if mode not in self._GATHER_KINDS:
            raise ValueError(f"unknown traversal mode {mode!r}")
        self.mode = mode
        if mode == "cc":
            if count is None or count < 1:
                raise ValueError("cc batches need count >= 1")
            self.sources = None
            self.state_cols = int(count)
        else:
            if sources is None:
                raise ValueError(f"{mode} batches need sources")
            self.sources = np.asarray(sources, dtype=np.int64)
            self.state_cols = len(self.sources)
        self.num_queries = self.state_cols
        self.needs_weights = mode == "sssp"
        self.name = f"batch-{mode}x{self.num_queries}"
        self.ledger = _BatchLedger(self.num_queries)
        self._prev = None

    # -- initialization ------------------------------------------------
    def init_vertices(self, ctx):
        n = ctx.num_vertices
        if self.mode == "cc":
            vals = np.repeat(
                np.arange(n, dtype=self.vertex_dtype)[:, None], self.state_cols, axis=1
            )
        else:
            _validate_sources(self.sources, n)
            vals = np.full((n, self.state_cols), np.inf, dtype=self.vertex_dtype)
            vals[self.sources, np.arange(self.state_cols)] = 0.0
        self._prev = vals.copy()
        return vals

    def init_frontier(self, ctx):
        frontier = np.zeros(ctx.num_vertices, dtype=bool)
        if self.mode == "cc":
            frontier[:] = True
        else:
            frontier[self.sources] = True
        return frontier

    # -- phases --------------------------------------------------------
    def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
        if self.mode == "bfs":
            return src_vals + np.float32(1.0)
        if self.mode == "sssp":
            return src_vals + weights[:, None]
        return src_vals

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        if iteration == 0 and self.mode != "cc":
            # A solo run improves nothing on iteration 0 (only its
            # already-optimal source is active); replicating that keeps
            # per-column changed sets solo-identical even when one
            # query's source neighbors another's. The sources still
            # report changed once to seed FrontierActivate.
            return old_vals, np.isin(vids, self.sources)
        candidate = np.where(has_gather[:, None], gathered, np.inf).astype(
            old_vals.dtype
        )
        improved = candidate < old_vals
        new_vals = np.where(improved, candidate, old_vals)
        return new_vals, improved.any(axis=1)

    def gather_kernel_spec(self):
        return GatherSpec(kind=self._GATHER_KINDS[self.mode], reduce="min")

    # -- retirement ----------------------------------------------------
    def end_iteration(self, ctx, values, changed, iteration) -> None:
        if iteration == 0 and self.mode != "cc":
            self.ledger.observe_seeds(self.sources, ctx.out_degrees)
            return
        rows = np.flatnonzero(changed)
        cur = values[rows]
        diff = cur != self._prev[rows]
        self._prev[rows] = cur
        packed = np.packbits(diff, axis=1, bitorder="little")
        self.ledger.observe(rows, packed, ctx.out_degrees, iteration)

    def batch_stats(self) -> dict:
        return {"family": self.mode, "layout": "columns", **self.ledger.stats()}

    def query_values(self, vertex_values: np.ndarray, k: int) -> np.ndarray:
        return np.ascontiguousarray(vertex_values[:, k])


class BatchedPageRank(GASProgram):
    """Columnar power-iteration PageRank: per-query damping + rounds.

    Only the ``tolerance=None`` (power iteration) formulation batches:
    its trajectory is a pure function of the iteration index, so
    per-column freezing after ``iterations[k]`` rounds reproduces each
    solo run exactly.
    Tolerance-driven PageRank is frontier-adaptive and not
    superset-safe; :class:`BatchRunner` rejects it.
    """

    gather_reduce = np.add
    gather_identity = 0.0
    always_active = True

    def __init__(self, dampings, iterations):
        damp = np.atleast_1d(np.asarray(dampings, dtype=np.float64))
        if damp.size == 0:
            raise ValueError("batch needs at least one damping factor")
        if np.any((damp <= 0.0) | (damp >= 1.0)):
            raise ValueError("damping factors must lie in (0, 1)")
        iters = np.broadcast_to(
            np.atleast_1d(np.asarray(iterations, dtype=np.int64)), damp.shape
        ).copy()
        if np.any(iters < 1):
            raise ValueError("per-query iteration counts must be >= 1")
        self.state_cols = int(damp.size)
        self.num_queries = self.state_cols
        # Mirror the solo constructor's float32 casts exactly.
        self._damp = damp.astype(np.float32)
        self._base = np.array([np.float32(1.0 - d) for d in damp], dtype=np.float32)
        self._col_iters = iters
        self._max_rounds = int(iters.max())
        self.name = f"batch-pagerank-x{self.num_queries}"
        self.ledger = _BatchLedger(self.num_queries)
        self._deg32 = None
        self._deg32_ctx = None

    def init_vertices(self, ctx):
        return np.full(
            (ctx.num_vertices, self.state_cols), 1.0, dtype=self.vertex_dtype
        )

    def init_frontier(self, ctx):
        return np.ones(ctx.num_vertices, dtype=bool)

    def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
        deg = self._deg32
        if deg is None or self._deg32_ctx is not ctx:
            deg = np.maximum(ctx.out_degrees.astype(np.float32), 1.0)
            self._deg32, self._deg32_ctx = deg, ctx
        return src_vals / np.take(deg, src_ids)[:, None]

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        g = np.where(has_gather[:, None], gathered, np.float32(0.0)).astype(
            old_vals.dtype
        )
        new_vals = self._base + self._damp * g
        # Columns past their round budget freeze at their solo final
        # state; the update above is discarded for them.
        live = self._col_iters > iteration
        new_vals = np.where(live, new_vals, old_vals)
        return new_vals, np.ones(len(vids), dtype=bool)

    def converged(self, ctx, iteration, frontier_size) -> bool:
        return iteration >= self._max_rounds

    def gather_kernel_spec(self):
        return GatherSpec(kind="div_degree", reduce="add")

    def end_iteration(self, ctx, values, changed, iteration) -> None:
        done = (self._col_iters <= iteration + 1) & self.ledger.alive
        self.ledger.retired_at[done] = self._col_iters[done]

    def batch_stats(self) -> dict:
        return {"family": "pagerank", "layout": "columns", **self.ledger.stats()}

    def query_values(self, vertex_values: np.ndarray, k: int) -> np.ndarray:
        return np.ascontiguousarray(vertex_values[:, k])


class BitParallelBFS(GASProgram):
    """MS-BFS: bit-parallel multi-source BFS, 64 traversals per word.

    Vertex state is ``W = ceil(K/64)`` uint64 words; bit ``k`` of the
    word block means "reached by query k". Gather ORs parent words
    (``GatherSpec("copy", reduce="or")``), apply ORs the gathered words
    into the state. Depths are recovered exactly: a bit first appears
    at precisely the solo BFS depth of that vertex (bits propagate one
    hop per iteration from the sources, and iteration 0 is a no-op just
    like the solo run), so the iteration number at first appearance
    reproduces :class:`~repro.algorithms.bfs.BFSGather` levels
    bit-for-bit, unreached vertices staying at +inf.

    That number is kept in binary: plane ``j``, an ``(n, W)`` word array
    allocated when first needed, holds bit ``j`` of every depth, and
    iteration ``t`` ORs its newly set words into the planes of ``t``'s
    set bits (O(changed rows x W)). ``depths`` -- ``(K, n)`` float32,
    query ``k``'s result the row ``depths[k]`` -- is built on first read.
    """

    vertex_dtype = np.uint64
    gather_dtype = np.uint64
    gather_reduce = np.bitwise_or
    gather_identity = 0
    pull_compatible = True

    #: vertices per block of the one-off depth materialisation
    _BLOCK = 4096

    def __init__(self, sources):
        self.sources = np.asarray(sources, dtype=np.int64)
        if self.sources.size == 0:
            raise ValueError("batch needs at least one source")
        self.num_queries = len(self.sources)
        self.state_cols = (self.num_queries + 63) // 64
        self.name = f"batch-bfs-bits-x{self.num_queries}"
        self.ledger = _BatchLedger(self.num_queries)
        self._prev = None
        self._planes = None
        self._depths = None

    def init_vertices(self, ctx):
        n = ctx.num_vertices
        _validate_sources(self.sources, n)
        vals = np.zeros((n, self.state_cols), dtype=np.uint64)
        cols = np.arange(self.num_queries, dtype=np.int64)
        bits = np.uint64(1) << (cols % 64).astype(np.uint64)
        # ufunc.at: duplicate (source, word) pairs must all land.
        np.bitwise_or.at(vals, (self.sources, cols // 64), bits)
        self._prev = vals.copy()
        self._planes = []  # sources sit at depth 0: no plane bit
        self._depths = None
        return vals

    def init_frontier(self, ctx):
        frontier = np.zeros(ctx.num_vertices, dtype=bool)
        frontier[self.sources] = True
        return frontier

    def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
        return src_vals

    def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
        if iteration == 0:
            # Same no-op-plus-seed as the columnar layout: keeps each
            # bit's first appearance at exactly the solo BFS depth.
            return old_vals, np.isin(vids, self.sources)
        new_vals = old_vals | np.where(has_gather[:, None], gathered, np.uint64(0))
        return new_vals, (new_vals != old_vals).any(axis=1)

    def gather_kernel_spec(self):
        return GatherSpec(kind="copy", reduce="or")

    def end_iteration(self, ctx, values, changed, iteration) -> None:
        if iteration == 0:
            self.ledger.observe_seeds(self.sources, ctx.out_degrees)
            return
        rows = np.flatnonzero(changed)
        cur = values[rows]
        newly = cur & ~self._prev[rows]
        self._prev[rows] = cur
        planes = self._planes
        for j in range(int(iteration).bit_length()):
            if iteration >> j & 1:
                while len(planes) <= j:
                    planes.append(np.zeros_like(self._prev))
                planes[j][rows] |= newly
        self.ledger.observe(rows, newly, ctx.out_degrees, iteration)

    @property
    def depths(self) -> np.ndarray | None:
        """``(K, n)`` float32 depths, built from the planes on first read
        (None before ``init_vertices``)."""
        if self._depths is None and self._prev is not None:
            self._depths = self._materialise()
        return self._depths

    def _materialise(self) -> np.ndarray:
        # A (vertex, query) cell's code is its depth's plane bits, plus
        # bit ``top`` when the query never reached the vertex. Codes are
        # built one byte (eight stacked bit arrays) at a time, two arrays
        # per ``pair`` lookup; the byte from bit ``k`` up turns into
        # float32 through a table worth ``2^k`` a step, +inf from ``top``.
        # ``pair[b << 8 | a]``: byte i of the (little-endian) uint64 is
        # bit i of ``a`` plus twice bit i of ``b``.
        spread = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
        pair = (spread.view(np.uint64) << np.uint64(1) | spread.view(np.uint64).T).ravel()
        stack = [*self._planes, ~self._prev]
        top = len(self._planes)
        digits = range(0, top + 1, 8)
        luts = [np.arange(256, dtype=np.float32) * np.float32(1 << k) for k in digits]
        luts[-1][1 << top % 8 :] = np.inf
        n, w = self._prev.shape
        depths = np.empty((self.num_queries, n), dtype=np.float32)
        for lo in range(0, n, self._BLOCK):
            hi = min(lo + self._BLOCK, n)
            for k, lut in zip(digits, luts):
                code = np.zeros((hi - lo, 8 * w), dtype=np.uint64)
                for j in range(k, min(k + 8, top + 1), 2):
                    idx = stack[j][lo:hi].view(np.uint8)
                    if j < top:
                        idx = stack[j + 1][lo:hi].view(np.uint8).astype(np.uint16) << 8 | idx
                    code |= np.take(pair, idx) << np.uint64(j - k)
                # Little-endian: word w byte b bit i is query 64w + 8b + i.
                cells = np.take(lut, code.view(np.uint8)[:, : self.num_queries].T)
                depths[:, lo:hi] = depths[:, lo:hi] + cells if k else cells
        return depths

    def batch_stats(self) -> dict:
        return {
            "family": "bfs",
            "layout": "bits",
            "words": int(self.state_cols),
            **self.ledger.stats(),
        }

    def query_values(self, vertex_values: np.ndarray, k: int) -> np.ndarray:
        # Depths, not words: the per-query result a solo run produces.
        return self.depths[k]


@dataclass(frozen=True)
class QueryResult:
    """One query's solo-equivalent result extracted from a batch."""

    index: int  #: submission order within the BatchRunner
    family: str
    params: dict
    values: np.ndarray  #: per-vertex result, bit-identical to the solo run
    iterations: int  #: iterations the solo run would have executed
    retired_early: bool  #: finished before the batch's last iteration


@dataclass
class BatchReport:
    """Everything one :meth:`BatchRunner.execute` produced."""

    queries: list[QueryResult]
    runs: list = field(default_factory=list)  #: GraphReduceResult per chunk
    stats: dict = field(default_factory=dict)

    def values_matrix(self) -> np.ndarray:
        """(n, K) matrix of per-query results in submission order."""
        return np.stack([q.values for q in self.queries], axis=1)


class BatchRunner:
    """Group, chunk, and execute independent queries over one engine.

    Queries enter via :meth:`submit` (or the ``run_*`` one-shots), are
    grouped by program family -- only same-family queries can share a
    state matrix -- chunked to ``batch_size``, and each chunk executes
    as a single :meth:`GraphReduce.run` over the shared shard stream.

    ``layout`` picks the state encoding: ``"columns"`` (float32 matrix,
    any family), ``"bits"`` (uint64 bitmasks, BFS only), or ``"auto"``
    (bits for BFS, columns otherwise).
    """

    def __init__(self, engine, batch_size: int = 64, layout: str = "auto"):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if layout not in LAYOUTS:
            raise ValueError(f"unknown layout {layout!r} (choose from {LAYOUTS})")
        self.engine = engine
        self.batch_size = int(batch_size)
        self.layout = layout
        self._queue: list[tuple[int, str, dict]] = []
        self._next_index = 0

    # -- submission ----------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.engine.edges.num_vertices

    def submit(self, family: str, **params) -> int:
        """Queue one query; returns its submission index."""
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r} (choose from {FAMILIES})")
        if family in ("bfs", "sssp"):
            if "source" not in params:
                raise ValueError(f"{family} queries need a source=")
            src = _validate_sources([params["source"]], self.num_vertices)
            params = {**params, "source": int(src[0])}
        elif family == "pagerank":
            damping = float(params.get("damping", 0.85))
            iterations = int(params.get("iterations", 20))
            if not 0.0 < damping < 1.0:
                raise ValueError("damping must lie in (0, 1)")
            if iterations < 1:
                raise ValueError("iterations must be >= 1")
            params = {"damping": damping, "iterations": iterations}
        else:  # cc
            params = {}
        index = self._next_index
        self._next_index += 1
        self._queue.append((index, family, params))
        return index

    def _resolve_layout(self, family: str) -> str:
        if self.layout == "bits" and family != "bfs":
            raise ValueError(
                f"bits layout packs reachability bits and only supports bfs; "
                f"{family} queries need layout='columns'"
            )
        if family == "bfs" and self.layout in ("auto", "bits"):
            return "bits"
        return "columns"

    def _build_program(self, family: str, layout: str, chunk: list):
        params = [p for _, _, p in chunk]
        if family == "bfs":
            sources = [p["source"] for p in params]
            if layout == "bits":
                return BitParallelBFS(sources)
            return BatchedTraversal("bfs", sources=sources)
        if family == "sssp":
            return BatchedTraversal("sssp", sources=[p["source"] for p in params])
        if family == "cc":
            return BatchedTraversal("cc", count=len(chunk))
        return BatchedPageRank(
            dampings=[p["damping"] for p in params],
            iterations=[p["iterations"] for p in params],
        )

    # -- execution -----------------------------------------------------
    def execute(self, max_iterations: int | None = None) -> BatchReport:
        """Run every queued query; results come back in submission order."""
        if not self._queue:
            raise ValueError("no queries submitted")
        queue, self._queue = self._queue, []
        groups: dict[str, list] = {}
        for item in queue:
            groups.setdefault(item[1], []).append(item)

        results: dict[int, QueryResult] = {}
        runs = []
        chunks = 0
        for family, items in groups.items():
            layout = self._resolve_layout(family)
            for lo in range(0, len(items), self.batch_size):
                chunk = items[lo : lo + self.batch_size]
                program = self._build_program(family, layout, chunk)
                run = self.engine.run(program, max_iterations=max_iterations)
                runs.append(run)
                chunks += 1
                retired_at = program.ledger.retired_at
                for k, (index, fam, params) in enumerate(chunk):
                    solo_iters = int(retired_at[k])
                    retired = solo_iters >= 0
                    results[index] = QueryResult(
                        index=index,
                        family=fam,
                        params=params,
                        values=program.query_values(run.vertex_values, k),
                        iterations=solo_iters if retired else run.iterations,
                        retired_early=retired and solo_iters < run.iterations,
                    )

        ordered = [results[i] for i, _, _ in queue]
        stats = {
            "queries": len(ordered),
            "chunks": chunks,
            "retired_early": sum(1 for q in ordered if q.retired_early),
            "batch_iterations": sum(r.iterations for r in runs),
            "families": sorted(groups),
        }
        return BatchReport(queries=ordered, runs=runs, stats=stats)

    # -- one-shot helpers ----------------------------------------------
    def run_bfs(self, sources, max_iterations: int | None = None) -> BatchReport:
        for s in np.asarray(_validate_sources(sources, self.num_vertices)):
            self.submit("bfs", source=int(s))
        return self.execute(max_iterations=max_iterations)

    def run_sssp(self, sources, max_iterations: int | None = None) -> BatchReport:
        for s in np.asarray(_validate_sources(sources, self.num_vertices)):
            self.submit("sssp", source=int(s))
        return self.execute(max_iterations=max_iterations)

    def run_cc(self, count: int = 1, max_iterations: int | None = None) -> BatchReport:
        for _ in range(count):
            self.submit("cc")
        return self.execute(max_iterations=max_iterations)

    def run_pagerank(
        self, dampings, iterations=20, max_iterations: int | None = None
    ) -> BatchReport:
        damp = np.atleast_1d(np.asarray(dampings, dtype=np.float64))
        iters = np.broadcast_to(
            np.atleast_1d(np.asarray(iterations, dtype=np.int64)), damp.shape
        )
        for d, it in zip(damp, iters):
            self.submit("pagerank", damping=float(d), iterations=int(it))
        return self.execute(max_iterations=max_iterations)
