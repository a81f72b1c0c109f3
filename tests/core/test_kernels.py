"""Kernel layer unit tests (repro.core.kernels).

Covers the registry contract (backend resolution), the scratch arena
(aligned, grow-only, reuse-counted buffers), the layout helpers, the
engine-level guarantee that a backend that *fails at runtime* falls
back to the generic path with one RuntimeWarning and an unchanged
result, and the pre-map: bit-identical to the per-edge map, and never
read stale.
"""

import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.fixture_graphs import build
from repro.algorithms import BFS, PageRank, SpMV
from repro.baselines.executor import HostGASExecutor
from repro.core.compute import ComputeEngine
from repro.core.frontier import FrontierManager
from repro.core.kernels import GatherSpec
from repro.core.kernels import arena as arena_mod
from repro.core.kernels import layout
from repro.core.kernels import resolve_backend
from repro.core.kernels.numpy_backend import NumpyKernels
from repro.core.partition import PartitionEngine
from repro.core.plans import PlanCache
from repro.core.runtime import GraphReduce, GraphReduceOptions, RuntimeContext
from repro.core.shardstore import ShardStore
from repro.graph.csr import build_csc, dense_segments
from repro.graph.edgelist import EdgeList


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_resolve_off_returns_none():
    assert resolve_backend("off") is None


def test_resolve_numpy():
    backend = resolve_backend("numpy")
    assert isinstance(backend, NumpyKernels)
    assert backend.name == "numpy"


def test_resolve_unknown_rejected():
    # "auto"/"numba" named the deleted compiled backend: unknown now.
    for name in ("fortran", "auto", "numba"):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend(name)


# ----------------------------------------------------------------------
# Layout helpers
# ----------------------------------------------------------------------
def test_aligned_allocators():
    for n in (0, 1, 7, 64, 1000):
        buf = layout.aligned_empty(n, np.float32)
        assert buf.size == n and buf.dtype == np.float32
        assert layout.is_aligned(buf)


def test_aligned_copy_preserves_values():
    src = np.arange(13, dtype=np.float32)[1:]  # deliberately unaligned view
    cp = layout.aligned_copy(src)
    assert layout.is_aligned(cp)
    np.testing.assert_array_equal(cp, src)
    cp[0] = -1.0  # a real copy, not a view
    assert src[0] == 1.0


# ----------------------------------------------------------------------
# Scratch arena
# ----------------------------------------------------------------------
def test_arena_reuses_and_grows():
    arena = arena_mod.ScratchArena()
    a = arena.get("k", 100, np.float32)
    assert a.size == 100 and layout.is_aligned(a)
    assert (arena.allocations, arena.reuses) == (1, 0)
    # Same key, smaller request: a view of the cached buffer, no alloc.
    b = arena.get("k", 40, np.float32)
    assert b.base is a.base or b.base is a  # same backing storage
    assert (arena.allocations, arena.reuses) == (1, 1)
    # Growth replaces the buffer (with slack) and counts an allocation.
    c = arena.get("k", 500, np.float32)
    assert c.size == 500
    assert arena.allocations == 2
    # Distinct dtypes under one key get distinct slots.
    d = arena.get("k", 40, np.int64)
    assert d.dtype == np.int64 and arena.allocations == 3
    assert arena.held_bytes > 0
    stats = arena.stats()
    assert stats["allocations"] == 3 and stats["reuses"] == 1
    arena.clear()
    assert arena.held_bytes == 0


def test_arena_slack_absorbs_ragged_sizes():
    arena = arena_mod.ScratchArena()
    arena.get("k", 100, np.float32)
    # Anything within the growth slack reuses instead of reallocating.
    arena.get("k", int(100 * arena_mod.GROWTH_SLACK) - 1, np.float32)
    assert arena.allocations == 1 and arena.reuses == 1


# ----------------------------------------------------------------------
# Engine integration: stats surfacing and runtime-failure fallback
# ----------------------------------------------------------------------
def _run(graph, program, **opts):
    return GraphReduce(
        graph, options=GraphReduceOptions(num_partitions=3, **opts)
    ).run(program)


def test_result_surfaces_kernel_stats_with_arena_reuse():
    g = build("er_small")
    result = _run(g, PageRank(tolerance=1e-3), kernel_backend="numpy")
    k = result.kernels
    assert k is not None and k["backend"] == "numpy"
    assert k["fused_calls"] > 0 and k["fallbacks"] == 0
    # Steady-state iterations borrow from the arena instead of
    # allocating (the satellite fix this layer exists for).
    assert k["reuses"] > k["allocations"]
    off = _run(g, PageRank(tolerance=1e-3), kernel_backend="off")
    assert off.kernels is None


def test_runtime_failure_propagates(monkeypatch):
    """NumPy is the only backend: a fused kernel that raises is a bug,
    surfaced from ``run()`` rather than rerun on the generic path."""
    g = build("er_small")

    def explode(self, *args, **kwargs):
        raise RuntimeError("injected kernel failure")

    monkeypatch.setattr(NumpyKernels, "gather_segments", explode)
    monkeypatch.setattr(NumpyKernels, "gather_rows", explode)
    with pytest.raises(RuntimeError, match="injected kernel failure"):
        _run(g, PageRank(tolerance=1e-3), kernel_backend="numpy")


def test_int_valued_program_skips_fusion_without_warning():
    # BFS computes in float32 but this exercises the spec-gating path:
    # programs without trustworthy f32 specs run generic with a counted
    # (not warned) fallback. ConnectedComponents-style int programs and
    # subclass overrides are covered by the matrix tests; here we just
    # pin that *no* RuntimeWarning escapes a normal gated run.
    g = build("er_small")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = _run(g, BFS(source=0), kernel_backend="numpy")
    assert result.kernels is not None


# ----------------------------------------------------------------------
# Pre-map: a source_only gather mapped once per vertex, gathered as copy
# ----------------------------------------------------------------------
_SPECIALS = [np.inf, 0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 1.0, 3.0, 0.1, 1e30]
_f32 = st.one_of(
    st.sampled_from(_SPECIALS),
    st.floats(min_value=0, max_value=1e6, width=32),
)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["div_degree", "add_one"]),
    reduce=st.sampled_from(["add", "min"]),
    cols=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**16),
    pool=st.lists(_f32, min_size=1, max_size=12),
)
def test_premapped_gather_is_bit_identical_to_per_edge(kind, reduce, cols, seed, pool):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 40)), int(rng.integers(1, 160))
    g = EdgeList(n, rng.integers(0, n, m), rng.integers(0, n, m))  # multi-edges, loops
    csc = build_csc(g)
    shape = (n,) if cols is None else (n, cols)
    values = rng.choice(np.array(pool, dtype=np.float32), size=shape)
    deg = np.maximum(g.out_degrees().astype(np.float32), 1.0)
    spec, copy = GatherSpec(kind, reduce), GatherSpec("copy", reduce)
    kernels = NumpyKernels()
    mapped = np.empty_like(values)
    kernels.premap(spec, values, deg, mapped)
    rows = np.flatnonzero(rng.random(n) < 0.6)
    starts, verts = dense_segments(csc.indptr)

    def gather(how, spec, values, deg):
        temp = np.full(shape, 7.0, dtype=np.float32)
        has = np.zeros(n, dtype=bool)
        if how == "segments":
            if len(csc.indices):
                kernels.gather_segments(
                    how, spec, values, deg, csc.indices, None, starts, verts, temp, has
                )
        else:
            kernels.gather_rows(
                how, spec, values, deg, csc.indptr, csc.indices, None, rows, 0, temp, has
            )
        return temp.tobytes(), has.tobytes()  # bytes: -0.0 != 0.0, nan == nan

    with np.errstate(all="ignore"):
        for how in ("segments", "rows"):
            assert gather(how, copy, mapped, None) == gather(how, spec, values, deg), how


def test_plain_take_still_refuses_an_out_of_range_id():
    """The index gathers dropped ``out=``, not the bounds check a
    corrupt store relies on (``mode="raise"``, never clip/wrap)."""
    g = EdgeList(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    csc = build_csc(g)
    kernels, spec = NumpyKernels(), GatherSpec("copy", "min")
    values = np.zeros(4, dtype=np.float32)
    temp, has = np.full(4, np.inf, dtype=np.float32), np.zeros(4, dtype=bool)
    rows = np.arange(4)
    corrupt = csc.indices.copy()
    corrupt[1] = 4  # one past the last vertex
    with pytest.raises(IndexError):
        kernels.gather_rows(0, spec, values, None, csc.indptr, corrupt, None, rows, 0, temp, has)
    with pytest.raises(IndexError):
        kernels.gather_segments(
            0, spec, values, None, corrupt, None, *dense_segments(csc.indptr), temp, has
        )
    torn = csc.indptr.copy()
    torn[-1] += 5  # row 3 claims edges past the end of the neighbour array
    with pytest.raises(IndexError):
        kernels.activate_targets(0, torn, csc.indices, rows, 0)
    with pytest.raises(IndexError):
        kernels.relay_gather(
            spec, values, None, np.array([4]), np.array([1]), None, np.array([0]), rows,
            temp, has,
        )
    from repro.core.kernels import ApplySpec

    with pytest.raises(IndexError):
        kernels.apply_block(
            0, ApplySpec("min_improve"), values, temp, has, np.array([1, 4]), 0, 4, 0, -1
        )


def _premap_engine(g=None):
    """A PageRank engine over a 2-shard graph, kernels and plans on."""
    g = build("er_small") if g is None else g
    sharded = PartitionEngine().partition(g, 2)
    frontier = FrontierManager(sharded, np.ones(g.num_vertices, dtype=bool))
    plans = PlanCache(sharded, frontier, dense=True)
    program, ctx = PageRank(tolerance=1e-3), RuntimeContext(g)
    engine = ComputeEngine(
        sharded, program, ctx, frontier, plans=plans, kernels=resolve_backend("numpy")
    )
    return sharded, frontier, engine


def _assert_gather_is_fresh(sharded, engine):
    """The next gathering group reads the *current* vertex values."""
    engine.begin_group(("gather_map",))
    for shard in sharded.shards:
        engine._gather_map(shard, False)
    fresh = ComputeEngine(
        sharded, engine.program, engine.ctx, engine.frontier,
        plans=engine.plans, kernels=resolve_backend("numpy"),
    )
    fresh.vertex_values[:] = engine.vertex_values
    for shard in sharded.shards:  # no begin_group: maps per edge
        fresh._gather_map(shard, False)
    assert fresh.premaps == 0
    assert engine.gather_temp.tobytes() == fresh.gather_temp.tobytes()


def test_premap_is_refilled_after_every_vertex_values_write():
    sharded, frontier, engine = _premap_engine()
    n = sharded.num_vertices
    rng = np.random.default_rng(0)
    engine.begin_iteration(0)
    _assert_gather_is_fresh(sharded, engine)
    assert engine.premaps == 1
    # apply writes vertex_values, same iteration
    for shard in sharded.shards:
        engine._gather_reduce(shard, False)
    for shard in sharded.shards:
        engine._apply(shard, False)
    _assert_gather_is_fresh(sharded, engine)
    assert engine.premaps == 2
    # a write between iterations (end_iteration hook, reseed): begin_iteration
    engine.vertex_values[:] = rng.random(n, dtype=np.float32)
    engine.begin_iteration(1)
    _assert_gather_is_fresh(sharded, engine)


# ----------------------------------------------------------------------
# Sum order: every ``add`` route folds a segment left to right
# ----------------------------------------------------------------------
_FOLD_N = 2048  # vertex 0 gathers from 1..1000, every vertex from its ring predecessor


def _fold_graph():
    rng = np.random.default_rng(3)
    star = np.arange(1, 1001)
    ring = np.arange(_FOLD_N)
    src = np.concatenate([star, ring])
    dst = np.concatenate([np.zeros(1000, dtype=np.int64), (ring + 1) % _FOLD_N])
    w = rng.uniform(0.5, 2.0, len(src)).astype(np.float32)
    x = rng.random(_FOLD_N, dtype=np.float32)
    return EdgeList(_FOLD_N, src, dst, w), x


def _left_fold(terms) -> np.float32:
    acc = np.float32(0.0)
    for t in terms:
        acc = np.float32(acc + t)
    return acc


class _FoldSpMV(SpMV):
    """SpMV gathering only at the ``active`` vertices (the rest keep x)."""

    def __init__(self, x, active):
        super().__init__(x)
        self.active = active

    def init_frontier(self, ctx):
        return self.active.copy()


def _fold_engine_route(route, g, x, tmp_path):
    n = g.num_vertices
    second = PartitionEngine().partition(g, 2).shards[1]
    active = np.ones(n, dtype=bool)
    if route in ("rows", "merged", "store"):
        active[:] = False  # vertex 0's shard is rows, and the other...
        active[0] = True
        if route == "rows":  # ...dense, so no merged pass
            active[second.start : second.stop] = True
    opts = GraphReduceOptions(num_partitions=2)
    if route == "no-dense-path":
        opts = opts.replace(dense_fast_path=False)
    elif route == "kernel-off":
        opts = opts.replace(kernel_backend="off")
    program = _FoldSpMV(x, active)
    if route == "host-executor":
        return HostGASExecutor(g, program).run().vertex_values[0]
    if route == "store":
        store = ShardStore.save(PartitionEngine().partition(g, 2), tmp_path / "store")
        result = GraphReduce(shard_store=store, options=opts).run(program)
    else:
        result = GraphReduce(g, options=opts).run(program)
    k = result.kernels
    if route in ("dense", "rows", "merged", "store"):
        assert k["fused_calls"] > 0 and (k["merged_groups"] > 0) == (route == "merged")
    return result.vertex_values[0]


@pytest.mark.parametrize(
    "route",
    ["dense", "rows", "no-dense-path", "merged", "columns", "store", "kernel-off",
     "host-executor"],
)
def test_add_gathers_fold_each_segment_left_to_right(route, tmp_path):
    """A ~1 000-term segment whose pairwise sum (the old ``reduceat``)
    and left fold differ: every ``add`` route returns the left fold."""
    g, x = _fold_graph()
    csc = build_csc(g)
    src = csc.indices[: csc.indptr[1]]
    w = g.weights[csc.edge_ids[: csc.indptr[1]]]
    if route == "columns":  # (n, C) batch state: each column its own fold
        cols = np.stack([x, np.float32(1.0) - x, x * np.float32(3.0)], axis=1)
        temp = np.zeros_like(cols)
        has = np.zeros(len(x), dtype=bool)
        NumpyKernels().gather_segments(
            0, GatherSpec("mul_weight"), cols, None, csc.indices, g.weights[csc.edge_ids],
            *dense_segments(csc.indptr), temp, has,
        )
        for c in range(cols.shape[1]):
            assert temp[0, c].tobytes() == _left_fold(cols[src, c] * w).tobytes()
        return
    want = _left_fold(x[src] * w)
    assert np.add.reduce(x[src] * w) != want  # the case tells the two orders apart
    got = _fold_engine_route(route, g, x, tmp_path)
    assert np.float32(got).tobytes() == want.tobytes()


def test_dense_sum_is_zero_copy_and_traversals_skip_scipy(monkeypatch):
    """The dense ``add`` gather hands SciPy's matvec the shard's own CSC
    ids and the shared ones, so a warm gather allocates nothing
    edge-sized; SSSP and MS-BFS, which never sum, load nothing of SciPy's
    sparse package."""
    import subprocess
    import sys
    import tracemalloc

    from repro.graph.csr import shared_array, sparsetools

    kernels = sparsetools()

    calls = []
    matvec = kernels.csr_matvec

    def recording(n_row, n_col, ap, aj, ax, xx, yx):
        # the thunk copies silently on any dtype or layout mismatch
        assert ap.dtype == aj.dtype and ax.dtype == xx.dtype == yx.dtype
        assert all(a.flags.c_contiguous for a in (ap, aj, ax, xx, yx))
        calls.append((aj, ax))
        return matvec(n_row, n_col, ap, aj, ax, xx, yx)

    monkeypatch.setattr(kernels, "csr_matvec", recording)
    from repro.graph.generators import erdos_renyi

    sharded, frontier, engine = _premap_engine(erdos_renyi(20_000, 200_000, seed=1))

    def gather_all():
        engine.begin_iteration(0)
        engine.begin_group(("gather_map",))
        for shard in sharded.shards:
            engine._gather_map(shard, False)

    gather_all()  # builds the plans, the arena and the shared ones
    calls.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gather_all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == len(sharded.shards)
    ones = shared_array("ones", 1, np.float32).base
    for (aj, ax), shard in zip(calls, sharded.shards):
        assert aj is shard.csc.indices
        assert np.shares_memory(ax, ones)
    smallest = min(s.num_in_edges for s in sharded.shards)
    assert peak - before < 2 * smallest  # under half an int32 copy of any shard
    probe = (
        "import sys\n"
        "from tests.fixture_graphs import build\n"
        "from repro.algorithms import SSSP\n"
        "from repro.core.batch import BatchRunner\n"
        "from repro.core.runtime import GraphReduce\n"
        "g = build('er_small').with_random_weights(seed=1)\n"
        "GraphReduce(g).run(SSSP(source=0))\n"
        "BatchRunner(GraphReduce(g), layout='bits').run_bfs(list(range(8)))\n"
        "print(any(m.startswith('scipy.sparse') for m in sys.modules))\n"
    )
    import repro

    paths = [str(Path(repro.__file__).resolve().parents[1]), str(Path(__file__).resolve().parents[2])]
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert out.stdout.strip() == "False", out.stderr
