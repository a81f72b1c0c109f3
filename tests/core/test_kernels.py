"""Kernel layer unit tests (repro.core.kernels).

Covers the registry contract (backend resolution), the scratch arena
(aligned, grow-only, reuse-counted buffers), the layout helpers, and
the engine-level guarantee: a backend that *fails at runtime* must fall
back to the generic path with one RuntimeWarning and an unchanged
result.
"""

import warnings

import numpy as np
import pytest

from tests.fixture_graphs import build
from repro.algorithms import BFS, PageRank
from repro.core.kernels import arena as arena_mod
from repro.core.kernels import layout
from repro.core.kernels import resolve_backend
from repro.core.kernels.numpy_backend import NumpyKernels
from repro.core.runtime import GraphReduce, GraphReduceOptions


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
    ones = layout.aligned_ones(17, np.float32)
    assert layout.is_aligned(ones) and (ones == 1.0).all()
    zeros = layout.aligned_zeros(17, np.int64)
    assert layout.is_aligned(zeros) and not zeros.any()


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


def test_runtime_failure_falls_back_with_single_warning(monkeypatch):
    g = build("er_small")
    reference = _run(g, PageRank(tolerance=1e-3), kernel_backend="off")

    def explode(self, *args, **kwargs):
        raise RuntimeError("injected kernel failure")

    monkeypatch.setattr(NumpyKernels, "gather_segments", explode)
    monkeypatch.setattr(NumpyKernels, "gather_rows", explode)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _run(g, PageRank(tolerance=1e-3), kernel_backend="numpy")
    relevant = [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "falling back to the generic NumPy path" in str(w.message)
    ]
    assert len(relevant) == 1  # fusion disabled after the first failure
    assert np.array_equal(result.vertex_values, reference.vertex_values)
    assert result.frontier_history == reference.frontier_history
    assert result.sim_time == reference.sim_time
    assert result.kernels is not None
    assert result.kernels["fallbacks"] >= 1


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
