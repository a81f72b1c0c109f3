"""Property tests for the CSR/CSC layouts (hypothesis).

The Graph Layout Engine's contract (Section 4.2): in-edges sorted by
destination, out-edges by source, stably, with ``edge_ids`` mapping
every slot back to the original edge-list position. Random directed
multigraphs (self-loops and parallel edges allowed) must round-trip
through both layouts losslessly.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import csr
from repro.graph.csr import (
    build_csc,
    build_csr,
    csr_sum,
    ragged_gather,
    segment_reduce,
    sparsetools,
    stable_order,
)
from repro.graph.edgelist import EdgeList


@st.composite
def edge_lists(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    vid = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(vid, min_size=m, max_size=m))
    dst = draw(st.lists(vid, min_size=m, max_size=m))
    return EdgeList(
        n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    )


def _row_of_slot(indptr):
    """Row index owning each flat slot."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


class TestRoundTrip:
    @settings(max_examples=100)
    @given(edges=edge_lists())
    def test_csr_recovers_edge_list(self, edges):
        csr = build_csr(edges)
        rows = _row_of_slot(csr.indptr)
        # Every slot maps back to the edge it came from, exactly.
        assert np.array_equal(edges.src[csr.edge_ids], rows)
        assert np.array_equal(edges.dst[csr.edge_ids], csr.indices)
        # edge_ids is a permutation: nothing lost, nothing duplicated.
        assert np.array_equal(np.sort(csr.edge_ids), np.arange(edges.num_edges))

    @settings(max_examples=100)
    @given(edges=edge_lists())
    def test_csc_recovers_edge_list(self, edges):
        csc = build_csc(edges)
        rows = _row_of_slot(csc.indptr)
        assert np.array_equal(edges.dst[csc.edge_ids], rows)
        assert np.array_equal(edges.src[csc.edge_ids], csc.indices)
        assert np.array_equal(np.sort(csc.edge_ids), np.arange(edges.num_edges))

    @settings(max_examples=100)
    @given(edges=edge_lists())
    def test_csc_is_csr_of_transpose(self, edges):
        transpose = EdgeList(edges.num_vertices, edges.dst, edges.src)
        csc = build_csc(edges)
        csr_t = build_csr(transpose)
        assert np.array_equal(csc.indptr, csr_t.indptr)
        assert np.array_equal(csc.indices, csr_t.indices)
        assert np.array_equal(csc.edge_ids, csr_t.edge_ids)


class TestStableOrder:
    """The one sort behind every layout: element for element the
    permutation of the indirect stable sort it replaced."""

    @settings(max_examples=300)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.int32, np.int64]),
        # Largest key: either side of 2**16, and of the 2**31 size guard
        # past which (int64 only) the helper falls back to the argsort.
        top=st.sampled_from([0, 2, 2**16 - 1, 2**16, 2**31 - 1, 2**31, 2**40]),
        lowest=st.sampled_from([0, 0, -3]),  # a negative key also falls back
        n=st.integers(min_value=0, max_value=150),
    )
    def test_equals_stable_argsort(self, data, dtype, top, lowest, n):
        top = min(top, np.iinfo(dtype).max)
        # A handful of distinct values, so nearly every key is a duplicate.
        pool = [top] + data.draw(
            st.lists(st.integers(lowest, top), min_size=0, max_size=3)
        )
        keys = np.array(
            data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
            dtype=dtype,
        )
        order = stable_order(keys)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(keys, kind="stable"))


class TestSortInvariants:
    @settings(max_examples=100)
    @given(edges=edge_lists())
    def test_out_edges_sorted_by_source_stably(self, edges):
        csr = build_csr(edges)
        # Sorted by source == slot rows non-decreasing.
        rows = edges.src[csr.edge_ids]
        assert np.all(np.diff(rows) >= 0)
        # Stable: within one source, original edge order is preserved
        # (the invariant the float32 gather-reduction order rests on).
        same_row = np.diff(rows) == 0
        assert np.all(np.diff(csr.edge_ids)[same_row] > 0)
        assert np.array_equal(csr.degrees(), edges.out_degrees())

    @settings(max_examples=100)
    @given(edges=edge_lists())
    def test_in_edges_sorted_by_destination_stably(self, edges):
        csc = build_csc(edges)
        rows = edges.dst[csc.edge_ids]
        assert np.all(np.diff(rows) >= 0)
        same_row = np.diff(rows) == 0
        assert np.all(np.diff(csc.edge_ids)[same_row] > 0)
        assert np.array_equal(csc.degrees(), edges.in_degrees())


class TestRaggedGather:
    @settings(max_examples=100)
    @given(edges=edge_lists(), data=st.data())
    def test_matches_concatenated_slices(self, edges, data):
        csr = build_csr(edges)
        n = edges.num_vertices
        rows = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=n,
                unique=True,
            ).map(sorted)
        )
        rows = np.array(rows, dtype=np.int64)
        pos, seg = ragged_gather(csr.indptr, rows)
        expected_pos = np.concatenate(
            [np.arange(csr.indptr[r], csr.indptr[r + 1]) for r in rows]
        ) if len(rows) else np.empty(0, dtype=np.int64)
        expected_seg = np.repeat(
            rows, (csr.indptr[rows + 1] - csr.indptr[rows]) if len(rows) else 0
        )
        assert np.array_equal(pos, expected_pos)
        assert np.array_equal(seg, expected_seg)


class TestSegmentReduce:
    @settings(max_examples=100)
    @given(
        segments=st.lists(
            st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=9),
            min_size=0,
            max_size=12,
        )
    )
    def test_matches_per_segment_reduce(self, segments):
        values = np.array(
            [v for seg in segments for v in seg], dtype=np.int64
        )
        starts = np.cumsum([0] + [len(s) for s in segments[:-1]], dtype=np.int64)
        for ufunc in (np.add, np.minimum, np.maximum):
            out = segment_reduce(ufunc, values, starts[: len(segments)])
            expected = np.array(
                [ufunc.reduce(np.array(s, dtype=np.int64)) for s in segments],
                dtype=np.int64,
            )
            assert np.array_equal(out, expected)


class TestBlockedSum:
    """:func:`csr_sum` folds ``SUM_BLOCK`` entries per matvec call; the
    blocks must add up to one call over everything, bit for bit."""

    @staticmethod
    def _one_call(rowptr, x, cols, data):
        out = np.zeros((len(rowptr) - 1,) + x.shape[1:], x.dtype)
        kernels = sparsetools()
        if x.ndim == 1:
            kernels.csr_matvec(len(out), len(x), rowptr, cols, data, x, out)
        else:
            kernels.csr_matvecs(
                len(out), x.shape[0], x.shape[1], rowptr, cols, data, x.ravel(), out.ravel()
            )
        return out

    @settings(max_examples=150, deadline=None)
    @given(
        degrees=st.lists(st.integers(0, 40), max_size=30),
        block=st.integers(1, 16),
        columns=st.sampled_from([None, 1, 3]),
        weighted=st.booleans(),
        per_entry=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_blocks_fold_like_one_call(self, degrees, block, columns, weighted, per_entry, seed):
        rng = np.random.default_rng(seed)
        rowptr = np.zeros(len(degrees) + 1, dtype=np.int32)
        np.cumsum(degrees, out=rowptr[1:])
        nnz, n = int(rowptr[-1]), 12
        shape = lambda rows: (rows,) if columns is None else (rows, columns)
        # mixed signs, zeros of both signs and wide magnitudes: order-sensitive sums
        x = (rng.standard_normal(shape(nnz if per_entry else n)) * 10.0 ** rng.integers(-3, 4)).astype(np.float32)
        x.ravel()[:: 5] = -0.0
        data = rng.standard_normal(nnz).astype(np.float32) if weighted else None
        cols = None if per_entry else rng.integers(0, n, nnz).astype(np.int32)
        want = self._one_call(
            rowptr,
            x,
            np.arange(nnz, dtype=np.int32) if per_entry else cols,
            np.ones(nnz, np.float32) if data is None else data,
        )
        with mock.patch.object(csr, "SUM_BLOCK", block):
            got = csr_sum(rowptr, x, cols, data)
        assert got.tobytes() == want.tobytes()

    def test_a_span_sized_sum_reads_ones_one_block_long(self):
        rowptr = np.array([0, 5, 2 * csr.SUM_BLOCK + 7, 3 * csr.SUM_BLOCK + 1], dtype=np.int32)
        nnz = int(rowptr[-1])
        x = np.linspace(-1.0, 1.0, 64, dtype=np.float32)
        cols = (np.arange(nnz) % 64).astype(np.int32)
        with mock.patch.object(csr, "_SHARED", {}):
            got = csr_sum(rowptr, x, cols)
            ones = csr._SHARED[("ones", np.dtype(np.float32))]
        assert len(ones) <= csr.SUM_BLOCK * 1.25 + 1
        want = self._one_call(rowptr, x, cols, np.ones(nnz, np.float32))
        assert got.tobytes() == want.tobytes()
