"""Batch executor tests (repro.core.batch).

The contract under test: every query in a batch is *bit-identical* to
the solo run it replaces -- same values, same retirement iteration as
the solo push schedule -- across program families, state layouts,
storage tiers (in-RAM vs shard store) and traversal directions. The
batch is a pure scan-sharing rewrite; nothing about any individual
query's answer may change.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.fixture_graphs import build
from repro.algorithms import SSSP, BFSGather, ConnectedComponents, PageRank
from repro.core.batch import (
    BatchedTraversal,
    BatchRunner,
    BitParallelBFS,
    _BatchLedger,
    _validate_sources,
)
from repro.core.partition import PartitionEngine
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.core.shardstore import ShardStore
from repro.graph.edgelist import EdgeList
from repro.graph.generators import path_graph

SOURCES = [0, 7, 33, 150]
DAMPINGS = [0.7, 0.85, 0.9]
PR_ITERS = 8


def _engine(graph=None, store=None, **opts):
    options = GraphReduceOptions(num_partitions=3, **opts)
    if store is not None:
        return GraphReduce(shard_store=store, options=options)
    return GraphReduce(graph, options=options)


def _store(graph, tmp_path, tag):
    return ShardStore.save(
        PartitionEngine().partition(graph, 3), tmp_path / f"store-{tag}"
    )


def _solo_sweep(make_engine, family):
    """Per-query solo results: (values column, iterations) in order."""
    out = []
    if family in ("bfs", "sssp"):
        cls = BFSGather if family == "bfs" else SSSP
        for s in SOURCES:
            r = make_engine().run(cls(source=s))
            out.append((r.vertex_values, r.iterations))
    elif family == "cc":
        for _ in range(2):
            r = make_engine().run(ConnectedComponents())
            out.append((r.vertex_values, r.iterations))
    else:
        for d in DAMPINGS:
            r = make_engine().run(
                PageRank(damping=d, tolerance=None, max_iterations=PR_ITERS)
            )
            out.append((r.vertex_values, r.iterations))
    return out


def _batch_sweep(make_engine, family, layout="auto"):
    runner = BatchRunner(make_engine(), layout=layout)
    if family == "bfs":
        return runner.run_bfs(SOURCES)
    if family == "sssp":
        return runner.run_sssp(SOURCES)
    if family == "cc":
        return runner.run_cc(count=2)
    return runner.run_pagerank(DAMPINGS, iterations=PR_ITERS)


def _assert_matches_solo(report, solo, label):
    assert len(report.queries) == len(solo), label
    for q, (values, iterations) in zip(report.queries, solo):
        tag = f"{label}/q{q.index}"
        assert np.array_equal(q.values, values), tag
        assert q.iterations == iterations, tag


# ----------------------------------------------------------------------
# Equivalence matrix: family x layout x storage tier
# ----------------------------------------------------------------------

FAMILY_LAYOUTS = [
    ("bfs", "bits"),
    ("bfs", "columns"),
    ("sssp", "columns"),
    ("cc", "columns"),
    ("pagerank", "columns"),
]


@pytest.mark.parametrize("placement", ["ram", "store"])
@pytest.mark.parametrize("family,layout", FAMILY_LAYOUTS)
def test_batch_matches_solo(family, layout, placement, tmp_path):
    g = build("er_mid")
    if family == "sssp":
        g = g.with_random_weights(seed=33)
    if placement == "store":
        store = _store(g, tmp_path, f"{family}-{layout}")
        make_engine = lambda: _engine(store=store)
    else:
        make_engine = lambda: _engine(g)
    solo = _solo_sweep(make_engine, family)
    report = _batch_sweep(make_engine, family, layout=layout)
    _assert_matches_solo(report, solo, f"{family}/{layout}/{placement}")
    assert report.stats["queries"] == len(solo)


def test_batch_pull_direction_keeps_push_schedule():
    """Values AND per-query iterations stay solo-push-identical when the
    batch itself runs direction-optimized -- the iteration-0 no-op pins
    the natural schedule regardless of batch direction."""
    g = build("er_mid")
    solo = _solo_sweep(lambda: _engine(g), "bfs")
    for direction in ("pull", "auto"):
        report = _batch_sweep(lambda: _engine(g, direction=direction), "bfs")
        _assert_matches_solo(report, solo, f"bfs/direction={direction}")


# ----------------------------------------------------------------------
# Retirement: random source subsets behave like their solo runs
# ----------------------------------------------------------------------

_SOLO_CACHE: dict[int, tuple] = {}


def _solo_bfs(source):
    if source not in _SOLO_CACHE:
        r = _engine(build("er_mid")).run(BFSGather(source=source))
        _SOLO_CACHE[source] = (r.vertex_values, r.iterations)
    return _SOLO_CACHE[source]


@given(st.lists(st.integers(0, 199), min_size=1, max_size=6, unique=True))
@settings(max_examples=12, deadline=None)
def test_random_source_subsets_retire_like_solo(sources):
    report = BatchRunner(_engine(build("er_mid"))).run_bfs(sources)
    for q, s in zip(report.queries, sources):
        values, iterations = _solo_bfs(s)
        assert np.array_equal(q.values, values), s
        assert q.iterations == iterations, s


def test_early_retirement_flags_short_queries():
    """Queries in a small component retire before the batch's last
    iteration and say so."""
    g = build("disc_er")
    report = BatchRunner(_engine(g)).run_bfs([0, g.num_vertices - 1])
    iters = [q.iterations for q in report.queries]
    assert len(set(iters)) > 1
    batch_iters = report.runs[0].iterations
    for q in report.queries:
        assert q.retired_early == (q.iterations < batch_iters)
    assert report.stats["retired_early"] == 1


# ----------------------------------------------------------------------
# Chunking and submission-order bookkeeping
# ----------------------------------------------------------------------


def test_chunks_and_submission_order():
    g = build("er_mid")
    runner = BatchRunner(_engine(g), batch_size=2)
    order = [(s, runner.submit("bfs", source=s)) for s in [5, 3, 9, 1, 7]]
    report = runner.execute()
    assert report.stats["chunks"] == 3
    assert [q.index for q in report.queries] == [i for _, i in order]
    for q, (s, _) in zip(report.queries, order):
        assert q.params["source"] == s
        assert np.array_equal(q.values, _solo_bfs(s)[0])


def test_mixed_families_group_but_return_in_order():
    g = build("er_mid")
    runner = BatchRunner(_engine(g))
    runner.submit("bfs", source=3)
    runner.submit("pagerank", damping=0.85, iterations=PR_ITERS)
    runner.submit("bfs", source=9)
    report = runner.execute()
    assert [q.family for q in report.queries] == ["bfs", "pagerank", "bfs"]
    assert report.stats["chunks"] == 2  # one per family
    assert np.array_equal(report.queries[0].values, _solo_bfs(3)[0])
    assert np.array_equal(report.queries[2].values, _solo_bfs(9)[0])


def test_wide_batch_packs_multiple_words():
    g = build("er_mid")
    report = BatchRunner(_engine(g), batch_size=128).run_bfs(list(range(70)))
    assert report.stats["chunks"] == 1
    assert report.runs[0].batch["words"] == 2
    for k in (0, 63, 64, 69):
        assert np.array_equal(report.queries[k].values, _solo_bfs(k)[0]), k


# ----------------------------------------------------------------------
# Validation and ledger edge cases
# ----------------------------------------------------------------------


def test_submit_validation_errors():
    runner = BatchRunner(_engine(build("er_mid")))
    with pytest.raises(ValueError, match="unknown family"):
        runner.submit("dijkstra")
    with pytest.raises(ValueError, match="need a source"):
        runner.submit("bfs")
    with pytest.raises(ValueError, match="out of range"):
        runner.submit("bfs", source=200)
    with pytest.raises(ValueError, match="out of range"):
        runner.submit("sssp", source=-1)
    with pytest.raises(ValueError, match="damping"):
        runner.submit("pagerank", damping=1.2)
    with pytest.raises(ValueError, match="iterations"):
        runner.submit("pagerank", iterations=0)
    with pytest.raises(ValueError, match="no queries"):
        runner.execute()


def test_runner_constructor_validation():
    engine = _engine(build("er_mid"))
    with pytest.raises(ValueError, match="batch_size"):
        BatchRunner(engine, batch_size=0)
    with pytest.raises(ValueError, match="unknown layout"):
        BatchRunner(engine, layout="rows")


def test_bits_layout_rejects_non_bfs():
    runner = BatchRunner(_engine(build("er_mid")), layout="bits")
    runner.submit("pagerank", damping=0.85)
    with pytest.raises(ValueError, match="only supports bfs"):
        runner.execute()


def test_validate_sources_edge_cases():
    with pytest.raises(ValueError, match="at least one"):
        _validate_sources([], 10)
    with pytest.raises(ValueError, match="integers"):
        _validate_sources([1.5], 10)
    assert _validate_sources([3.0, 7], 10).tolist() == [3, 7]  # integral floats ok


def test_ledger_retires_on_zero_out_degree_frontier():
    degrees = np.array([2, 0, 1])
    # Query 0 changed a vertex with out-edges: stays live. Query 1
    # changed only a sink: its solo frontier empties, retire at t+1.
    rows = np.array([0, 1])
    bits = np.array([[True, False], [False, True]])
    # Bit rows as the columnar layout packs them (bytes) and as MS-BFS
    # hands them over (uint64 words).
    for changes in (np.packbits(bits, axis=1, bitorder="little"), np.array([[1], [2]], np.uint64)):
        ledger = _BatchLedger(2)
        ledger.observe(rows, changes, degrees, iteration=3)
        assert ledger.retired_at.tolist() == [-1, 4]
        assert ledger.alive.tolist() == [True, False]
        # A retired query is never revisited; an empty changed set retires.
        ledger.observe(np.empty(0, dtype=np.int64), changes[:0], degrees, 5)
        assert ledger.retired_at.tolist() == [6, 4]
        assert ledger.stats()["retired"] == 2


def test_ledger_seeds_retire_sink_sources():
    ledger = _BatchLedger(3)
    # Duplicate sources are separate queries; a sink source retires at 1.
    ledger.observe_seeds(np.array([2, 1, 2]), np.array([2, 0, 1]))
    assert ledger.retired_at.tolist() == [-1, 1, -1]


# ----------------------------------------------------------------------
# Vectorised ledger vs the per-query loop it replaced (kept here as the
# oracle): same retirement iterations, depths and handed-out values
# ----------------------------------------------------------------------

_EMPTY_ROWS = np.empty(0, dtype=np.int64)


class _LoopLedger(_BatchLedger):
    """The pre-vectorisation ledger: one Python pass per live query."""

    def observe(self, col_rows_fn, out_degrees, iteration, seeds=None):
        for k in np.flatnonzero(self.alive):
            col_rows = seeds[k : k + 1] if seeds is not None else col_rows_fn(k)
            if col_rows.size and int(out_degrees[col_rows].sum()) > 0:
                continue
            self.retired_at[k] = iteration + 1


class _LoopBitBFS(BitParallelBFS):
    """MS-BFS with the former bookkeeping: vertex-major depths stamped by
    ``np.nonzero`` + fancy scatter, per-query ledger loop, column copies."""

    depths = None  # a plain attribute here, not the planes-built property

    def __init__(self, sources):
        super().__init__(sources)
        self.ledger = _LoopLedger(self.num_queries)

    def init_vertices(self, ctx):
        vals = super().init_vertices(ctx)
        cols = np.arange(self.num_queries)
        self.depths = np.full((ctx.num_vertices, self.num_queries), np.inf, np.float32)
        self.depths[self.sources, cols] = 0.0
        return vals

    def end_iteration(self, ctx, values, changed, iteration):
        rows = np.flatnonzero(changed)
        bits = None
        if rows.size:
            cur = values[rows]
            newly = cur & ~self._prev[rows]
            self._prev[rows] = cur
            bits = np.unpackbits(
                np.ascontiguousarray(newly).view(np.uint8), axis=1, bitorder="little"
            )[:, : self.num_queries].astype(bool)
            r_idx, q_idx = np.nonzero(bits)
            self.depths[rows[r_idx], q_idx] = np.float32(iteration)

        def col_rows(k):
            return rows[bits[:, k]] if bits is not None else _EMPTY_ROWS

        seeds = self.sources if iteration == 0 else None
        self.ledger.observe(col_rows, ctx.out_degrees, iteration, seeds=seeds)

    def query_values(self, vertex_values, k):
        return np.ascontiguousarray(self.depths[:, k])


class _LoopTraversal(BatchedTraversal):
    def __init__(self, mode, sources=None, count=None):
        super().__init__(mode, sources=sources, count=count)
        self.ledger = _LoopLedger(self.num_queries)

    def end_iteration(self, ctx, values, changed, iteration):
        rows = np.flatnonzero(changed)
        diff = None
        if rows.size:
            cur = values[rows]
            diff = cur != self._prev[rows]
            self._prev[rows] = cur

        def col_rows(k):
            return rows[diff[:, k]] if diff is not None else _EMPTY_ROWS

        seeds = self.sources if iteration == 0 and self.mode != "cc" else None
        self.ledger.observe(col_rows, ctx.out_degrees, iteration, seeds=seeds)


def _assert_ledger_matches_loop(graph, sources, layout, partitions=3):
    if layout == "bits":
        program, oracle = BitParallelBFS(sources), _LoopBitBFS(sources)
    else:
        program = BatchedTraversal("bfs", sources=sources)
        oracle = _LoopTraversal("bfs", sources=sources)
    options = GraphReduceOptions(num_partitions=partitions)
    run = GraphReduce(graph, options=options).run(program)
    ref = GraphReduce(graph, options=options).run(oracle)
    assert run.iterations == ref.iterations
    assert run.frontier_history == ref.frontier_history
    assert run.batch == ref.batch
    assert np.array_equal(program.ledger.retired_at, oracle.ledger.retired_at)
    assert (program.ledger.retired_at > 0).all()  # every query retired
    if layout == "bits":
        assert np.array_equal(program.depths, oracle.depths.T)
    for k in range(len(sources)):
        got = program.query_values(run.vertex_values, k)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == (graph.num_vertices,)
        assert np.array_equal(got, oracle.query_values(ref.vertex_values, k)), k
    return program, run


def _sink_graph():
    """Directed: 0 -> 1 -> 2 -> 3 and 0 -> 4; 3, 4 and the isolated 5, 6
    have no out-edge, and nothing reaches 5, 6 or (from 1) 4."""
    return EdgeList.from_pairs(
        [(0, 1), (1, 2), (2, 3), (0, 4)], num_vertices=7, name="sinks"
    )


@pytest.mark.parametrize("layout", ["bits", "columns"])
@pytest.mark.parametrize("num_queries", [1, 63, 64, 65, 130])
def test_vectorised_ledger_matches_loop_oracle(num_queries, layout):
    # One and several uint64 words; er_sparse is directed and mostly
    # disconnected (unreachable vertices, sink sources), and cycling a
    # short source list makes most queries duplicates of another.
    g = build("er_sparse")
    rng = np.random.default_rng(num_queries)
    sources = rng.choice(g.num_vertices, size=min(num_queries, 40), replace=False)
    sources = np.resize(sources, num_queries)
    _assert_ledger_matches_loop(g, sources, layout)


@pytest.mark.parametrize("layout", ["bits", "columns"])
def test_ledger_sink_sources_and_unreachable_vertices(layout):
    g = _sink_graph()
    sources = [0, 3, 5, 1, 3, 0]  # sinks, an isolated vertex, duplicates
    program, run = _assert_ledger_matches_loop(g, sources, layout, partitions=2)
    assert program.ledger.retired_at.tolist() == [4, 1, 1, 3, 1, 4]
    for k, s in enumerate(sources):
        solo = GraphReduce(g, options=GraphReduceOptions(num_partitions=2)).run(
            BFSGather(source=s)
        )
        assert solo.iterations == program.ledger.retired_at[k], s
        assert np.array_equal(program.query_values(run.vertex_values, k), solo.vertex_values)
    from_one = program.query_values(run.vertex_values, 3)
    assert from_one.tolist() == [np.inf, 0.0, 1.0, 2.0, np.inf, np.inf, np.inf]


@given(
    st.integers(2, 24).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=70),
        )
    ),
    st.sampled_from(["bits", "columns"]),
)
@settings(max_examples=25, deadline=None)
def test_ledger_matches_loop_on_random_graphs(case, layout):
    n, pairs, sources = case
    g = EdgeList.from_pairs(pairs, num_vertices=n, name="hyp")
    _assert_ledger_matches_loop(g, sources, layout, partitions=2)


def test_bits_depth_codes_wider_than_a_byte():
    # A 300-vertex directed path: depths up to 299 take nine bit planes,
    # so the codes the depth matrix is built from are wider than a byte.
    g = path_graph(300)
    sources = [0, 150, 299, 0]
    program, run = _assert_ledger_matches_loop(g, sources, "bits", partitions=2)
    assert len(program._planes) == 9
    options = GraphReduceOptions(num_partitions=2)
    for k, s in enumerate(sources):
        solo = GraphReduce(g, options=options).run(BFSGather(source=s))
        assert solo.iterations == program.ledger.retired_at[k], s
        assert np.array_equal(program.query_values(run.vertex_values, k), solo.vertex_values), s


# ----------------------------------------------------------------------
# CLI source parsing
# ----------------------------------------------------------------------


def _args(**kw):
    base = dict(sources_file=None, sources=None, source=None)
    base.update(kw)
    return types.SimpleNamespace(**base)


def test_cli_source_list_parsing(tmp_path):
    from repro.cli import _check_sources, _parse_id_list, _single_source, _source_ids

    assert _parse_id_list("0,17,42") == [0, 17, 42]
    assert _parse_id_list(" 1 2\n3,4 ") == [1, 2, 3, 4]
    with pytest.raises(SystemExit, match="invalid vertex id"):
        _parse_id_list("1,x,3")

    assert _source_ids(_args()) == [0]  # default
    assert _source_ids(_args(source="5,6")) == [5, 6]
    path = tmp_path / "srcs.txt"
    path.write_text("10 11\n12\n")
    assert _source_ids(_args(sources_file=str(path), sources="13")) == [10, 11, 12, 13]
    with pytest.raises(SystemExit, match="does not exist"):
        _source_ids(_args(sources_file=str(tmp_path / "missing.txt")))

    assert _single_source(_args(source="7")) == 7
    with pytest.raises(SystemExit, match="exactly one"):
        _single_source(_args(source="1,2"))

    _check_sources([0, 3], 4)
    with pytest.raises(SystemExit, match="source 4 out of range"):
        _check_sources([0, 4], 4)
