"""Host fast-path equivalence and plan-cache unit tests.

The dense-or-rows plan layer and the fused kernels are pure host-side
rewrites: every combination must produce
bit-identical vertex values, the same frontier trajectory, the same
simulated timeline and the same WorkItems censuses as the slow path on
every fixture graph. The second half unit-tests the PlanCache itself
(dense reuse/build accounting, row-built queries, freshness under mask
mutation) and the FrontierManager machinery it leans on.
"""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tests.fixture_graphs import FIXTURE_NAMES, build
from repro.algorithms import BFS, BFSGather, ConnectedComponents, PageRank, SSSP
from repro.core.compute import ComputeEngine
from repro.core.frontier import FrontierManager
from repro.core.fusion import build_plan
from repro.core.kernels import resolve_backend
from repro.core.kernels.numpy_backend import NumpyKernels
from repro.core.partition import PartitionEngine
from repro.core.plans import PlanCache
from repro.core.runtime import GraphReduce, GraphReduceOptions, RuntimeContext
from repro.graph.edgelist import EdgeList
from repro.obs.span import Observer


class EdgeStampingSSSP(SSSP):
    """SSSP that also broadcasts distances onto its out-edges.

    Gives the matrix a program with a real scatter phase and edge
    state, so the *full* out-plan path (eids/weights/row_ids columns)
    is exercised, not just the frontier-activate lite plan.
    """

    edge_dtype = np.float32

    def scatter(self, ctx, src_ids, src_vals, weights, edge_states):
        return src_vals + weights


PROGRAMS = {
    "bfs": lambda: BFS(source=0),
    "sssp": lambda: SSSP(source=0),
    "pagerank": lambda: PageRank(tolerance=1e-3),
    "pagerank_power": lambda: PageRank(tolerance=None, max_iterations=12),
    "cc": lambda: ConnectedComponents(),
    "stamping_sssp": lambda: EdgeStampingSSSP(source=0),
}

#: every fast path alone, then everything at once; the kernels_* pair
#: pins the fused-kernel axis explicitly (the others inherit the
#: "numpy" default).
COMBOS = {
    "plans_only": dict(dense_fast_path=True),
    "kernels_off": dict(dense_fast_path=True, kernel_backend="off"),
    "kernels_numpy": dict(dense_fast_path=True, kernel_backend="numpy"),
}
SLOW = dict(dense_fast_path=False)

#: The regime the rows route serves without any memo: tolerance-driven
#: PageRank on an RMAT fixture with isolated vertices settles on "every
#: vertex with an in-edge" -- non-dense, and unchanged for many
#: iterations.
STABLE_FRONTIER = ("rmat_mid", "pagerank")


def _assert_stable_nondense(result, num_vertices):
    sizes = result.frontier_history[1:-1]
    stable = max(sizes.count(s) for s in set(sizes))
    assert stable >= 5 and max(sizes) < num_vertices, result.frontier_history


#: Inputs on which the serial fused leg must take the iteration-scoped
#: routes, so the matrices compare them against the per-shard path: a
#: road-grid traversal's waves fill no interval (merged rows pass, the
#: ``apply_fa`` group included) and PageRank's gather is source-only
#: (pre-map) over a frontier that turns non-dense.
MERGED_INPUTS = (("road10x10", "bfs"), ("road10x10", "sssp"), STABLE_FRONTIER)


def assert_iteration_scoped_routes_engaged(label, graph_name, algo, serial):
    if (graph_name, algo) in MERGED_INPUTS:
        assert serial.kernels["merged_groups"] > 0, label
    if algo == "pagerank":
        assert 0 < serial.kernels["premaps"] <= serial.iterations, label


def _run(g, make_program, fastpath):
    opts = GraphReduceOptions(num_partitions=3, **fastpath)
    return GraphReduce(g, options=opts).run(make_program())


def _kernel_items(result):
    return {
        name: c.value
        for name, c in result.observer.metrics.counters.items()
        if name.startswith(("compute.", "frontier."))
    }


@pytest.mark.parametrize("graph_name", FIXTURE_NAMES)
def test_fastpath_combos_match_slow_path(graph_name):
    g = build(graph_name)
    weighted = g.with_random_weights(seed=33)
    for algo, make_program in PROGRAMS.items():
        graph = weighted if "sssp" in algo else g
        slow = _run(graph, make_program, SLOW)
        assert slow.plan_cache is None  # fast path off reports nothing
        stable = (graph_name, algo) == STABLE_FRONTIER
        if stable:
            _assert_stable_nondense(slow, g.num_vertices)
        for combo, fastpath in COMBOS.items():
            fast = _run(graph, make_program, fastpath)
            label = f"{algo}/{combo}"
            if stable and fastpath["dense_fast_path"]:
                assert fast.plan_cache["sparse_bypass"] > 0, label
            if combo in ("plans_only", "kernels_numpy"):
                assert_iteration_scoped_routes_engaged(label, graph_name, algo, fast)
            assert np.array_equal(fast.vertex_values, slow.vertex_values), label
            assert fast.frontier_history == slow.frontier_history, label
            assert fast.sim_time == slow.sim_time, label
            assert fast.iterations == slow.iterations, label
            assert fast.converged == slow.converged, label
            # Same simulated kernels: identical edge/vertex censuses and
            # frontier traffic, phase by phase.
            assert _kernel_items(fast) == _kernel_items(slow), label


# Out-of-core: the same matrix, but the graph lives in an on-disk shard
# store. One warm config (read-ahead hints + every host fast path) and
# one deliberately starved config (1-shard cache, no hints: every
# acquisition evicts and releases the previous shard's pages) must both
# be bit-identical to the in-RAM slow path.
STORE_COMBOS = {
    "prefetch_on": dict(dense_fast_path=True),
    "cold_budget1": dict(memory_budget=1, host_prefetch=False),
}


@pytest.mark.parametrize("graph_name", FIXTURE_NAMES)
def test_store_runs_match_in_ram(graph_name, tmp_path):
    from repro.core.shardstore import ShardStore

    g = build(graph_name)
    weighted = g.with_random_weights(seed=33)
    stores = {
        label: ShardStore.save(PartitionEngine().partition(graph, 3), tmp_path / label)
        for label, graph in (("plain", g), ("weighted", weighted))
    }
    runs = []
    for algo, make_program in PROGRAMS.items():
        if "sssp" not in algo:
            runs.append((algo, make_program, g, "plain", STORE_COMBOS))
            continue
        runs.append((algo, make_program, weighted, "weighted", STORE_COMBOS))
        # An unweighted store synthesizes fresh unit weights on every
        # load, and a 1-shard cache evicts the shard on every fault.
        cold = {"unit_cold_budget1": STORE_COMBOS["cold_budget1"]}
        runs.append((algo, make_program, g.with_unit_weights(), "plain", cold))
    for algo, make_program, graph, store_label, combos in runs:
        slow = _run(graph, make_program, SLOW)
        store = stores[store_label]
        for combo, extra in combos.items():
            opts = GraphReduceOptions(num_partitions=3, **extra)
            ooc = GraphReduce(shard_store=store, options=opts).run(make_program())
            label = f"{algo}/{combo}"
            assert np.array_equal(ooc.vertex_values, slow.vertex_values), label
            assert ooc.frontier_history == slow.frontier_history, label
            assert ooc.sim_time == slow.sim_time, label
            assert ooc.iterations == slow.iterations, label
            assert ooc.converged == slow.converged, label
            assert _kernel_items(ooc) == _kernel_items(slow), label
            assert ooc.prefetch is not None, label


def test_power_iteration_pagerank_stays_dense():
    g = build("er_mid")
    result = _run(
        g, lambda: PageRank(tolerance=None, max_iterations=10),
        dict(dense_fast_path=True),
    )
    n = g.num_vertices
    # always_active: the frontier is the whole vertex set every round,
    # so after the compulsory first builds (one gather plan, one out
    # plan and one vid range per shard) every query reuses them.
    assert result.iterations == 10
    assert all(size == n for size in result.frontier_history[:-1])
    stats = result.plan_cache
    assert stats["sparse_bypass"] == 0
    assert stats["misses"] == 3 * 3, stats
    assert stats["hits"] == 9 * stats["misses"], stats


# ----------------------------------------------------------------------
# PlanCache unit tests on a hand-built sharded graph
# ----------------------------------------------------------------------
def _make(pairs, n, p=2, dense=True, initial=None):
    edges = EdgeList.from_pairs(pairs, num_vertices=n)
    sharded = PartitionEngine().partition(edges, p)
    init = np.ones(n, dtype=bool) if initial is None else initial
    frontier = FrontierManager(sharded, init)
    plans = PlanCache(sharded, frontier, dense=dense)
    return sharded, frontier, plans


PAIRS = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (1, 3)]


def test_gather_plan_matches_slow_path_build():
    sharded, frontier, plans = _make(PAIRS, 4, p=2)
    _, _, off = _make(PAIRS, 4, p=2, dense=False)
    for shard in sharded.shards:
        fast, slow = plans.gather_plan(shard), off.gather_plan(shard)
        assert fast.dense and not slow.dense
        np.testing.assert_array_equal(fast.indices, slow.indices)
        np.testing.assert_array_equal(fast.eids, slow.eids)
        np.testing.assert_array_equal(fast.row_ids, slow.row_ids)
        np.testing.assert_array_equal(fast.starts, slow.starts)
        np.testing.assert_array_equal(fast.verts, slow.verts)
        assert fast.n_edges == slow.n_edges


def test_hit_miss_invalidation_accounting():
    sharded, frontier, plans = _make(PAIRS, 4, p=1)
    shard = sharded.shards[0]

    def counts():
        return plans.hits, plans.misses, plans.sparse_bypass

    plans.gather_plan(shard)  # dense build
    plans.gather_plan(shard)  # dense reuse
    assert counts() == (1, 1, 0)
    # A non-dense frontier is row-built: neither hit nor miss, and
    # nothing is kept -- the next query builds again.
    frontier.set_current(np.array([True, False, True, False]))
    first = plans.gather_plan(shard)
    assert not first.dense and plans.gather_plan(shard) is not first
    assert counts() == (1, 1, 2)
    # Growing the frontier is seen by the very next query.
    frontier.set_current(np.array([True, True, True, False]))
    np.testing.assert_array_equal(plans.gather_plan(shard).rows, [0, 1, 2])
    assert counts() == (1, 1, 3)
    # Back to dense: the stored plan is still there.
    frontier.activate_all()
    assert plans.gather_plan(shard).dense
    assert counts() == (2, 1, 3)
    stats = plans.stats()
    assert stats["hits"] == 2 and stats["misses"] == 1
    assert stats["sparse_bypass"] == 3 and "invalidations" not in stats
    assert stats["hit_rate"] == pytest.approx(2 / 3)


def test_dense_plans_are_reused_by_identity():
    sharded, frontier, plans = _make(PAIRS, 4, p=2)
    shard = sharded.shards[0]
    first = plans.gather_plan(shard)
    frontier.advance()  # frontier emptied, then re-densified
    frontier.activate_all()
    assert plans.gather_plan(shard) is first  # topology-static plan
    rows, dense = plans.active_rows(shard)
    assert dense
    np.testing.assert_array_equal(rows, np.arange(shard.start, shard.stop))


def _span_vids(plan):
    return plan.lo + np.flatnonzero(plan.present)


def test_dense_out_plan_span_covers_unique_vids():
    """A dense out plan's presence span holds exactly the shard's unique
    out-neighbours, from the first to the last: here one shard has no
    out-edge and the other's span ends at the last vertex."""
    n = 8
    pairs = [(0, 7), (1, 2), (2, 7), (0, 2), (3, 1), (1, 7)]
    edges = EdgeList.from_pairs(pairs, num_vertices=n)
    sharded = PartitionEngine().partition(edges, 2, "vertex_balanced")  # [0, 4) [4, 8)
    frontier = FrontierManager(sharded, np.ones(n, dtype=bool))
    plans = PlanCache(sharded, frontier)
    frontier.mark_changed(np.arange(n))
    spans = []
    for shard in sharded.shards:
        plan = plans.out_plan(shard, full=True)
        assert plan.dense and plan.full
        np.testing.assert_array_equal(_span_vids(plan), np.unique(shard.csr.indices))
        assert plan.present.dtype == bool
        assert plan.n_edges == shard.num_out_edges
        spans.append((plan.n_edges, plan.lo, plan.lo + len(plan.present)))
        # A later lite query is served by the same full plan.
        assert plans.out_plan(shard, full=False) is plan
    assert (0, 0, 0) in spans  # no out-edge: an empty span
    assert any(n_edges and hi == n for n_edges, _, hi in spans)


def _activations(frontier):
    return frontier.obs.metrics.counters["frontier.activations"].value


@pytest.mark.parametrize("graph_name", FIXTURE_NAMES)
def test_dense_activation_matches_per_out_edge_form(graph_name):
    """ORing a dense plan's presence span leaves the same ``next`` mask
    and the same ``frontier.activations`` total as the slow path's one
    write per out-edge."""
    sharded = PartitionEngine().partition(build(graph_name), 3)
    init = np.ones(sharded.num_vertices, dtype=bool)
    fast = FrontierManager(sharded, init, obs=Observer())
    slow = FrontierManager(sharded, init, obs=Observer())
    fast.changed[:] = True
    plans = PlanCache(sharded, fast)
    for shard in sharded.shards:
        plan = plans.out_plan(shard)
        if shard.num_interval_vertices:
            assert plan.dense
            np.testing.assert_array_equal(_span_vids(plan), np.unique(shard.csr.indices))
        if plan.n_edges:
            fast.activate_next_mask(plan.present, plan.n_edges, start=plan.lo)
        slow.activate_next(shard.csr.indices)
        np.testing.assert_array_equal(fast.next, slow.next)
    assert _activations(fast) == _activations(slow)


def test_disabled_cache_never_counts():
    sharded, frontier, plans = _make(PAIRS, 4, p=1, dense=False)
    shard = sharded.shards[0]
    assert not plans.enabled
    for _ in range(3):
        assert not plans.gather_plan(shard).dense  # all-active, still from scratch
        plans.out_plan(shard)
        plans.active_rows(shard)
    assert (plans.hits, plans.misses, plans.sparse_bypass) == (0, 0, 0)


# ----------------------------------------------------------------------
# Dense plans live on the graph
# ----------------------------------------------------------------------
def test_held_bytes_count_row_pointers_and_the_shared_ones_once():
    """Each dense gather plan weighs its int32 row pointer (``starts`` is
    its view). Held bytes are the graph's stored plans, counted once: a
    hit adds nothing. The float32 ones every dense ``add`` sum reads is
    one process-wide array (``csr.shared_array``), no plan's bytes."""
    from repro.core.plans import _plan_nbytes

    sharded, frontier, plans = _make(PAIRS * 3 + [(1, 0), (2, 0)], 4, p=2)
    built = [plans.dense_gather_plan(s) for s in sharded.shards]
    for plan in built:
        assert plan.rowptr.dtype == np.int32 and plan.starts.base is plan.rowptr
    assert plans.stats()["held_bytes"] == sum(map(_plan_nbytes, built))
    plans.dense_gather_plan(sharded.shards[0])  # a hit adds nothing
    assert plans.stats()["held_bytes"] == sum(map(_plan_nbytes, built))
    assert built[0].row_ids is not built[0].row_ids  # derived per read, never kept


@pytest.mark.parametrize("where", ["ram", "store"])
def test_second_run_reuses_the_graphs_plans(where, tmp_path):
    """A second run on one engine builds no dense plan: it finds every
    one the first run built on the engine's sharded graph. Nothing else
    carries over, so a store run faults its shards in again."""
    from repro.core.shardstore import ShardStore

    g = build("er_mid")
    opts = GraphReduceOptions(num_partitions=3, cache_policy="never")
    if where == "store":
        store = ShardStore.save(PartitionEngine().partition(g, 3), tmp_path / "store")
        make_engine = lambda: GraphReduce(shard_store=store, options=opts)
    else:
        make_engine = lambda: GraphReduce(g, options=opts)
    make = PROGRAMS["pagerank_power"]
    engine = make_engine()
    first, second = engine.run(make()), engine.run(make())
    fresh = make_engine().run(make())
    pc1, pc2 = first.plan_cache, second.plan_cache
    assert pc1["misses"] > 0 and pc2["misses"] == 0
    assert pc2["hits"] == pc1["hits"] + pc1["misses"]
    assert fresh.plan_cache == pc1
    for run in (second, fresh):
        assert run.vertex_values.tobytes() == first.vertex_values.tobytes()
        assert run.sim_time == first.sim_time
    if where == "store":
        assert first.prefetch["faults"] > 0 and second.prefetch == first.prefetch


def test_unweighted_store_plans_alias_the_shared_ones(tmp_path):
    """An unweighted store stands in views of the process-wide ones for
    its weights, so the dense plans a second run reuses own no weights;
    its values still equal the in-RAM run's."""
    from repro.core.kernels.layout import is_aligned
    from repro.core.shardstore import ShardStore
    from repro.graph.csr import shared_array

    g = build("road10x10")
    assert g.weights is None
    store = ShardStore.save(PartitionEngine().partition(g, 3), tmp_path / "plain")
    opts = GraphReduceOptions(num_partitions=3, direction="pull")
    engine = GraphReduce(shard_store=store, options=opts.replace(memory_budget=1))
    first, second = engine.run(SSSP(source=0)), engine.run(SSSP(source=0))
    ram = GraphReduce(g, options=opts).run(SSSP(source=0))
    assert first.plan_cache["misses"] > 0 and second.plan_cache["misses"] == 0
    (sharded,) = engine._sharded_cache.values()
    ones = shared_array("ones", 1, np.float32).base
    gathers = [plan for (kind, _), plan in sharded.plans.items() if kind == "gather"]
    assert len(gathers) == 3
    for plan in gathers:
        assert np.shares_memory(plan.weights, ones) and is_aligned(plan.weights)
        assert not plan.weights.flags.writeable
        np.testing.assert_array_equal(plan.weights, 1.0)
    for run in (first, second):
        assert run.vertex_values.tobytes() == ram.vertex_values.tobytes()
        assert run.sim_time == ram.sim_time


# ----------------------------------------------------------------------
# Property: every query equals the from-scratch build, whatever the masks
# ----------------------------------------------------------------------
SHAPES = ("empty", "one", "eighth", "all_but_one", "full", "random")
_PROP_P = 3


def _prop_sharded():
    from repro.graph.generators import erdos_renyi

    edges = erdos_renyi(96, 700, seed=5).with_random_weights(seed=3)
    sharded = PartitionEngine().partition(edges, _PROP_P)
    # "eighth" must be exactly 1/8 of every interval.
    assert all(s.num_interval_vertices == 32 for s in sharded.shards)
    return sharded


def _mask_from_shapes(sharded, shapes, rng):
    mask = np.zeros(sharded.num_vertices, dtype=bool)
    for shard, shape in zip(sharded.shards, shapes):
        n = shard.num_interval_vertices
        if shape == "random":
            local = rng.random(n) < 0.5
        else:
            count = {
                "empty": 0, "one": 1, "eighth": n // 8, "all_but_one": n - 1, "full": n,
            }[shape]
            local = np.zeros(n, dtype=bool)
            local[rng.choice(n, size=count, replace=False)] = True
        mask[shard.start : shard.stop] = local
    return mask


def _same(label, got, want):
    if got is None or want is None:
        assert got is want, label
        return
    assert got.dtype == want.dtype, label
    np.testing.assert_array_equal(got, want, err_msg=label)


def _assert_queries_match_reference(sharded, frontier, fast, ref):
    """All four query kinds against the ``dense=False`` build; returns
    the dense plan objects served, keyed for the identity check."""
    served = {}
    for shard in sharded.shards:
        lo, hi = shard.start, shard.stop
        for mask, bits in (("active", frontier.current), ("changed", frontier.changed)):
            rows = fast.sparse_rows(shard, mask)
            if bits[lo:hi].all():
                assert rows is None, (shard.index, mask)
            else:
                _same(f"sparse_rows/{mask}", rows, lo + np.flatnonzero(bits[lo:hi]))
        rows, dense = fast.active_rows(shard)
        ref_rows, _ = ref.active_rows(shard)
        _same("active_rows", rows, ref_rows)
        assert dense == bool(frontier.current[lo:hi].all())

        got, want = fast.gather_plan(shard), ref.gather_plan(shard)
        for name in ("indices", "eids", "weights", "row_ids", "starts", "verts"):
            _same(f"gather.{name}", getattr(got, name), getattr(want, name))
        assert got.n_edges == want.n_edges
        if got.dense:
            assert fast.gather_plan(shard) is got
            served["gather", shard.index] = got

        for full in (False, True):
            got, want = fast.out_plan(shard, full=full), ref.out_plan(shard, full=full)
            # A stored full dense plan also serves lite queries, so a
            # lite answer is pinned on the one column lite callers read.
            names = ("indices", "eids", "weights", "row_ids") if full else ("indices",)
            for name in names:
                _same(f"out.{name}/full={full}", getattr(got, name), getattr(want, name))
            assert got.n_edges == want.n_edges
            if got.dense:
                _same("out.span", _span_vids(got), np.unique(want.indices).astype(np.int64))
                assert fast.out_plan(shard, full=full) is got
                served["out", full, shard.index] = got
    return served


_shapes = st.tuples(*[st.sampled_from(SHAPES)] * _PROP_P)


@settings(max_examples=40, deadline=None)
@given(a1=_shapes, c1=_shapes, a2=_shapes, c2=_shapes, seed=st.integers(0, 2**16))
@example(
    a1=("empty", "one", "eighth"), c1=("all_but_one", "full", "random"),
    a2=("full", "all_but_one", "empty"), c2=("eighth", "one", "full"), seed=0,
)
@example(
    a1=("full", "full", "full"), c1=("full", "full", "full"),
    a2=("full", "eighth", "full"), c2=("full", "full", "empty"), seed=1,
)
def test_queries_reproduce_from_scratch_build(a1, c1, a2, c2, seed):
    sharded = _prop_sharded()
    rng = np.random.default_rng(seed)
    frontier = FrontierManager(sharded, np.zeros(sharded.num_vertices, dtype=bool))
    fast = PlanCache(sharded, frontier, dense=True)
    ref = PlanCache(sharded, frontier, dense=False)

    frontier.set_current(_mask_from_shapes(sharded, a1, rng))
    frontier.mark_changed(np.flatnonzero(_mask_from_shapes(sharded, c1, rng)))
    before = _assert_queries_match_reference(sharded, frontier, fast, ref)

    # Rewrite both masks through the public mutators only: the second
    # round must see them (nothing stale), and a shard that is dense in
    # both rounds must get the very same plan object back.
    frontier.activate_next(np.flatnonzero(_mask_from_shapes(sharded, a2, rng)))
    frontier.advance()
    frontier.mark_changed(np.flatnonzero(_mask_from_shapes(sharded, c2, rng)))
    after = _assert_queries_match_reference(sharded, frontier, fast, ref)
    for key in before.keys() & after.keys():
        if key[0] == "gather" or key[1]:
            assert after[key] is before[key], key


# ----------------------------------------------------------------------
# Property: the merged pass equals the per-shard path, shard by shard
# ----------------------------------------------------------------------
MERGE_SHAPES = ("empty", "one", "all_but_one", "random")
MERGE_PROGRAMS = {
    "bfs": lambda: BFS(source=0),  # the apply_fa group
    "bfs_gather": lambda: BFSGather(source=0),  # pre-mapped add_one / min
    "sssp": lambda: SSSP(source=0),
    "pagerank": lambda: PageRank(tolerance=1e-3),  # pre-mapped div_degree / add
    # every vertex changes: an all-active iteration merges its FrontierActivate too
    "pagerank_power": lambda: PageRank(tolerance=None, max_iterations=12),
}


def _partial_mask(sharded, shapes, rng, full_at=None):
    """Per-shard masks that never fill an interval, except ``full_at``."""
    mask = np.zeros(sharded.num_vertices, dtype=bool)
    for shard, shape in zip(sharded.shards, shapes):
        n = shard.num_interval_vertices
        if shard.index == full_at:
            local = np.ones(n, dtype=bool)
        elif shape == "random":
            local = rng.random(n) < 0.5
            local[:1] = False
        else:
            count = {"empty": 0, "one": min(1, n - 1), "all_but_one": n - 1}[shape]
            local = np.zeros(n, dtype=bool)
            local[rng.choice(n, size=max(count, 0), replace=False)] = True
        mask[shard.start : shard.stop] = local
    return mask


def _mid_run_engine(sharded, make_program, mask, seed):
    obs = Observer()
    frontier = FrontierManager(sharded, mask, obs=obs)
    program = make_program()
    engine = ComputeEngine(
        sharded, program, RuntimeContext(sharded.edges), frontier, obs=obs,
        plans=PlanCache(sharded, frontier, obs=obs), kernels=resolve_backend("numpy"),
    )
    rng = np.random.default_rng(seed)
    values = (10 * rng.random(sharded.num_vertices)).astype(np.float32)
    values[rng.random(sharded.num_vertices) < 0.3] = np.inf
    engine.vertex_values[:] = values
    return engine, build_plan(program)


def _run_iteration(engine, plan, iteration, merged):
    """One iteration as the runtime drives it; per-group, per-shard items."""
    frontier, shards = engine.frontier, engine.sharded.shards
    engine.begin_iteration(iteration)
    census = []
    for group in plan:
        ids = frontier.active_shards() if group.selector == "active" else frontier.changed_shards()
        selected = [shards[i] for i in ids]
        if selected:
            engine.begin_group(group.phases)
        work = engine.run_merged(group.phases, selected) if merged else None
        if work is None:
            work = {s.index: engine.run_group(group.phases, s, False) for s in selected}
        census.append({i: (w.edge_items, w.vertex_items) for i, w in work.items()})
    return census


@pytest.mark.parametrize("graph_name", FIXTURE_NAMES)
@settings(max_examples=8, deadline=None)
@given(
    shapes=st.tuples(*[st.sampled_from(MERGE_SHAPES)] * 3),
    all_active=st.booleans(),
    iteration=st.sampled_from([0, 3]),
    seed=st.integers(0, 2**16),
)
def test_merged_pass_matches_per_shard_path(graph_name, shapes, all_active, iteration, seed):
    """Rows that fill no interval, or (``all_active``) every vertex, as a
    pull iteration or an always-active program leaves the frontier."""
    edges = build(graph_name).with_random_weights(seed=33)
    for name, make_program in MERGE_PROGRAMS.items():
        # Cold to cold: dense plans live on the graph, so each engine
        # gets its own (deterministic) partition of the same edges.
        sharded, twin = (PartitionEngine().partition(edges, 3) for _ in range(2))
        mask = _partial_mask(sharded, shapes, np.random.default_rng(seed))
        per_shard, plan = _mid_run_engine(sharded, make_program, mask, seed)
        merged, _ = _mid_run_engine(twin, make_program, mask, seed)
        if all_active:
            per_shard.frontier.activate_all()
            merged.frontier.activate_all()
        assert merged.can_merge(plan), name
        with np.errstate(invalid="ignore"):  # PageRank's |inf - inf| on unreached rows
            want = _run_iteration(per_shard, plan, iteration, merged=False)
            assert _run_iteration(merged, plan, iteration, merged=True) == want, name
        # an all-active FrontierActivate merges only over a whole changed set,
        # so BFS's apply_fa (which starts from none) never does
        whole = per_shard.frontier.changed.all()
        assert whole or not (all_active and name == "pagerank_power")
        declined = [
            all_active and "frontier_activate" in g.phases and ("apply" in g.phases or not whole)
            for g in plan
        ]
        assert merged.merged_groups == sum(1 for c, d in zip(want, declined) if c and not d), name
        assert per_shard.merged_groups == 0 and merged.premaps == per_shard.premaps
        for e in (merged, per_shard):
            e.frontier.advance()
        assert merged.frontier.history == per_shard.frontier.history, name
        # span plans and per-shard plans differ in bytes, not in counts
        counts = lambda e: {k: v for k, v in e.plans.stats().items() if k != "held_bytes"}
        assert counts(merged) == counts(per_shard), name
        assert merged.fused_calls == per_shard.fused_calls, name
        for attr in ("vertex_values", "gather_temp", "gather_has"):
            got, ref = getattr(merged, attr), getattr(per_shard, attr)
            assert got.tobytes() == ref.tobytes(), (name, attr)
        for attr in ("changed", "next"):
            got, ref = getattr(merged.frontier, attr), getattr(per_shard.frontier, attr)
            np.testing.assert_array_equal(got, ref, err_msg=f"{name}/{attr}")
        counters = [
            {
                k: c.value
                for k, c in e.obs.metrics.counters.items()
                if k != "kernels.merged_groups"
            }
            for e in (merged, per_shard)
        ]
        assert counters[0] == counters[1], name


def test_one_full_interval_sends_the_iteration_down_the_per_shard_path():
    """Five equal intervals keep a one-interval frontier compacted, so
    the dense test alone decides; the engine reads it off the frontier."""
    g = build("er_mid").with_random_weights(seed=33)
    sharded = PartitionEngine().partition(g, 5, "vertex_balanced")
    rng = np.random.default_rng(0)
    wide = ("all_but_one", "all_but_one", "empty", "empty", "empty")
    partial = FrontierManager(sharded, _partial_mask(sharded, wide, rng))
    assert partial.compact_indices is None and not partial.sparse_everywhere()
    sparse = _partial_mask(sharded, ("one", "empty", "one", "empty", "one"), rng)
    assert FrontierManager(sharded, sparse).sparse_everywhere()
    full = _partial_mask(sharded, ("one", "empty", "one", "empty", "one"), rng, full_at=3)
    fm = FrontierManager(sharded, full)
    assert fm.compact_indices is not None and not fm.sparse_everywhere()

    class Seeded(SSSP):
        seed_mask = sparse

        def init_frontier(self, ctx):
            return self.seed_mask.copy()

    opts = GraphReduceOptions(num_partitions=5, partition_logic="vertex_balanced")
    run = GraphReduce(g, options=opts).run(Seeded(source=0), max_iterations=1)
    assert run.kernels["merged_groups"] >= 3  # every group with a selected shard
    Seeded.seed_mask = full
    run = GraphReduce(g, options=opts).run(Seeded(source=0), max_iterations=1)
    assert run.kernels["merged_groups"] == 0


# ----------------------------------------------------------------------
# Relayed rows gather: the merged pass gathers from the push side
# ----------------------------------------------------------------------
RELAY_PROGRAMS = {
    "sssp": lambda: SSSP(source=0),  # add_weight
    "bfs_gather": lambda: BFSGather(source=0),  # add_one, pre-mapped
    "cc": lambda: ConnectedComponents(),  # copy
}
#: the unmerged routes pull every gather from the CSC side
PULL_ROUTES = (dict(kernel_backend="off"),)


def _run_with(g, program, **options):
    return GraphReduce(g, options=GraphReduceOptions(**options)).run(program)


def _assert_same_run(got, want, label):
    assert got.vertex_values.tobytes() == want.vertex_values.tobytes(), label
    assert got.frontier_history == want.frontier_history, label
    assert got.iteration_stats == want.iteration_stats, label
    assert got.sim_time == want.sim_time, label
    assert _kernel_items(got) == _kernel_items(want), label


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), partitions=st.integers(1, 5))
def test_relayed_gather_matches_the_pull_routes(seed, partitions):
    """Random weighted digraphs: duplicate edges and loops, isolated
    vertices at the top of the id range, sinks that change and relay
    nothing."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 80))
    m, live = int(rng.integers(n // 2, 3 * n)), max(2, int(0.8 * n))
    g = EdgeList(
        n, rng.integers(0, live, m), rng.integers(0, live, m),
        weights=rng.integers(1, 9, m).astype(np.float32),
    )
    for name, make_program in RELAY_PROGRAMS.items():
        relayed = _run_with(g, make_program(), num_partitions=partitions)
        assert relayed.kernels["relay_verified"] in (None, True), name
        event(f"{name}: relayed={relayed.kernels['relayed_gathers'] > 0}")
        for route in PULL_ROUTES:
            pulled = _run_with(g, make_program(), num_partitions=partitions, **route)
            assert not (pulled.kernels or {}).get("relayed_gathers"), name
            _assert_same_run(relayed, pulled, f"{name}/{route}")


@pytest.mark.parametrize("algo", sorted(RELAY_PROGRAMS))
def test_relay_engages_on_the_road_fixture(algo):
    g = build("road10x10").with_random_weights(seed=33)
    run = _run_with(g, RELAY_PROGRAMS[algo](), num_partitions=3)
    k = run.kernels
    assert k["relay_verified"] is True and 0 < k["relayed_gathers"] < run.iterations


class _WarmStartedSSSP(SSSP):
    """Finite distances outside the initial frontier: their out-edges
    are unrelaxed and no FrontierActivate will ever relay them."""

    poison = 0.5

    def init_vertices(self, ctx):
        values = super().init_vertices(ctx)
        values[ctx.num_vertices // 2 :: 7] = self.poison
        values[self.source] = 0.0
        return values


@pytest.mark.parametrize("poison", [0.5, np.nan])
def test_unrelaxed_or_nan_state_fails_the_check_and_keeps_pulling(poison):
    g = build("road10x10").with_random_weights(seed=33)

    def program():
        p = _WarmStartedSSSP(source=0)
        p.poison = poison
        return p

    run = _run_with(g, program(), num_partitions=3)
    assert run.kernels["merged_groups"] > 0
    assert run.kernels["relay_verified"] is False and run.kernels["relayed_gathers"] == 0


ROWS = {"gather_rows", "gather_segments"}  # the first reduces through the second
DENSE, RELAY = {"gather_segments"}, {"relay_gather"}


def _gather_log(monkeypatch):
    """Which kernels served each iteration's gathers: one set per
    ``begin_iteration``."""
    log = []
    real_begin = ComputeEngine.begin_iteration

    def begin(self, iteration):
        log.append(set())
        real_begin(self, iteration)

    monkeypatch.setattr(ComputeEngine, "begin_iteration", begin)
    for name in ROWS | RELAY:
        def spy(self, *args, _name=name, _real=getattr(NumpyKernels, name), **kwargs):
            log[-1].add(_name)
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(NumpyKernels, name, spy)
    return log


def test_a_reseeded_frontier_is_pulled(monkeypatch):
    """DeltaSSSP-style ``set_current``, through a spec'd program."""
    log = _gather_log(monkeypatch)

    class Reseeding(SSSP):
        reseeded_at = None

        def reseed_frontier(self, ctx, values):
            if self.reseeded_at is not None:
                return None
            self.reseeded_at = len(log)  # iterations begun before the reseeded one
            return np.isfinite(values) & (np.arange(len(values)) % 9 == 0)

    g = build("road10x10").with_random_weights(seed=33)
    program = Reseeding(source=0)
    run = _run_with(g, program, num_partitions=3)
    at = program.reseeded_at
    assert run.kernels["relay_verified"] is True
    assert log[at - 1 :] == [RELAY, ROWS]


@pytest.mark.parametrize("superset", [True, False])
def test_set_current_over_a_parked_relay_pulls_and_verifies_again(monkeypatch, superset):
    """A replaced frontier is not the relay's target set, even when it
    contains it. One that does not contain it leaves edges of the last
    changed set unrelaxed: the next natural iteration finds that and the
    run keeps pulling."""
    log = _gather_log(monkeypatch)
    sharded = PartitionEngine().partition(build("road10x10").with_random_weights(seed=33), 3)
    ctx = RuntimeContext(sharded.edges)

    def engine():
        obs, program = Observer(), SSSP(source=0)
        frontier = FrontierManager(sharded, program.init_frontier(ctx), obs=obs)
        return ComputeEngine(
            sharded, program, ctx, frontier, obs=obs,
            plans=PlanCache(sharded, frontier, obs=obs), kernels=resolve_backend("numpy"),
        )

    relayed, pulled, plan = engine(), engine(), build_plan(SSSP(source=0))
    relays = {1, 2, 3, 4, 6, 7} if superset else {1, 2, 3, 4}
    for iteration in range(8):
        if iteration == 5:
            for e in (relayed, pulled):
                mask = e.frontier.current.copy()
                if superset:
                    mask[::11] = True
                else:
                    mask[np.flatnonzero(mask)[::2]] = False
                e.frontier.set_current(mask)
        census = _run_iteration(relayed, plan, iteration, merged=True)
        assert census == _run_iteration(pulled, plan, iteration, merged=False), iteration
        assert log[-2:] == [RELAY if iteration in relays else ROWS, ROWS], iteration
        for e in (relayed, pulled):
            e.frontier.advance()
        for attr in ("vertex_values", "gather_has"):
            assert getattr(relayed, attr).tobytes() == getattr(pulled, attr).tobytes()
        np.testing.assert_array_equal(relayed.frontier.current, pulled.frontier.current)
    assert relayed.relayed_gathers == len(relays) and relayed.relay_verified is superset
    assert pulled.relayed_gathers == 0 and pulled.relay_verified is None


def test_the_iteration_after_a_pull_iteration_pulls(monkeypatch):
    g = build("road10x10")
    auto = dict(num_partitions=3, direction="auto")
    log = _gather_log(monkeypatch)
    run = _run_with(g, BFSGather(source=0), **auto)
    directions = [d.direction for d in run.direction_decisions]
    assert directions[:5] == ["push"] * 3 + ["pull"] * 2 and directions[-2:] == ["push", "pull"]
    # every push iteration here is a rows pass; only one that follows a
    # push finds a relay stamped with the iteration before it
    want = [
        DENSE if d == "pull" else RELAY if i and directions[i - 1] == "push" else ROWS
        for i, d in enumerate(directions)
    ]
    assert log == want
    assert run.kernels["relayed_gathers"] == want.count(RELAY) == 2
    push = _run_with(g, BFSGather(source=0), num_partitions=3)
    assert run.vertex_values.tobytes() == push.vertex_values.tobytes()
    pull = _run_with(g, BFSGather(source=0), num_partitions=3, direction="pull")
    assert pull.kernels["relayed_gathers"] == 0 and pull.kernels["relay_verified"] is None


# ----------------------------------------------------------------------
# FrontierManager machinery the cache depends on
# ----------------------------------------------------------------------
class _Intervals:
    """Stand-in sharded graph: boundaries only (incl. empty intervals)."""

    def __init__(self, boundaries):
        self.boundaries = np.asarray(boundaries, dtype=np.int64)
        self.num_vertices = int(self.boundaries[-1])
        self.num_partitions = len(boundaries) - 1


def test_counts_per_shard_with_empty_intervals():
    fm = FrontierManager(_Intervals([0, 2, 2, 5, 5, 6]), np.ones(6, dtype=bool))
    mask = np.array([True, False, True, True, False, True])
    np.testing.assert_array_equal(fm.counts_per_shard(mask), [1, 0, 2, 0, 1])
    np.testing.assert_array_equal(fm.counts_per_shard(np.zeros(6, bool)), [0] * 5)


def test_activate_next_deduplicated_equals_per_edge_form():
    init = np.ones(6, dtype=bool)
    a = FrontierManager(_Intervals([0, 3, 6]), init, obs=Observer())
    b = FrontierManager(_Intervals([0, 3, 6]), init, obs=Observer())
    per_edge = np.array([4, 1, 5, 1, 4, 4, 5])
    span = np.isin(np.arange(1, 6), per_edge)  # the presence span of vids 1..5
    a.activate_next(per_edge)
    b.activate_next_mask(span, len(per_edge), start=1)
    np.testing.assert_array_equal(a.next, b.next)
    assert _activations(a) == _activations(b) == 7
    # Concurrent-composition shape: an OR only sets bits, so another
    # shard's earlier activation survives, inside the span or not.
    b.activate_next(np.array([0, 2]))
    b.activate_next_mask(span, len(per_edge), start=1)
    assert b.next[0] and b.next[2]


def _changed_queries(fm, n):
    return (
        fm.changed_shards().tolist(), fm.changed_in(0, n).tolist(),
        fm.changed_in(2, 5).tolist(), fm.dense_changed_in(0, 3), fm.dense_changed_in(3, 6),
    )


@pytest.mark.parametrize(
    "marks, from_marks",
    [
        ([[0, 1, 2], [4]], True),  # one mark per shard, in shard order
        ([[]], True),
        ([[4], [0, 1, 2]], False),  # unordered
        ([[1, 4], [4, 5]], False),  # duplicate
        ([[-1]], False),  # a negative index names the last vertex
        ([list(range(11))], False),  # over a quarter of V: the mask scans win
    ],
)
def test_changed_queries_from_marks_agree_with_the_mask(marks, from_marks):
    fm = FrontierManager(_Intervals([0, 3, 6, 40]), np.ones(40, dtype=bool))
    for vids in marks:
        fm.mark_changed(np.array(vids, dtype=np.int64))
    assert (fm._changed_vids() is not None) == from_marks
    got = _changed_queries(fm, 40)
    fm._marked = False  # the mask scans
    assert got == _changed_queries(fm, 40)
    fm.advance()
    assert fm._changed_vids() is not None and _changed_queries(fm, 40)[:2] == ([], [])


def test_a_direct_write_to_the_changed_mask_is_noticed():
    fm = FrontierManager(_Intervals([0, 3, 6, 40]), np.ones(40, dtype=bool))
    fm.mark_changed(np.array([1]))
    assert fm.changed_in(0, 40).tolist() == [1]
    fm.changed[4] = True  # a test or a hook, not mark_changed
    assert fm._changed_vids() is None
    assert fm.changed_in(0, 40).tolist() == [1, 4] and fm.changed_shards().tolist() == [0, 1]
    fm.changed[:] = True
    assert fm.dense_changed_in(0, 3) and fm.dense_changed_in(3, 6)


def test_a_whole_mark_over_every_vertex_answers_without_the_mask(monkeypatch):
    """A whole mark over [0, V) sets every bit, so ``changed_shards`` and
    the dense-changed tests answer without a per-shard count of the mask
    until ``advance``; a whole mark over less keeps the mask scans."""
    fm = FrontierManager(_Intervals([0, 3, 6, 6, 40]), np.ones(40, dtype=bool))
    counts = []
    real = FrontierManager.counts_per_shard
    monkeypatch.setattr(
        FrontierManager, "counts_per_shard", lambda self, mask: counts.append(1) or real(self, mask)
    )
    fm.mark_changed(np.arange(6, 40), whole=True)  # over a quarter of V: the mask scans
    assert fm.changed_shards().tolist() == [3] and len(counts) == 1
    assert fm.dense_changed_in(6, 40) and not fm.dense_changed_in(0, 40)
    fm.mark_changed(np.arange(0, 40), whole=True)
    fm.changed[10] = True  # a test or a hook, not mark_changed
    assert fm.changed_shards().tolist() == [0, 1, 3] and len(counts) == 1
    assert fm.dense_changed_in(0, 40)
    fm.advance()
    fm.mark_changed(np.arange(0, 39), whole=True)
    assert fm.changed_shards().tolist() == [0, 1, 3] and len(counts) == 2
    assert not fm.dense_changed_in(0, 40) and fm.changed_in(0, 40).tolist() == list(range(39))


def test_a_split_taken_before_mark_changed_is_never_served_after_it():
    """Each ``mark_changed`` rebuilds the changed set's per-shard split:
    the one served afterwards holds the new marks, and the queries read
    off it agree with the mask."""
    fm = FrontierManager(_Intervals([0, 3, 6, 40]), np.ones(40, dtype=bool))
    fm.mark_changed(np.array([1]))
    vids, at, shards = fm._changed_vids()
    assert vids.tolist() == [1] and at.tolist() == [0, 1, 1, 1] and shards.tolist() == [0]
    assert _changed_queries(fm, 40) == ([0], [1], [], False, False)
    fm.mark_changed(np.array([4, 5, 30]))
    vids, at, shards = fm._changed_vids()
    assert vids.tolist() == [1, 4, 5, 30] and at.tolist() == [0, 1, 3, 4]
    assert shards.tolist() == [0, 1, 2]
    got = _changed_queries(fm, 40)
    assert got == ([0, 1, 2], [1, 4, 5, 30], [4], False, False)
    assert [v.tolist() for v in fm.split("changed")] == [[1, 4, 5, 30], [0, 1, 3, 4], [0, 1, 2]]
    fm._marked = False  # the mask scans
    assert _changed_queries(fm, 40) == got
    # the active set's split is rebuilt by every write to ``current``
    fm.set_current(np.arange(40) == 7)
    assert fm.active_shards().tolist() == [2] and fm.active_in(6, 40).tolist() == [7]
    fm.advance()  # next is empty
    assert fm.active_shards().tolist() == [] and fm.split("active")[0].tolist() == []


def _all_active_agrees_with_the_mask(fm):
    """Every all-active answer against a scan of ``current``."""
    cur = fm.current
    assert fm.size == np.count_nonzero(cur)
    want = np.flatnonzero(fm.counts_per_shard(cur) > 0)
    np.testing.assert_array_equal(fm.active_shards(), want)
    for lo, hi in zip(fm._starts.tolist(), fm._stops.tolist()):
        assert fm.dense_active_in(lo, hi) == bool(cur[lo:hi].all())
        np.testing.assert_array_equal(fm.active_in(lo, hi), lo + np.flatnonzero(cur[lo:hi]))
    assert not fm.sparse_everywhere()


def test_the_all_active_flag_answers_as_the_mask_and_drops_on_a_rewrite():
    fm = FrontierManager(_Intervals([0, 2, 2, 5, 6]), np.zeros(6, dtype=bool))
    fm.activate_all()
    assert fm.all_active and fm.size == 6 and fm.active_shards().tolist() == [0, 2, 3]
    _all_active_agrees_with_the_mask(fm)
    fm.set_current(np.array([True, False, False, True, False, False]))  # a reseed
    assert not fm.all_active and fm.size == 2 and fm.active_shards().tolist() == [0, 2]
    assert not fm.dense_active_in(0, 2)
    fm.activate_all()
    fm.activate_next(np.array([5]))
    fm.advance()
    assert not fm.all_active and fm.size == 1 and fm.active_shards().tolist() == [3]
    assert fm.dense_active_in(5, 6) and not fm.dense_active_in(2, 5)


@pytest.mark.parametrize("direction", ["pull", "auto"])
def test_the_all_active_flag_holds_through_pull_iterations(monkeypatch, direction):
    """SSSP with ``activate_all`` mid-run: while the flag is set, every
    all-active answer equals the mask scan; ``advance`` and a reseed
    drop it; values and history equal the push run's."""
    seen = {"flagged": 0, "dropped": 0}
    originals = {
        name: getattr(FrontierManager, name)
        for name in ("activate_all", "active_shards", "advance", "set_current")
    }

    def checked(name):
        def call(self, *args):
            out = originals[name](self, *args)
            if name in ("advance", "set_current"):
                assert not self.all_active, name
                seen["dropped"] += 1
            elif self.all_active and not seen.get("checking"):
                seen["flagged"] += name == "activate_all"
                seen["checking"] = True  # the check itself asks active_shards
                _all_active_agrees_with_the_mask(self)
                seen["checking"] = False
            return out

        return call

    for name in originals:
        monkeypatch.setattr(FrontierManager, name, checked(name))
    g = build("road10x10").with_random_weights(seed=33)
    run = _run_with(g, SSSP(source=0), num_partitions=3, direction=direction)
    monkeypatch.undo()
    push = _run_with(g, SSSP(source=0), num_partitions=3)
    pulls = sum(d.direction == "pull" for d in run.direction_decisions)
    assert 0 < pulls == seen["flagged"] and seen["dropped"] >= run.iterations
    if direction == "auto":
        assert pulls < run.iterations
    assert run.vertex_values.tobytes() == push.vertex_values.tobytes()
