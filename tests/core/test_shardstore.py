"""Shard-store format, streaming external partitioner, host prefetcher.

Three layers of the out-of-core stack, bottom up: the packed on-disk
format must round-trip a ``ShardedGraph`` bit-for-bit and reject
anything that is not a whole v2 store with a typed error; the streaming
builder must produce byte-identical stores to the in-RAM
``ShardStore.save`` path (global edge ids included); and the
``HostPrefetcher``'s cache accounting -- capacity, MRU eviction order,
page release, frontier-skip suppression, hit/fault attribution -- must
match its documented contract, since ``repro profile`` and the
benchmark report those numbers as facts.
"""

import json
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from tests.fixture_graphs import build
from repro.algorithms import PageRank
from repro.core.frontier import FrontierManager
from repro.core.kernels.layout import is_aligned
from repro.core.movement import HostPrefetcher
from repro.core.partition import PartitionEngine
from repro.core.plans import PlanCache
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.core.shardstore import (
    MANIFEST,
    PACKED,
    PAGE,
    ShardStore,
    StoreFormatError,
    build_store_streaming,
)
from repro.graph.csr import CSR
from repro.graph.generators import erdos_renyi
from repro.graph.io import save_edgelist_txt, save_npz
from repro.graph.properties import footprint_bytes


def _store(tmp_path, graph, p=3, name="store"):
    return ShardStore.save(PartitionEngine().partition(graph, p), tmp_path / name)


# ----------------------------------------------------------------------
# Directory format round-trip
# ----------------------------------------------------------------------
class TestShardStoreFormat:
    @pytest.mark.parametrize("graph_name", ["er_mid", "rmat_small", "mostly_isolated"])
    def test_roundtrip_arrays_identical(self, graph_name, tmp_path):
        g = build(graph_name).with_random_weights(seed=5)
        sharded = PartitionEngine().partition(g, 3)
        store = ShardStore.save(sharded, tmp_path / "s")
        reopened = ShardStore.open(tmp_path / "s")
        assert reopened.num_partitions == len(sharded.shards)
        assert reopened.num_vertices == g.num_vertices
        assert reopened.num_edges == g.num_edges
        assert reopened.weighted
        lazy = reopened.sharded_graph()
        np.testing.assert_array_equal(lazy.boundaries, sharded.boundaries)
        for a, b in zip(sharded.shards, lazy.shards):
            for layout in ("csc", "csr"):
                x, y = getattr(a, layout), getattr(b, layout)
                assert x.indptr.dtype == y.indptr.dtype
                assert x.indices.dtype == y.indices.dtype
                assert x.edge_ids.dtype == y.edge_ids.dtype
                np.testing.assert_array_equal(x.indptr, y.indptr)
                np.testing.assert_array_equal(x.indices, y.indices)
                np.testing.assert_array_equal(x.edge_ids, y.edge_ids)
            np.testing.assert_array_equal(a.csc_weights, b.csc_weights)
            np.testing.assert_array_equal(a.csr_weights, b.csr_weights)
            # The movement engine sizes transfers from these -- they must
            # agree with the in-RAM shard without loading any arrays.
            assert a.total_bytes(True, False) == b.total_bytes(True, False)
            assert a.num_in_edges == b.num_in_edges
            assert a.num_out_edges == b.num_out_edges

    def test_open_is_lazy(self, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        reopened = ShardStore.open(store.path)
        loads = []
        orig = ShardStore.load_arrays
        reopened.load_arrays = lambda i, unit_weights=False: (
            loads.append(i) or orig(reopened, i, unit_weights=unit_weights)
        )
        lazy = reopened.sharded_graph()
        # Counts, intervals and byte sizing come from the manifest alone.
        for shard in lazy.shards:
            shard.num_in_edges, shard.num_out_edges, shard.num_interval_vertices
            shard.total_bytes(False, False)
        assert loads == []
        lazy.shards[1].csc  # first array touch faults exactly one shard
        assert loads == [1]

    def test_unit_weights_synthesized(self, tmp_path):
        g = build("er_mid")  # unweighted
        store = _store(tmp_path, g)
        assert not store.weighted
        arrays = store.load_arrays(0, unit_weights=True)
        np.testing.assert_array_equal(
            arrays.csc_weights, np.ones(arrays.csc.num_edges, dtype=np.float32)
        )
        np.testing.assert_array_equal(
            arrays.csr_weights, np.ones(arrays.csr.num_edges, dtype=np.float32)
        )
        assert store.load_arrays(0).csc_weights is None
        # Synthesized weights are heap, never memoized: fresh on every
        # load, over the same memoized topology views.
        again = store.load_arrays(0, unit_weights=True)
        assert again.csc is arrays.csc and again.csr is arrays.csr
        assert again.csc is store.load_arrays(0).csc
        for old, new in ((arrays.csc_weights, again.csc_weights),
                         (arrays.csr_weights, again.csr_weights)):
            assert new is not old
            np.testing.assert_array_equal(new, old)

    def test_views_are_built_and_checked_once_per_shard(self, tmp_path, monkeypatch):
        store = _store(tmp_path, build("er_mid").with_random_weights(seed=5))
        checked = []
        post_init = CSR.__post_init__
        monkeypatch.setattr(
            CSR, "__post_init__", lambda csr: checked.append(csr) or post_init(csr)
        )
        for i in range(store.num_partitions):
            first = store.load_arrays(i)
            store.release(i)  # eviction drops pages, not the memoized views
            again = store.load_arrays(i)
            assert again.csc is first.csc and again.csr is first.csr
            assert again.csc_weights is first.csc_weights
        assert len(checked) == 2 * store.num_partitions  # one CSC + one CSR each

    def test_open_rejects_non_store(self, tmp_path):
        with pytest.raises(StoreFormatError, match="no manifest.json"):
            ShardStore.open(tmp_path)
        (tmp_path / MANIFEST).write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(StoreFormatError, match="not a shard store"):
            ShardStore.open(tmp_path)
        (tmp_path / MANIFEST).write_text(
            json.dumps({"format": "graphreduce-shard-store", "version": 99})
        )
        with pytest.raises(StoreFormatError, match="version"):
            ShardStore.open(tmp_path)

    def test_open_rejects_v1_store(self, tmp_path):
        # loose v1 arrays without a manifest, then a v1 manifest
        np.save(tmp_path / "shard00000.csc.indptr.npy", np.zeros(2, dtype=np.int64))
        with pytest.raises(StoreFormatError, match="repro partition"):
            ShardStore.open(tmp_path)
        (tmp_path / MANIFEST).write_text(
            json.dumps({"format": "graphreduce-shard-store", "version": 1})
        )
        with pytest.raises(StoreFormatError, match="repro partition"):
            ShardStore.open(tmp_path)

    def test_store_edgelist_facade(self, tmp_path):
        g = build("path300")
        store = _store(tmp_path, g)
        edges = store.edgelist()
        assert (edges.num_vertices, edges.num_edges) == (g.num_vertices, g.num_edges)
        assert edges.name == g.name
        assert edges.weights is None  # unweighted marker
        np.testing.assert_array_equal(edges.out_degrees(), g.out_degrees())
        np.testing.assert_array_equal(edges.in_degrees(), g.in_degrees())
        unit = edges.with_unit_weights()
        assert unit.weights is not None and len(unit.weights) == 0  # weighted marker

    def test_disk_bytes_covers_array_files(self, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        assert sorted(f.name for f in store.path.iterdir()) == [MANIFEST, PACKED]
        assert store.disk_bytes() == (store.path / PACKED).stat().st_size > 0

    def test_arrays_are_aligned_readonly_views(self, tmp_path):
        store = _store(tmp_path, build("er_mid").with_random_weights(seed=5))
        for i, meta in enumerate(store.shard_meta):
            assert meta["offset"] % PAGE == 0  # a shard owns its pages
            got = store.load_arrays(i)
            arrays = [
                got.csc.indptr, got.csc.indices, got.csc.edge_ids, got.csc_weights,
                got.csr.indptr, got.csr.indices, got.csr.edge_ids, got.csr_weights,
            ]
            assert got.nbytes == sum(a.nbytes for a in arrays)
            for a in arrays:
                assert is_aligned(a) and not a.flags.writeable
        for deg in (store.out_degrees(), store.in_degrees()):
            assert is_aligned(deg) and not deg.flags.writeable

    def test_released_shard_refaults_under_retained_plan(self, tmp_path):
        g = build("er_mid")
        ram = PartitionEngine().partition(g, 3)
        store = ShardStore.save(ram, tmp_path / "s")
        lazy = store.sharded_graph()
        frontier = FrontierManager(lazy, np.ones(g.num_vertices, dtype=bool))
        plans = PlanCache(lazy, frontier)
        plan = plans.gather_plan(lazy.shards[1])
        assert plan.dense
        assert store.release(1) == store.shard_meta[1]["nbytes"] > 0
        # The plan's views outlive the release and read the same bytes;
        # row_ids derive from the re-faulted indptr.
        expect = PlanCache(ram, FrontierManager(ram, np.ones(g.num_vertices, dtype=bool)))
        want = expect.gather_plan(ram.shards[1])
        np.testing.assert_array_equal(plan.indices, want.indices)
        np.testing.assert_array_equal(plan.eids, want.eids)
        np.testing.assert_array_equal(plan.row_ids, want.row_ids)
        assert plan.row_ids.dtype == want.row_ids.dtype
        assert plans.gather_plan(lazy.shards[1]) is plan  # still cached


# ----------------------------------------------------------------------
# Validation: anything but a whole v2 store is a StoreFormatError
# ----------------------------------------------------------------------
class TestStoreValidation:
    def _edit_manifest(self, store, edit):
        manifest = json.loads((store.path / MANIFEST).read_text())
        edit(manifest)
        (store.path / MANIFEST).write_text(json.dumps(manifest))

    def test_truncated_packed_file(self, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        packed = store.path / PACKED
        packed.write_bytes(packed.read_bytes()[:-1])
        with pytest.raises(StoreFormatError, match="holds"):
            ShardStore.open(store.path)
        packed.unlink()
        with pytest.raises(StoreFormatError, match="missing"):
            ShardStore.open(store.path)

    def test_flipped_byte_caught_by_verify(self, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        store.verify()
        packed = store.path / PACKED
        data = bytearray(packed.read_bytes())
        # inside shard 1's indices: sizes and indptr stay valid, so only
        # the checksum can tell
        data[store.shard_meta[1]["arrays"]["csc.indices"]] ^= 0x01
        packed.write_bytes(bytes(data))
        reopened = ShardStore.open(store.path)  # open stays O(1): no checksum
        with pytest.raises(StoreFormatError, match="shard 1 fails its checksum"):
            reopened.verify()

    def test_out_of_range_vertex_id_refused_at_load(self, tmp_path):
        """The ``add`` gathers index vertex values through the CSC ids
        without a bounds check, so a load refuses an id outside the graph."""
        store = _store(tmp_path, build("er_mid"))
        packed = store.path / PACKED
        data = bytearray(packed.read_bytes())
        data[store.shard_meta[1]["arrays"]["csc.indices"] + 3] ^= 0x40  # id + 2**30
        packed.write_bytes(bytes(data))
        reopened = ShardStore.open(store.path)
        reopened.load_arrays(0)
        with pytest.raises(StoreFormatError, match="shard 1 names a vertex id out of range"):
            reopened.load_arrays(1)

    @pytest.mark.parametrize("key", ["packed_bytes", "degrees", "boundaries", "dtypes"])
    def test_missing_manifest_key(self, key, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        self._edit_manifest(store, lambda m: m.pop(key))
        with pytest.raises(StoreFormatError, match=key):
            ShardStore.open(store.path)

    def test_missing_shard_key(self, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        self._edit_manifest(store, lambda m: m["shards"][0]["arrays"].pop("csr.eids"))
        with pytest.raises(StoreFormatError, match="csr.eids"):
            ShardStore.open(store.path)

    def test_offsets_past_eof(self, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        beyond = (store.disk_bytes() // 64 + 1) * 64  # aligned, past the end
        self._edit_manifest(
            store, lambda m: m["shards"][-1]["arrays"].update({"csr.indices": beyond})
        )
        with pytest.raises(StoreFormatError, match="outside"):
            ShardStore.open(store.path)

    def test_misaligned_and_oversized_counts(self, tmp_path):
        store = _store(tmp_path, build("er_mid"), name="a")
        self._edit_manifest(store, lambda m: m["shards"][1].update(offset=m["shards"][1]["offset"] + 64))
        with pytest.raises(StoreFormatError, match="misaligned"):
            ShardStore.open(store.path)
        store = _store(tmp_path, build("er_mid"), name="b")
        self._edit_manifest(store, lambda m: m["shards"][-1].update(out_edges=10**9))
        with pytest.raises(StoreFormatError, match="outside"):
            ShardStore.open(store.path)

    def test_inconsistent_csr_is_a_value_error_not_a_crash(self, tmp_path):
        # in-file offsets, wrong edge count: CSR's own checks still run
        store = _store(tmp_path, build("er_mid"))
        self._edit_manifest(
            store, lambda m: m["shards"][0].update(in_edges=m["shards"][0]["in_edges"] - 1)
        )
        with pytest.raises(ValueError, match="sizes disagree"):
            ShardStore.open(store.path).load_arrays(0)

    def test_failed_build_is_not_memoized(self, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        self._edit_manifest(
            store, lambda m: m["shards"][0].update(in_edges=m["shards"][0]["in_edges"] - 1)
        )
        reopened = ShardStore.open(store.path)
        for _ in range(2):  # the second load re-runs the checks
            with pytest.raises(ValueError, match="sizes disagree"):
                reopened.load_arrays(0)
        assert reopened.load_arrays(1).csc.num_edges > 0  # other shards still load


# ----------------------------------------------------------------------
# Streaming external partitioner
# ----------------------------------------------------------------------
def _assert_stores_byte_identical(a, b):
    names_a = sorted(p.name for p in a.path.iterdir())
    names_b = sorted(p.name for p in b.path.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (a.path / name).read_bytes() == (b.path / name).read_bytes(), name


class TestStreamingBuilder:
    def test_npz_matches_in_ram_save(self, tmp_path):
        g = build("rmat_small").with_random_weights(seed=9)
        save_npz(g, tmp_path / "g.npz")
        in_ram = _store(tmp_path, g, p=4, name="ram")
        # chunk_edges far below the edge count forces many ragged chunks
        streamed = build_store_streaming(
            tmp_path / "g.npz", tmp_path / "streamed", 4, chunk_edges=37, name=g.name
        )
        _assert_stores_byte_identical(in_ram, streamed)

    def test_txt_matches_in_ram_save(self, tmp_path):
        g = build("er_mid")  # unweighted: text ids round-trip exactly
        save_edgelist_txt(g, tmp_path / "g.txt")
        in_ram = _store(tmp_path, g, p=3, name="ram")
        streamed = build_store_streaming(
            tmp_path / "g.txt",
            tmp_path / "streamed",
            3,
            chunk_edges=23,
            num_vertices=g.num_vertices,
            name=g.name,
        )
        _assert_stores_byte_identical(in_ram, streamed)

    def test_num_vertices_extends_past_max_endpoint(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n1 2\n")
        store = build_store_streaming(tmp_path / "g.txt", tmp_path / "s", 2, num_vertices=10)
        assert store.num_vertices == 10
        assert store.num_edges == 2
        assert len(store.out_degrees()) == 10

    def test_endpoint_outside_declared_range_rejected(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 5\n")
        with pytest.raises(ValueError, match="outside"):
            build_store_streaming(tmp_path / "g.txt", tmp_path / "s", 2, num_vertices=3)

    def test_empty_input(self, tmp_path):
        (tmp_path / "g.txt").write_text("# nothing but comments\n% here\n")
        store = build_store_streaming(tmp_path / "g.txt", tmp_path / "s", 4, num_vertices=4)
        assert (store.num_vertices, store.num_edges) == (4, 0)
        reopened = ShardStore.open(store.path)
        for i in range(reopened.num_partitions):
            arrays = reopened.load_arrays(i)
            assert arrays.csc.num_edges == 0 and arrays.csr.num_edges == 0


# ----------------------------------------------------------------------
# HostPrefetcher accounting (against a fake store)
# ----------------------------------------------------------------------
def _fake_arrays(index):
    a = np.full(8, index, dtype=np.int64)
    csr = SimpleNamespace(indptr=a, indices=a.astype(np.int32), edge_ids=a)
    return SimpleNamespace(csc=csr, csr=csr, csc_weights=None, csr_weights=None, nbytes=100)


class FakeStore:
    """Records loads, page releases and read-ahead hints, in order."""

    def __init__(self):
        self.loads = []
        self.released = []
        self.hinted = []

    def load_arrays(self, index, unit_weights=False):
        self.loads.append(index)
        return _fake_arrays(index)

    def release(self, index):
        self.released.append(index)
        return 128  # a page range is a little larger than its arrays

    def will_need(self, index):
        self.hinted.append(index)
        return 128


class TestHostPrefetcher:
    def test_capacity_floor(self):
        assert HostPrefetcher(FakeStore(), capacity=0).capacity == 1

    def test_mru_eviction_order(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=2, advise=False)
        for i in (0, 1, 2):
            pf.get(i)
        assert (pf.faults, pf.evictions) == (3, 1)
        assert store.released == [1]  # most recently acquired first
        assert pf.get(0) is not None and pf.hits == 1  # 0 is now the MRU
        pf.get(1)  # refault -> evicts the just-touched 0, not 2
        assert (pf.faults, pf.evictions) == (4, 2)
        assert store.released == [1, 0]
        assert pf.released_bytes == 256
        assert store.loads == [0, 1, 2, 1]
        assert store.hinted == []  # advise off: never a hint

    def test_cyclic_scans_keep_capacity_minus_one_resident(self):
        class Checked(FakeStore):
            def release(self, index):
                assert index != self.loads[-1]  # never the shard being acquired
                return super().release(index)

        # Under LRU every one of these gets would fault.
        for n, capacity in ((16, 4), (5, 2), (7, 3), (9, 8)):
            pf = HostPrefetcher(Checked(), capacity=capacity)
            for scan in range(5):
                pf.schedule(range(n))
                before = pf.hits
                for i in range(n):
                    pf.get(i)
                    assert pf.faults - pf.evictions <= capacity  # resident shards
                if scan:
                    assert pf.hits - before >= capacity - 1, (n, capacity, scan)
            assert pf.hits + pf.faults == 5 * n

    def test_schedule_hints_a_sliding_window(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=3)
        pf.schedule([5, 6, 7, 8])
        assert store.hinted == [5, 6]  # capacity - 1 ahead, no load yet
        assert store.loads == []
        pf.get(5)
        assert store.hinted == [5, 6, 7]  # the window slid by one
        pf.get(6)
        pf.get(7)
        pf.get(8)  # evicts 7, the most recently acquired
        assert store.hinted == [5, 6, 7, 8]  # each shard hinted once
        pf.schedule([5, 7, 8])
        assert store.hinted == [5, 6, 7, 8, 7]  # 5 and 8 are resident: no hint

    def test_frontier_skip_suppression(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=8)
        pf.schedule([0, 2, 4])  # frontier skipped shards 1 and 3
        for i in (0, 2, 4):
            pf.get(i)
        assert (pf.hits, pf.faults) == (0, 3)
        # skipped shards are neither hinted nor loaded
        assert sorted(store.hinted) == [0, 2, 4]
        assert store.loads == [0, 2, 4]

    def test_arrays_reads_are_uncounted_and_never_reorder(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=2)
        pf.get(0)
        for _ in range(5):
            pf.arrays(0)
        assert (pf.hits, pf.faults) == (0, 1)
        pf.get(1)
        pf.arrays(0)  # does not make 0 the most recently acquired
        pf.get(2)  # evicts 1
        assert store.released == [1]
        pf.arrays(0)  # still resident: uncounted
        assert pf.faults == 3
        pf.arrays(1)  # evicted: falls back to a counted get -> fault
        assert pf.faults == 4

    def test_shutdown_keeps_counters(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=1)
        pf.get(0)
        pf.get(1)
        pf.shutdown()
        assert store.released == [0, 1]  # the evicted one, then the resident one
        pf.shutdown()  # idempotent
        assert store.released == [0, 1]
        snap = pf.snapshot()
        assert snap["faults"] == 2 and snap["evictions"] == 1
        assert snap["hit_rate"] == 0.0
        assert snap["capacity"] == 1
        assert snap["released_bytes"] == 256
        assert set(snap) == {
            "capacity", "hits", "faults", "evictions",
            "bytes_loaded", "released_bytes", "hit_rate",
        }

    def test_snapshot_hit_rate(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=4)
        pf.get(0)
        pf.get(0)
        pf.get(0)
        snap = pf.snapshot()
        assert snap["hit_rate"] == pytest.approx(2 / 3)
        assert snap["bytes_loaded"] == 100  # one fake shard faulted in

    def test_missing_madvise_degrades_with_one_warning(self, tmp_path, monkeypatch):
        import repro.core.shardstore as mod

        store = _store(tmp_path, build("er_mid"))
        monkeypatch.setattr(mod, "_MADV_DONTNEED", None)
        monkeypatch.setattr(mod, "_MADV_WILLNEED", None)
        pf = HostPrefetcher(store, capacity=1)
        with pytest.warns(RuntimeWarning, match="madvise is unavailable") as caught:
            pf.schedule([0, 1, 2])
            for i in (0, 1, 2):
                pf.get(i)
        assert len(caught) == 1
        assert (pf.evictions, pf.released_bytes) == (2, 0)


# ----------------------------------------------------------------------
# Runtime integration: budgeted capacity and counters
# ----------------------------------------------------------------------
class TestRuntimeIntegration:
    def test_budget_one_runs_with_capacity_one(self, tmp_path):
        store = _store(tmp_path, build("er_mid"), p=4)
        opts = GraphReduceOptions(memory_budget=1, host_prefetch=False)
        result = GraphReduce(shard_store=store, options=opts).run(
            PageRank(tolerance=None, max_iterations=3)
        )
        pf = result.prefetch
        assert pf["capacity"] == 1
        assert pf["evictions"] > 0  # every acquisition churns the 1-slot cache
        assert pf["hits"] + pf["faults"] > 0
        assert pf["bytes_loaded"] > 0
        assert pf["released_bytes"] >= pf["bytes_loaded"]  # all of it handed back

    def test_negative_budget_is_rejected(self, tmp_path):
        # It used to clamp to capacity 1 and thrash silently.
        store = _store(tmp_path, build("er_mid"), p=4)
        opts = GraphReduceOptions(memory_budget=-1)
        with pytest.raises(ValueError, match="memory_budget must be >= 0"):
            GraphReduce(shard_store=store, options=opts).run(
                PageRank(tolerance=None, max_iterations=3)
            )

    def test_only_edge_streaming_groups_acquire(self, tmp_path):
        g = erdos_renyi(4096, 40_000, seed=3, name="er-acquire")
        store = _store(tmp_path, g, p=8)
        budget = footprint_bytes(g) // 4
        for options, groups in (
            # gatherMap and FrontierActivate; gatherReduce and apply read
            # no shard edges
            (GraphReduceOptions(cache_policy="never"), 2),
            # the unoptimized plan moves the full shard in all five phases
            (GraphReduceOptions.unoptimized(), 5),
        ):
            result = GraphReduce(
                shard_store=store, options=options.replace(memory_budget=budget)
            ).run(PageRank(tolerance=None, max_iterations=6))
            pf = result.prefetch
            assert 1 < pf["capacity"] < store.num_partitions
            assert pf["hits"] + pf["faults"] == groups * store.num_partitions * 6
            assert pf["hits"] > 0  # the scans keep capacity - 1 shards resident

    def test_unbudgeted_store_run_caches_everything(self, tmp_path):
        store = _store(tmp_path, build("er_mid"), p=4)
        result = GraphReduce(shard_store=store).run(
            PageRank(tolerance=None, max_iterations=3)
        )
        pf = result.prefetch
        assert pf["capacity"] == store.num_partitions
        assert pf["evictions"] == 0

    def test_partition_count_mismatch_rejected(self, tmp_path):
        store = _store(tmp_path, build("er_mid"), p=4)
        engine = GraphReduce(shard_store=store, options=GraphReduceOptions(num_partitions=3))
        with pytest.raises(ValueError, match="partition"):
            engine.run(PageRank(tolerance=None, max_iterations=2))

    def test_evictions_leave_plans_and_results_alone(self, tmp_path):
        g = erdos_renyi(4096, 40_000, seed=3, name="er-evict")
        store = _store(tmp_path, g, p=8)
        program = lambda: PageRank(tolerance=None, max_iterations=10)
        ram = GraphReduce(
            g, options=GraphReduceOptions(num_partitions=8, cache_policy="never")
        ).run(program())
        ooc = GraphReduce(
            shard_store=store,
            options=GraphReduceOptions(
                cache_policy="never",
                memory_budget=footprint_bytes(g) // 4,
                host_prefetch=False,
            ),
        ).run(program())
        assert 1 <= ooc.prefetch["capacity"] < store.num_partitions
        assert ooc.prefetch["evictions"] > 0
        assert ooc.prefetch["released_bytes"] > 0
        # shard bytes came and went; the topology-only plans did not
        assert ooc.plan_cache["hit_rate"] >= 0.9
        assert ooc.plan_cache["misses"] == ram.plan_cache["misses"]
        assert np.array_equal(ooc.vertex_values, ram.vertex_values)
        assert ooc.iterations == ram.iterations
        assert ooc.frontier_history == ram.frontier_history
        assert ooc.sim_time == ram.sim_time

    def test_default_options_start_no_thread(self, tmp_path):
        store = _store(tmp_path, build("er_mid"), p=4)
        before = set(threading.enumerate())
        seen = set()

        class Watching(PageRank):
            def apply(self, *args, **kwargs):
                seen.update(threading.enumerate())
                return super().apply(*args, **kwargs)

        assert GraphReduceOptions().host_prefetch  # the default under test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                GraphReduce(shard_store=store, options=GraphReduceOptions(memory_budget=1)).run(
                    Watching(tolerance=None, max_iterations=3)
                )
            assert seen == before and set(threading.enumerate()) == before


class ExplodingPageRank(PageRank):
    def apply(self, ctx, vertex_ids, old_values, gathered, has_gathered, iteration):
        if iteration >= 1:
            raise RuntimeError("boom in apply")
        return super().apply(ctx, vertex_ids, old_values, gathered, has_gathered, iteration)


def test_prefetcher_threads_die_when_iteration_raises(tmp_path):
    g = build("er_mid")
    store = ShardStore.save(PartitionEngine().partition(g, 3), tmp_path / "s")
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="boom in apply"):
        GraphReduce(
            shard_store=store, options=GraphReduceOptions(host_prefetch=True)
        ).run(ExplodingPageRank(tolerance=1e-3))
    # There is no prefetch thread to die any more: nothing was started.
    assert set(threading.enumerate()) == before


def test_prefetcher_shutdown_releases_pages(tmp_path):
    g = build("er_mid")
    store = ShardStore.save(PartitionEngine().partition(g, 3), tmp_path / "s")
    pf = HostPrefetcher(store, capacity=3)
    # As the runtime does: shutdown() in a finally, even when a phase raises.
    with pytest.raises(RuntimeError, match="mid-iteration"):
        try:
            pf.schedule([0, 1, 2])
            pf.get(0)
            pf.get(1)
            raise RuntimeError("mid-iteration")
        finally:
            pf.shutdown()
    # Shutting down released both resident shards' pages.
    resident = store.shard_meta[0]["nbytes"] + store.shard_meta[1]["nbytes"]
    assert pf.snapshot()["released_bytes"] == resident
    assert pf.arrays(2) is not None and pf.faults == 3  # emptied, still usable


# ----------------------------------------------------------------------
# The out-of-core claim itself, in a fresh interpreter
# ----------------------------------------------------------------------
class TestOocProbe:
    def test_rss_growth_stays_below_the_in_ram_footprint(self, tmp_path):
        from repro.obs.ooc_probe import run_ooc_probe

        g = erdos_renyi(65_536, 1_000_000, seed=7, name="er-probe")
        store = _store(tmp_path, g, p=16)
        footprint = footprint_bytes(g)
        probe = run_ooc_probe(
            store.path, iterations=4, memory_budget=footprint // 8, rss_cap=footprint
        )
        assert probe["ok"], probe
        assert 0 < probe["rss_delta_bytes"] < footprint
        assert probe["prefetch"]["evictions"] > 0
        assert probe["prefetch"]["released_bytes"] > 0
        # The same run under a cap it cannot meet fails, with the reason.
        capped = run_ooc_probe(
            store.path, iterations=4, memory_budget=footprint // 8, rss_cap=1
        )
        assert not capped["ok"] and "cap" in capped["error"]
        assert capped["rss_delta_bytes"] > 1
