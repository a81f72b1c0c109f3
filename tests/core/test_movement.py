"""Data Movement Engine: Eq (1)/(2), spray, caching, staging."""

import pytest

from repro.core.movement import (
    DataMovementEngine,
    MovementConfig,
    optimal_concurrent_shards,
)
from repro.core.fusion import PhaseGroup
from repro.core.partition import PartitionEngine
from repro.core.compute import WorkItems
from repro.graph.generators import erdos_renyi
from repro.obs.span import Observer
from repro.sim.device import GPUDevice
from repro.sim.engine import Simulator
from repro.sim.specs import DeviceSpec


def make_engine(p=4, async_streams=True, spray=True, memory=None, n=60, m=400, obs=None):
    g = erdos_renyi(n, m, seed=1)
    sharded = PartitionEngine().partition(g, p)
    sim = Simulator()
    spec = DeviceSpec() if memory is None else DeviceSpec(memory_bytes=memory)
    device = GPUDevice(sim, spec)
    engine = DataMovementEngine(
        device,
        sharded,
        MovementConfig(async_streams=async_streams, spray=spray),
        with_weights=False,
        with_edge_state=False,
        obs=obs,
    )
    return engine, sharded, device


class TestEquation1:
    def test_k_grows_with_memory(self):
        k_small = optimal_concurrent_shards(1000, 0, 100, 400, 100, 32)
        k_large = optimal_concurrent_shards(4000, 0, 100, 400, 100, 32)
        assert k_large > k_small

    def test_k_at_least_one(self):
        assert optimal_concurrent_shards(10, 0, 100, 400, 100, 32) == 1

    def test_k_clamped_by_partitions_and_hardware(self):
        assert optimal_concurrent_shards(10**9, 0, 1, 1, 3, 32) == 3
        assert optimal_concurrent_shards(10**9, 0, 1, 1, 100, 32) == 32

    def test_paper_configuration_gives_two(self):
        """The paper's K20c estimate: K ~= 2 concurrent shards.

        4.8 GB device, ~200 MB resident vertex data, shards sized to
        saturate PCIe (~1.5 GB streaming buffers per shard)."""
        k = optimal_concurrent_shards(
            device_memory=int(4.8e9),
            resident_bytes=int(0.2e9),
            interval_bytes=int(0.05e9),
            shard_bytes=int(1.5e9),
            num_partitions=8,
        )
        assert k == 2

    def test_resident_subtracted(self):
        base = optimal_concurrent_shards(10_000, 0, 100, 900, 100, 32)
        less = optimal_concurrent_shards(10_000, 5000, 100, 900, 100, 32)
        assert less < base


class TestEngine:
    def test_sync_mode_uses_one_stream(self):
        engine, _, _ = make_engine(async_streams=False)
        assert engine.k == 1
        assert len(engine.streams) == 1

    def test_async_mode_uses_multiple_streams(self):
        engine, sharded, _ = make_engine(p=4)
        assert engine.k > 1
        assert len(engine.streams) == engine.k

    def test_upload_resident_allocates_and_copies(self):
        engine, _, device = make_engine()
        engine.upload_resident({"vertex_values": 1000, "flags": 100})
        assert device.memory.allocated == 1100
        assert engine.stats.h2d_bytes == 1100
        assert device.trace.total_amount("h2d") == 1100

    def test_reserve_stage_slots_shrinks_k_when_tight(self):
        engine, sharded, device = make_engine(p=4)
        max_bytes = sharded.max_shard_bytes(False, False)
        # Fill memory so only ~1 slot fits.
        device.memory.alloc("hog", device.memory.capacity - max_bytes - 1000)
        k = engine.reserve_stage_slots()
        assert k == 1

    def test_cache_all_shards_fits(self):
        engine, sharded, device = make_engine()
        assert engine.cache_all_shards()
        assert engine.cached
        total = sum(s.total_bytes(False, False) for s in sharded.shards)
        assert device.trace.total_amount("h2d") == total

    def test_cache_all_shards_too_big(self):
        engine, sharded, device = make_engine(memory=6000)
        assert not engine.cache_all_shards()
        assert not engine.cached
        assert device.trace.total_amount("h2d") == 0

    def _group(self):
        return PhaseGroup(
            "gather",
            ("gather_map", "gather_reduce"),
            "active",
            ("in_topology",),
            (),
        )

    def test_run_phase_moves_selected_buffers_only(self):
        engine, sharded, device = make_engine(spray=False)
        shard = sharded.shards[0]
        engine.run_phase(self._group(), [shard], 3, lambda s: WorkItems(10, 5))
        sizes = shard.buffer_bytes(False, False)
        assert engine.stats.h2d_bytes == sizes["in_topology"]
        assert engine.stats.d2h_bytes == 0
        assert engine.stats.kernel_launches == 1
        assert engine.stats.shards_skipped == 3
        assert engine.stats.shards_processed == 1

    @pytest.mark.parametrize("raise_on", [None, 1])
    def test_phase_counters_equal_stats(self, raise_on):
        """The ``movement.*`` counters are emitted once per phase, in a
        ``finally``: a phase whose compute raises on the second shard
        still reports the copies and kernel the first one issued."""
        obs = Observer()
        engine, sharded, _ = make_engine(obs=obs)
        group = PhaseGroup(
            "gather",
            ("gather_map",),
            "active",
            ("in_topology", "vertex_update_array"),
            ("edge_update_array", "vertex_update_array"),
        )
        done = []

        def compute(shard):
            if len(done) == raise_on:
                raise RuntimeError("compute failed")
            done.append(shard.index)
            return WorkItems(10, 5)

        if raise_on is None:
            engine.run_phase(group, list(sharded.shards), 2, compute)
        else:
            with pytest.raises(RuntimeError, match="compute failed"):
                engine.run_phase(group, list(sharded.shards), 2, compute)
        stats, value = engine.stats, obs.metrics.value
        assert stats.shards_processed == len(done) > 0
        assert value("movement.shards.processed") == stats.shards_processed
        assert value("movement.shards.skipped") == stats.shards_skipped == 2
        assert value("movement.kernel.launches") == stats.kernel_launches == len(done)
        assert value("movement.kernel.items") == stats.kernel_items == 15 * len(done)
        assert value("movement.h2d.bytes") == stats.h2d_bytes > 0
        assert value("movement.h2d.copies") == stats.h2d_count
        assert value("movement.d2h.bytes") == stats.d2h_bytes > 0
        assert value("movement.d2h.copies") == stats.d2h_count
        # Every batch here has several sub-arrays, so all of them spray.
        assert value("movement.spray.batches") == 2 * len(done)
        assert value("movement.spray.copies") == stats.h2d_count + stats.d2h_count

    def test_run_phase_cached_moves_nothing(self):
        engine, sharded, device = make_engine()
        engine.cache_all_shards()
        before = engine.stats.h2d_bytes
        engine.run_phase(self._group(), list(sharded.shards), 0, lambda s: WorkItems(10, 5))
        assert engine.stats.h2d_bytes == before
        assert engine.stats.kernel_launches == len(sharded.shards)

    def test_spray_creates_extra_streams(self):
        engine, sharded, device = make_engine(spray=True)
        group = PhaseGroup(
            "gather",
            ("gather_map",),
            "active",
            ("in_topology", "edge_update_array", "vertex_update_array"),
            (),
        )
        n_before = len(device.streams)
        engine.run_phase(group, [sharded.shards[0]], 0, lambda s: WorkItems(10, 0))
        assert len(device.streams) > n_before  # spray streams spawned

    def test_spray_faster_than_serial_copies(self):
        """Spraying a multi-buffer shard beats one-stream serial copies."""
        group = PhaseGroup(
            "x",
            ("apply",),
            "active",
            ("in_topology", "out_topology", "edge_update_array", "vertex_update_array"),
            (),
        )
        times = {}
        for spray in (False, True):
            engine, sharded, device = make_engine(
                p=1, spray=spray, async_streams=False, n=2000, m=20000
            )
            engine.run_phase(group, [sharded.shards[0]], 0, lambda s: WorkItems(1, 0))
            times[spray] = device.sim.now
        assert times[True] < times[False]

    def test_d2h_spray_waits_for_kernel(self):
        engine, sharded, device = make_engine(p=1, spray=True, n=500, m=5000)
        group = PhaseGroup(
            "w",
            ("apply",),
            "active",
            (),
            ("edge_update_array", "vertex_update_array"),
        )
        engine.run_phase(group, [sharded.shards[0]], 0, lambda s: WorkItems(10_000_000, 0))
        kernel_end = max(i.end for i in device.trace.intervals if i.category == "kernel")
        d2h_starts = [i.start for i in device.trace.intervals if i.category == "d2h"]
        assert all(s >= kernel_end - 1e-12 for s in d2h_starts)

    def test_iteration_sync_counts(self):
        engine, _, device = make_engine()
        engine.iteration_sync(64)
        assert engine.stats.d2h_bytes == 64
        assert device.trace.total_amount("d2h") == 64
