"""The phase-timeline memo: a repeated barrier phase replays its recorded

timeline instead of re-running the event loop. Memo on must equal memo
off (``MEMO_ENTRIES = 0``, the plain event loop) bit for bit."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.movement as movement
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.core.compute import WorkItems
from repro.core.fusion import PhaseGroup
from repro.core.movement import DataMovementEngine, MovementConfig
from repro.core.partition import PartitionEngine
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.graph.generators import erdos_renyi, grid_road, rmat
from repro.sim.device import GPUDevice
from repro.sim.engine import Simulator
from repro.sim.resources import FluidResource
from repro.sim.specs import DeviceSpec

GROUPS = (
    PhaseGroup("gather", ("gather_map", "gather_reduce"), "active",
               ("in_topology", "vertex_update_array"), ("vertex_update_array",)),
    PhaseGroup("apply", ("apply",), "all", ("vertex_update_array",), ()),
    PhaseGroup("scatter", ("frontier_activate",), "changed",
               ("out_topology",), ("edge_update_array", "vertex_update_array")),
)
SHARDS = 5
GRAPH = erdos_renyi(80, 600, seed=3)
SHARDED = PartitionEngine().partition(GRAPH, SHARDS)

census = st.tuples(st.integers(0, 3000), st.integers(0, 300))
phase = st.one_of(
    st.tuples(st.just("frontier"), st.sampled_from([16, 40])),
    st.tuples(
        st.integers(0, len(GROUPS) - 1),
        st.lists(st.tuples(st.integers(0, SHARDS - 1), census), max_size=SHARDS,
                 unique_by=lambda s: s[0]),
    ),
)
# A small pool of phases drawn many times, so that phases repeat.
issue_list = st.lists(phase, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)
)


def play(phases, memo, spray, async_streams, mode):
    """Run ``phases`` on a fresh engine; everything the run observably
    produced on the simulated device and in the counters."""
    entries = movement.MEMO_ENTRIES
    movement.MEMO_ENTRIES = 256 if memo else 0
    try:
        sim = Simulator()
        device = GPUDevice(sim, DeviceSpec())
        engine = DataMovementEngine(
            device, SHARDED, MovementConfig(async_streams=async_streams, spray=spray),
            with_weights=False, with_edge_state=False,
        )
        engine.upload_resident({"values": 4 * GRAPH.num_vertices})
        if mode == "cached":
            assert engine.cache_all_shards()
        else:
            engine.reserve_stage_slots()
        if mode == "lru":
            engine.enable_lru_cache()
        if mode == "ssd":
            engine.ssd = (FluidResource(sim, 2e9, max_concurrent=4, name="ssd"), 0.5)
        clocks = []
        for n, (kind, arg) in enumerate(phases):
            if mode == "late-cache" and n == len(phases) // 2:
                # Residency changes mid-run: the same phase now moves nothing.
                assert engine.cache_all_shards()
            if kind == "frontier":
                engine.iteration_sync(arg)
            else:
                work = dict(arg)
                engine.run_phase(
                    GROUPS[kind], [SHARDED.shards[i] for i in work], 0,
                    lambda shard: WorkItems(*work[shard.index]),
                )
            clocks.append(sim.now)
        snapshots = device.engine_snapshots()
        if engine.ssd is not None:
            snapshots["ssd"] = engine.ssd[0].profile_snapshot()
        return {
            "clocks": clocks,
            "intervals": device.trace.intervals,
            "engines": snapshots,
            "stats": vars(engine.stats),
            "replays": len(engine._memo or ()),
        }
    finally:
        movement.MEMO_ENTRIES = entries


@settings(max_examples=60, deadline=None)
@given(
    phases=issue_list,
    spray=st.booleans(),
    async_streams=st.booleans(),
    mode=st.sampled_from(["stream", "cached", "late-cache", "lru", "ssd"]),
)
# Recorded while streaming, seen again once resident: residency is in the key.
@example(phases=[(0, [(i, (500, 50)) for i in range(SHARDS)])] * 4,
         spray=True, async_streams=True, mode="late-cache")
def test_memo_on_equals_memo_off(phases, spray, async_streams, mode):
    on = play(phases, True, spray, async_streams, mode)
    off = play(phases, False, spray, async_streams, mode)
    assert off["replays"] == 0
    on_replays = on.pop("replays")
    off.pop("replays")
    assert on == off
    if not async_streams or mode in ("lru", "ssd"):
        assert on_replays == 0  # phases that carry state bypass the memo


def test_third_sighting_replays_without_the_event_loop(monkeypatch):
    """A key is recorded on its second sighting and replayed from the
    third on: the device is not synchronized for it again."""
    sim = Simulator()
    device = GPUDevice(sim, DeviceSpec())
    engine = DataMovementEngine(
        device, SHARDED, MovementConfig(), with_weights=False, with_edge_state=False
    )
    engine.reserve_stage_slots()
    syncs = []
    run = device.synchronize
    monkeypatch.setattr(device, "synchronize", lambda: syncs.append(1) or run())
    shards = list(SHARDED.shards)
    for _ in range(4):
        engine.run_phase(GROUPS[0], shards, 0, lambda shard: WorkItems(100, 10))
    assert len(syncs) == 2 and len(engine._memo) == 1
    assert engine.stats.phase_barriers == 4
    assert engine.stats.kernel_launches == 4 * SHARDS


def test_blocked_device_bypasses_the_memo():
    """Work left in flight by a non-barrier phase makes the next phase's
    timeline depend on it: that phase is neither recorded nor replayed."""
    sim = Simulator()
    device = GPUDevice(sim, DeviceSpec())
    engine = DataMovementEngine(
        device, SHARDED, MovementConfig(), with_weights=False, with_edge_state=False
    )
    engine.reserve_stage_slots()
    shards = list(SHARDED.shards)
    for _ in range(3):
        engine.run_phase(GROUPS[0], shards, 0, lambda s: WorkItems(100, 10), barrier=False)
        engine.run_phase(GROUPS[0], shards, 0, lambda s: WorkItems(100, 10))
    assert engine._memo == {}


def _run(graph, program, memo, **options):
    entries = movement.MEMO_ENTRIES
    movement.MEMO_ENTRIES = 256 if memo else 0
    engines = []
    init = DataMovementEngine.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    DataMovementEngine.__init__ = keep
    try:
        opts = GraphReduceOptions(cache_policy="never", **options)
        result = GraphReduce(graph, options=opts).run(program)
    finally:
        DataMovementEngine.__init__ = init
        movement.MEMO_ENTRIES = entries
    return result, engines[0]


def _signature(result):
    return (
        result.vertex_values.tobytes(),
        result.sim_time,
        [(s.sim_seconds, s.h2d_bytes, s.d2h_bytes) for s in result.iteration_stats],
        result.trace.intervals,
        result.engine_snapshots,
        vars(result.stats),
    )


def test_pagerank_replays_its_repeated_phases():
    graph = rmat(10, 8_000, seed=7)
    program = lambda: PageRank(tolerance=None, max_iterations=20)
    on, engine = _run(graph, program(), True, num_partitions=4)
    off, _ = _run(graph, program(), False, num_partitions=4)
    assert _signature(on) == _signature(off)
    # Every iteration runs the same phases over the same census: each
    # distinct phase and the frontier sync are recorded once.
    assert 0 < len(engine._memo) <= 5
    assert on.stats.phase_barriers == off.stats.phase_barriers


def test_non_repeating_sssp_records_nothing():
    graph = grid_road(24, 24, diagonal_fraction=0.15, highways=0, seed=7)
    graph = graph.with_random_weights(seed=7)
    on, engine = _run(graph, SSSP(source=0), True, num_partitions=4)
    off, _ = _run(graph, SSSP(source=0), False, num_partitions=4)
    assert _signature(on) == _signature(off)
    phases = {key for key in engine._memo if key[0] != "frontier"}
    assert not phases
