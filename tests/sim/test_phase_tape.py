"""Phase tapes: a barrier phase whose skeleton ran before is folded from

a tape of an earlier phase's event order, re-run on its own kernel
inputs, instead of re-simulated. Tapes on must equal the event loop
(``TAPES = 0``) bit for bit."""

import sys
from pathlib import Path

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
from repro.obs.span import Observer
from repro.sim.device import GPUDevice
from repro.sim.engine import Simulator
from repro.sim.resources import FluidResource
from repro.sim.specs import DeviceSpec
from repro.sim.trace import TraceRecorder

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

census = st.tuples(st.integers(0, 300_000), st.integers(0, 30_000))
skeleton = st.one_of(
    st.tuples(st.just("frontier"), st.sampled_from([16, 40])),
    st.tuples(
        st.integers(0, len(GROUPS) - 1),
        st.lists(st.integers(0, SHARDS - 1), max_size=SHARDS, unique=True),
    ),
)
# A small pool of skeletons drawn many times, each phase with a fresh
# per-shard census: skeletons repeat, kernel durations do not.
issue_list = st.lists(skeleton, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(
        st.sampled_from(pool).flatmap(lambda s: st.tuples(
            st.just(s[0]),
            st.just(s[1]) if s[0] == "frontier"
            else st.lists(census, min_size=len(s[1]), max_size=len(s[1])).map(
                lambda works, shards=s[1]: list(zip(shards, works))),
        )),
        min_size=1, max_size=12,
    )
)


def engine_for(sim, device, obs=None, **config):
    return DataMovementEngine(
        device, SHARDED, MovementConfig(**config), with_weights=False,
        with_edge_state=False, obs=obs,
    )


def play(phases, tapes, spray, async_streams, mode):
    """Run ``phases`` on a fresh engine; everything the run observably
    produced on the simulated device and in the counters."""
    bound = movement.TAPES
    movement.TAPES = 1024 if tapes else 0
    try:
        sim = Simulator()
        device = GPUDevice(sim, DeviceSpec())
        obs = Observer(clock=lambda: sim.now)
        engine = engine_for(sim, device, obs, async_streams=async_streams, spray=spray)
        engine.upload_resident({"values": 4 * GRAPH.num_vertices})
        if mode == "cached":
            assert engine.cache_all_shards()
        else:
            engine.reserve_stage_slots()
        if mode == "ssd":
            engine.ssd = (FluidResource(sim, 2e9, max_concurrent=4, name="ssd"), 0.5)
        clocks = []
        for n, (kind, arg) in enumerate(phases):
            if mode == "late-cache" and n == len(phases) // 2:
                # Residency changes mid-run: the same skeleton now moves nothing.
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
        }, obs.metrics
    finally:
        movement.TAPES = bound


@settings(max_examples=60, deadline=None)
@given(
    phases=issue_list,
    spray=st.booleans(),
    async_streams=st.booleans(),
    mode=st.sampled_from(["stream", "cached", "late-cache", "ssd"]),
)
# Recorded while streaming, seen again once resident: residency is in the key.
@example(phases=[(0, [(i, (500, 50)) for i in range(SHARDS)])] * 4,
         spray=True, async_streams=True, mode="late-cache")
def test_tape_equals_event_loop(phases, spray, async_streams, mode):
    on, metrics = play(phases, True, spray, async_streams, mode)
    off, oracle = play(phases, False, spray, async_streams, mode)
    assert on == off
    assert oracle.value("movement.tape.hits") == oracle.value("movement.tape.records") == 0
    if not async_streams or mode == "ssd":
        # phases that carry state bypass tapes
        assert metrics.value("movement.tape.hits") == metrics.value("movement.tape.records") == 0


def _phase(engine, shards, works, group=GROUPS[0]):
    work = dict(zip(shards, works))
    engine.run_phase(group, [SHARDED.shards[i] for i in shards], 0,
                     lambda shard: WorkItems(*work[shard.index]))


def test_third_sighting_plays_without_the_event_loop(monkeypatch):
    """A skeleton is recorded on its second sighting and folded from its
    tape from the third on, with new kernel durations: the event loop
    does not run for it again."""
    sim = Simulator()
    device = GPUDevice(sim, DeviceSpec())
    engine = engine_for(sim, device)
    engine.reserve_stage_slots()
    runs = []
    loop = sim.run
    monkeypatch.setattr(sim, "run", lambda: runs.append(1) or loop())
    shards = [s.index for s in SHARDED.shards]
    for n in range(4):
        _phase(engine, shards, [(100 + n, 10)] * SHARDS)
    assert len(runs) == 2
    (variants,) = engine.tapes.values()
    assert len(variants) == 1
    assert engine.stats.phase_barriers == 4
    assert engine.stats.kernel_launches == 4 * SHARDS
    assert engine.stats.kernel_items == sum((110 + n) * SHARDS for n in range(4))


def test_blocked_device_bypasses_tapes():
    """Work left in flight by a non-barrier phase makes the next phase's
    timeline depend on it: that phase neither records nor plays."""
    sim = Simulator()
    device = GPUDevice(sim, DeviceSpec())
    engine = engine_for(sim, device)
    engine.reserve_stage_slots()
    shards = list(SHARDED.shards)
    for _ in range(3):
        engine.run_phase(GROUPS[0], shards, 0, lambda s: WorkItems(100, 10), barrier=False)
        engine.run_phase(GROUPS[0], shards, 0, lambda s: WorkItems(100, 10))
    assert engine.tapes == {}


def _two_streams():
    sim = Simulator()
    device = GPUDevice(sim, DeviceSpec())
    obs = Observer(clock=lambda: sim.now)
    engine = engine_for(sim, device, obs)
    engine.reserve_stage_slots()
    return sim, device, engine, obs.metrics


def test_a_flipped_completion_order_falls_back_and_records_a_variant():
    """Swapping which of two concurrent kernels is long flips the order
    their completions and copy-backs take: the tape's guards catch it,
    the phase runs through the event loop (exactly), and its order is
    recorded as a second variant of the skeleton."""
    long, short = (2_000_000, 0), (20_000, 0)
    phases = [[long, short]] * 3 + [[short, long]] * 2
    sim, device, engine, metrics = _two_streams()
    clocks = []
    for works in phases:
        _phase(engine, [0, 1], works, GROUPS[2])
        clocks.append(sim.now)
    assert metrics.value("movement.tape.records") == 2
    assert metrics.value("movement.tape.fallbacks") == 1
    assert metrics.value("movement.tape.hits") == 2
    (variants,) = engine.tapes.values()
    assert len(variants) == 2

    bound = movement.TAPES
    movement.TAPES = 0
    try:
        sim, oracle_device, engine, _ = _two_streams()
        oracle = []
        for works in phases:
            _phase(engine, [0, 1], works, GROUPS[2])
            oracle.append(sim.now)
    finally:
        movement.TAPES = bound
    assert clocks == oracle
    assert device.trace.intervals == oracle_device.trace.intervals
    assert device.engine_snapshots() == oracle_device.engine_snapshots()


def test_an_aborted_recording_stores_nothing(monkeypatch):
    """Coercing a traced value (here the trace's interval start) gives up
    the recording: the phase still completes exactly, and no tape is
    kept for it."""
    record = TraceRecorder.record

    def coercing(self, start, end, *args, **kwargs):
        return record(self, float(start), end, *args, **kwargs)

    shards = [s.index for s in SHARDED.shards]
    works = [[(300 + 7 * n + i, 10) for i in shards] for n in range(4)]

    def run():
        sim, device, engine, metrics = _two_streams()
        for w in works:
            _phase(engine, shards, w)
        return sim.now, device.trace.intervals, engine, metrics

    now, intervals, engine, metrics = run()
    monkeypatch.setattr(TraceRecorder, "record", coercing)
    now_aborted, intervals_aborted, engine, metrics = run()
    assert (now_aborted, intervals_aborted) == (now, intervals)
    assert metrics.value("movement.tape.records") == 0
    assert metrics.value("movement.tape.hits") == 0
    assert list(engine.tapes.values()) == [[]]


def _signature(result):
    return (
        result.vertex_values.tobytes(),
        result.sim_time,
        [(s.sim_seconds, s.h2d_bytes, s.d2h_bytes) for s in result.iteration_stats],
        result.trace.intervals,
        result.engine_snapshots,
        vars(result.stats),
        result.frontier_history,
    )


def _run(engine, program, tapes=True):
    bound = movement.TAPES
    movement.TAPES = movement.TAPES if tapes else 0
    try:
        return engine.run(program)
    finally:
        movement.TAPES = bound


def test_stale_configuration_never_reuses_a_tape():
    """Tapes are kept per configuration the event loop reads: a run on
    the same engine with another ``spray``, ``async_streams`` or
    ``num_partitions`` gets a book of its own, and equals the oracle."""
    graph = grid_road(16, 16, diagonal_fraction=0.15, highways=0, seed=5)
    graph = graph.with_random_weights(seed=5)
    base = GraphReduceOptions(cache_policy="never", num_partitions=4)
    engine = GraphReduce(graph, options=base)
    books = []
    engines = []
    init = DataMovementEngine.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    DataMovementEngine.__init__ = keep
    try:
        for change in ({}, {"spray": False}, {"async_streams": False}, {"num_partitions": 3}, {}):
            engine.options = base.replace(**change)
            result = _run(engine, SSSP(source=0))
            books.append(engines[-1].tapes)
            oracle = _run(GraphReduce(graph, options=engine.options), SSSP(source=0), tapes=False)
            assert _signature(result) == _signature(oracle)
    finally:
        DataMovementEngine.__init__ = init
    assert len({id(book) for book in books[:4]}) == 4
    assert books[4] is books[0]  # the first configuration again: its book is reused
    assert books[0] and not any(books[2].values())  # synchronous runs bypass tapes


def test_pagerank_plays_its_repeated_phases():
    graph = rmat(10, 8_000, seed=7)
    opts = GraphReduceOptions(cache_policy="never", num_partitions=4)
    program = lambda: PageRank(tolerance=None, max_iterations=20)
    on = _run(GraphReduce(graph, options=opts), program())
    off = _run(GraphReduce(graph, options=opts), program(), tapes=False)
    assert _signature(on) == _signature(off)
    metrics = on.observer.metrics
    # Every iteration runs the same phases: each is recorded once.
    assert 0 < metrics.value("movement.tape.records") <= 5
    assert metrics.value("movement.tape.hits") >= 15 * 4
    assert metrics.value("movement.tape.fallbacks") == 0


def test_sssp_folds_most_phases_from_tapes():
    """A moving SSSP frontier never repeats a phase exactly, but its
    skeletons and event orders repeat."""
    graph = grid_road(24, 24, diagonal_fraction=0.15, highways=0, seed=7)
    graph = graph.with_random_weights(seed=7)
    opts = GraphReduceOptions(cache_policy="never", num_partitions=4)
    engine = GraphReduce(graph, options=opts)
    on = _run(engine, SSSP(source=0))
    off = _run(GraphReduce(graph, options=opts), SSSP(source=0), tapes=False)
    assert _signature(on) == _signature(off)
    metrics = on.observer.metrics
    hits = metrics.value("movement.tape.hits")
    assert hits > metrics.value("movement.tape.fallbacks")
    assert hits > 0.5 * on.stats.phase_barriers
    # A warm query on the same engine reuses them.
    again = _run(engine, SSSP(source=0))
    assert _signature(again) == _signature(off)
    assert again.observer.metrics.value("movement.tape.hits") > hits


def _e2e_workloads():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return WORKLOADS


@pytest.mark.parametrize("name", ["pr_ram", "pr_ooc", "sssp_road", "msbfs_batch"])
def test_benchmark_workloads_equal_the_event_loop(name, tmp_path):
    """The four benchmark workloads at their quick sizes, a cold and a
    warm query each: tapes on == the event loop, bit for bit."""
    workload = _e2e_workloads()[name]
    inputs = workload.inputs(7, quick=True)

    def queries(tapes):
        bound = movement.TAPES
        movement.TAPES = movement.TAPES if tapes else 0
        try:
            engine = workload.cold_start(inputs, tmp_path / ("on" if tapes else "off"))
            return [workload.query(engine, inputs) for _ in range(2)]
        finally:
            movement.TAPES = bound

    for on, off in zip(queries(True), queries(False)):
        assert _signature(on.run) == _signature(off.run)
        values = on.values if isinstance(on.values, list) else [on.values]
        expected = off.values if isinstance(off.values, list) else [off.values]
        assert [v.tobytes() for v in values] == [v.tobytes() for v in expected]
