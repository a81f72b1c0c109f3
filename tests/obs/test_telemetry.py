"""Telemetry bus, bounded flight recorder, and heartbeat watchdog.

The flight-recorder half is property-based: whatever passes through a
ring, memory stays bounded by the byte budget and the drop counter is
exact. The watchdog half drives detection with a pinned fake clock --
stalls, recoveries, and (crucially) the no-false-positive guarantees
for idle components and clean shutdown.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.obs.health import HeartbeatRegistry, Watchdog
from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.telemetry import (
    SCHEMA_VERSION,
    SPAN_RECORD_BYTES,
    FlightRecorder,
    Ring,
    RunTelemetry,
    TelemetryBus,
    TelemetryConfig,
)
from tests.fixture_graphs import build
from repro.algorithms import PageRank


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# Ring: bounded memory, exact drop accounting (property-based)
# ----------------------------------------------------------------------
@given(
    capacity=st.integers(min_value=1, max_value=64),
    items=st.lists(st.integers(), max_size=300),
)
@settings(max_examples=60, deadline=None)
def test_ring_keeps_last_n_and_counts_drops(capacity, items):
    ring = Ring(capacity)
    for item in items:
        ring.append(item)
    kept = list(ring)
    assert kept == items[-capacity:][-len(kept):]
    assert len(ring) == min(len(items), capacity)
    assert len(ring._slots) == capacity  # storage never grows
    assert ring.appended == len(items)
    assert ring.dropped == max(0, len(items) - capacity)
    stats = ring.stats()
    assert stats["recorded"] + stats["dropped"] == stats["appended"]


def test_ring_rejects_zero_capacity():
    with pytest.raises(ValueError, match="capacity"):
        Ring(0)


@given(
    budget=st.integers(min_value=1, max_value=64 * SPAN_RECORD_BYTES),
    spans=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=40, deadline=None)
def test_flight_recorder_memory_is_o_budget(budget, spans):
    clock = FakeClock()
    rec = FlightRecorder(clock=clock, budget_bytes=budget)
    for i in range(spans):
        with rec.span(f"iter-{i}", category="iteration"):
            clock.advance(1.0)
    capacity = max(1, budget // (2 * SPAN_RECORD_BYTES))
    assert rec.span_ring.capacity == capacity
    assert len(rec.span_ring) <= capacity
    assert rec.span_ring.appended == spans
    assert rec.span_ring.dropped == max(0, spans - capacity)
    # No tree accumulates: bounded rings are the only span storage.
    assert rec.roots == []


def test_flight_recorder_records_flat_spans_and_events():
    clock = FakeClock()
    rec = FlightRecorder(clock=clock, budget_bytes=1 << 20)
    with rec.span("run", category="run"):
        clock.advance(1.0)
        with rec.span("iteration", category="iteration", index=3):
            clock.advance(2.0)
        rec.event("marker", category="debug")
    spans = rec.span_ring.to_list()
    # Inner span closes first; both carry real simulated timestamps.
    assert [s["name"] for s in spans] == ["iteration", "run"]
    assert spans[0] == {
        "name": "iteration",
        "category": "iteration",
        "start": 1.0,
        "end": 3.0,
        "attrs": {"index": 3},
    }
    assert rec.event_ring.to_list()[0]["name"] == "marker"
    snap = rec.snapshot()
    assert snap["schema"] == SCHEMA_VERSION
    assert snap["spans"]["recorded"] == 2
    # Metrics ride along untouched by the bounding.
    rec.add("runtime.iterations")
    assert rec.metrics.counters["runtime.iterations"].value == 1


def test_flight_recorder_engine_run_is_bounded(tmp_path):
    g = build("er_small")
    budget = 8 * 2 * SPAN_RECORD_BYTES
    opts = GraphReduceOptions(
        num_partitions=2,
        telemetry=TelemetryConfig(flight_recorder=True, budget_bytes=budget),
    )
    result = GraphReduce(g, options=opts).run(PageRank(tolerance=1e-3))
    flight = result.telemetry["flight_recorder"]
    assert flight["spans"]["capacity"] == 8
    assert flight["spans"]["recorded"] <= 8
    assert flight["spans"]["appended"] > 8  # a real run overflows it
    assert (
        flight["spans"]["dropped"]
        == flight["spans"]["appended"] - flight["spans"]["recorded"]
    )


# ----------------------------------------------------------------------
# TelemetryBus: schema-versioned JSONL, thread-safe sequencing
# ----------------------------------------------------------------------
def test_bus_writes_schema_versioned_jsonl(tmp_path):
    path = tmp_path / "stream.jsonl"
    bus = TelemetryBus.open(str(path))
    bus.emit("run_start", algorithm="pagerank")
    bus.emit("snapshot", iteration=0)
    bus.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["kind"] for r in records] == ["run_start", "snapshot"]
    assert [r["seq"] for r in records] == [0, 1]
    for r in records:
        assert r["schema"] == SCHEMA_VERSION
        assert "wall_time" in r and "pid" in r


def test_bus_concurrent_emit_keeps_seq_dense(tmp_path):
    path = tmp_path / "stream.jsonl"
    bus = TelemetryBus.open(str(path))
    n, threads = 200, 8

    def hammer(t):
        for i in range(n):
            bus.emit("snapshot", thread=t, i=i)

    workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    bus.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == n * threads
    assert sorted(r["seq"] for r in records) == list(range(n * threads))


# ----------------------------------------------------------------------
# Heartbeats + watchdog (fake clock: no sleeps anywhere)
# ----------------------------------------------------------------------
def test_stalled_worker_raises_one_incident_then_recovers():
    clock = FakeClock()
    reg = HeartbeatRegistry(clock=clock)
    wd = Watchdog(reg, stall_timeout=5.0)
    reg.register("worker-0", kind="worker")
    reg.beat("worker-0")
    reg.busy("worker-0")
    clock.advance(4.0)
    assert wd.check() == []  # within the timeout
    clock.advance(2.0)
    fresh = wd.check()
    assert [i.kind for i in fresh] == ["stall"]
    assert fresh[0].component == "worker-0"
    assert fresh[0].component_kind == "worker"
    assert fresh[0].age == pytest.approx(6.0)
    # Edge-triggered: a still-stalled worker does not spam incidents.
    clock.advance(10.0)
    assert wd.check() == []
    reg.beat("worker-0")
    assert [i.kind for i in wd.check()] == ["recovered"]
    assert [i.kind for i in wd.incidents] == ["stall", "recovered"]


def test_stalled_prefetcher_detected():
    clock = FakeClock()
    reg = HeartbeatRegistry(clock=clock)
    wd = Watchdog(reg, stall_timeout=2.0)
    reg.register("prefetcher", kind="prefetcher")
    reg.busy("prefetcher")  # loads outstanding
    clock.advance(3.0)
    fresh = wd.check()
    assert [(i.kind, i.component) for i in fresh] == [("stall", "prefetcher")]


def test_idle_components_never_flagged():
    clock = FakeClock()
    reg = HeartbeatRegistry(clock=clock)
    wd = Watchdog(reg, stall_timeout=1.0)
    reg.register("worker-0", kind="worker")  # idle: blocks on its queue
    clock.advance(1000.0)
    assert wd.check() == []
    assert wd.incidents == []


def test_clean_shutdown_is_not_a_stall():
    clock = FakeClock()
    reg = HeartbeatRegistry(clock=clock)
    wd = Watchdog(reg, stall_timeout=5.0)
    reg.register("worker-0", kind="worker", busy=True)
    reg.unregister("worker-0")  # pool shutdown
    clock.advance(100.0)
    assert wd.check() == []
    assert wd.incidents == []


def test_unregister_while_stalled_suppresses_recovery_noise():
    clock = FakeClock()
    reg = HeartbeatRegistry(clock=clock)
    wd = Watchdog(reg, stall_timeout=1.0)
    reg.register("worker-0", kind="worker", busy=True)
    clock.advance(2.0)
    assert [i.kind for i in wd.check()] == ["stall"]
    reg.unregister("worker-0")
    # The component is gone, not recovered: no phantom incident.
    assert wd.check() == []


def test_watchdog_publishes_incidents_to_bus(tmp_path):
    path = tmp_path / "stream.jsonl"
    clock = FakeClock()
    reg = HeartbeatRegistry(clock=clock)
    bus = TelemetryBus.open(str(path))
    wd = Watchdog(reg, bus=bus, stall_timeout=1.0)
    reg.register("worker-1", kind="worker", busy=True)
    clock.advance(2.0)
    wd.check()
    reg.beat("worker-1")
    wd.check()
    bus.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["kind"] for r in records] == ["incident", "incident"]
    assert [r["incident_kind"] for r in records] == ["stall", "recovered"]
    assert records[0]["component"] == records[1]["component"] == "worker-1"


def test_leaked_thread_detection_respects_baseline():
    reg = HeartbeatRegistry()
    wd = Watchdog(reg)
    release = threading.Event()
    leak = threading.Thread(
        target=release.wait, name="repro-watchdog-leaked", daemon=True
    )
    leak.start()
    try:
        flagged = wd.check_threads()
        assert [i.component for i in flagged] == ["repro-watchdog-leaked"]
        assert flagged[0].kind == "leaked-thread"
        # A pre-existing thread captured in the baseline is exempt.
        assert wd.check_threads(baseline={leak.ident}) == []
        # A run's own check takes the threads alive at its start as the
        # baseline: another run's watchdog is not this run's leak.
        telem = RunTelemetry(TelemetryConfig(watchdog_poll=60.0))
        telem.start(algorithm="bfs")
        assert telem.finish(iterations=0, converged=True)["incidents"] == []
    finally:
        release.set()
        leak.join()


# ----------------------------------------------------------------------
# RunTelemetry lifecycle
# ----------------------------------------------------------------------
def test_run_telemetry_stream_lifecycle(tmp_path):
    path = tmp_path / "run.jsonl"
    cfg = TelemetryConfig(out=str(path), interval=0.0, watchdog_poll=60.0)
    telem = RunTelemetry(cfg)
    telem.add_source("plan_cache", lambda: {"hits": 7, "misses": 1})
    telem.start(algorithm="pagerank")
    for i in range(3):
        telem.iteration(i, frontier=100 - i)
    summary = telem.finish(iterations=3, converged=True)
    assert telem.finish(iterations=3, converged=True) == summary  # idempotent
    records = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = [r["kind"] for r in records]
    assert kinds == ["run_start"] + ["snapshot"] * 3 + ["run_end"]
    assert records[0]["algorithm"] == "pagerank"
    snap = records[2]
    assert snap["iteration"] == 1
    assert snap["frontier"] == 99
    assert snap["sources"]["plan_cache"] == {"hits": 7, "misses": 1}
    assert "main-loop" in snap["heartbeats"]
    assert records[-1]["converged"] is True
    assert records[-1]["incidents"] == 0
    assert summary["records"] == 5
    assert summary["incidents"] == []


def test_run_telemetry_interval_throttles_snapshots(tmp_path):
    path = tmp_path / "run.jsonl"
    cfg = TelemetryConfig(out=str(path), interval=3600.0, watchdog_poll=60.0)
    telem = RunTelemetry(cfg)
    telem.start(algorithm="bfs")
    for i in range(50):
        telem.iteration(i, frontier=1)
    telem.finish(iterations=50, converged=False)
    kinds = [json.loads(l)["kind"] for l in path.read_text().splitlines()]
    assert kinds.count("snapshot") == 0  # interval never elapsed
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"


# ----------------------------------------------------------------------
# Thread-safe metrics (satellite: concurrent writers, exact totals)
# ----------------------------------------------------------------------
def test_registry_hammered_from_8_threads_keeps_exact_totals():
    reg = MetricsRegistry()
    threads, n = 8, 5_000

    def hammer(t):
        for i in range(n):
            reg.add("shared.counter")
            reg.add("per.bytes", 3)
            reg.observe("shared.hist", (i % 7) + 1)

    workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert reg.counters["shared.counter"].value == threads * n
    assert reg.counters["per.bytes"].value == 3 * threads * n
    hist = reg.histograms["shared.hist"]
    assert hist.count == threads * n
    assert hist.total == sum(((i % 7) + 1) for i in range(n)) * threads
    snap = reg.snapshot()
    assert snap["schema"] == METRICS_SCHEMA_VERSION
    restored = MetricsRegistry.from_snapshot(snap)
    assert restored.snapshot() == snap
