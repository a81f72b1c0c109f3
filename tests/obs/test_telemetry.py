"""Telemetry bus and the run's snapshot stream.

The stream is written on the run's own thread: a run with telemetry
on starts no thread, and its records carry a dense ``seq``.
"""

import json
import threading

import pytest

from repro.algorithms import PageRank
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.telemetry import (
    SCHEMA_VERSION,
    RunTelemetry,
    TelemetryBus,
    TelemetryConfig,
)
from tests.fixture_graphs import build


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
# RunTelemetry lifecycle
# ----------------------------------------------------------------------
def test_run_telemetry_stream_lifecycle(tmp_path):
    path = tmp_path / "run.jsonl"
    cfg = TelemetryConfig(out=str(path), interval=0.0)
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
    assert records[-1]["converged"] is True
    assert records[-1]["error"] is None
    assert summary == {"schema": SCHEMA_VERSION, "records": 5, "out": str(path)}


def test_run_telemetry_interval_throttles_snapshots(tmp_path):
    path = tmp_path / "run.jsonl"
    cfg = TelemetryConfig(out=str(path), interval=3600.0)
    telem = RunTelemetry(cfg)
    telem.start(algorithm="bfs")
    for i in range(50):
        telem.iteration(i, frontier=1)
    telem.finish(iterations=50, converged=False)
    kinds = [json.loads(l)["kind"] for l in path.read_text().splitlines()]
    assert kinds.count("snapshot") == 0  # interval never elapsed
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"


def test_config_needs_a_sink():
    with pytest.raises(TypeError):
        TelemetryConfig()


def test_engine_run_streams_on_its_own_thread(tmp_path):
    """A telemetry run starts no thread, during the run or after it,
    and writes one record per iteration between run_start and run_end
    with a dense seq."""
    path = tmp_path / "run.jsonl"
    before = set(threading.enumerate())
    seen = []

    class Probe(PageRank):
        def end_iteration(self, ctx, values, changed, iteration):
            seen.append(set(threading.enumerate()))

    result = GraphReduce(
        build("er_small"),
        options=GraphReduceOptions(
            num_partitions=2,
            telemetry=TelemetryConfig(out=str(path), interval=0.0),
        ),
    ).run(Probe(tolerance=None, max_iterations=5))
    assert len(seen) == result.iterations == 5
    assert all(threads == before for threads in seen)
    assert set(threading.enumerate()) == before
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["seq"] for r in records] == list(range(len(records)))
    kinds = [r["kind"] for r in records]
    assert kinds == ["run_start"] + ["snapshot"] * 5 + ["run_end"]
    assert records[-1]["error"] is None
    assert result.telemetry["records"] == len(records)


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
