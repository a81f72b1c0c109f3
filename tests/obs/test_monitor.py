"""Telemetry stream reader: parsing, folding, diffing.

The stream reader must survive what a live writer does to a file -- a
torn final line -- and must refuse streams from an incompatible schema
instead of misreading them.
"""

import json

import pytest

from repro.obs.bench import metric_table
from repro.obs.monitor import (
    MonitorState,
    fold_stream,
    last_run,
    parse_record,
    read_records,
    report_text,
)
from repro.obs.telemetry import SCHEMA_VERSION


def _rec(kind, **fields):
    fields.setdefault("schema", SCHEMA_VERSION)
    fields["kind"] = kind
    return fields


def _stream():
    return [
        _rec("run_start", algorithm="pagerank", kernel_backend="numpy",
             pid=4242, wall_time=10.0),
        _rec("snapshot", iteration=0, frontier=8192, sim_time=0.001,
             iterations_per_sec=100.0, wall_time=10.5,
             sources={"plan_cache": {"hits": 3, "misses": 1}}),
        _rec("snapshot", iteration=5, frontier=4096, sim_time=0.002,
             iterations_per_sec=200.0, wall_time=11.0,
             counters={"runtime.iterations": 6},
             sources={"plan_cache": {"hits": 3, "misses": 1,
                                     "sparse_bypass": 40,
                                     "held_bytes": 1_500_000},
                      "kernels": {"fused_calls": 90, "premaps": 6,
                                  "merged_groups": 12}}),
        _rec("run_end", iterations=6, converged=True, sim_time=0.002,
             error=None, wall_time=11.5),
    ]


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def test_parse_record_tolerates_blank_and_torn_lines():
    assert parse_record("") is None
    assert parse_record("   \n") is None
    assert parse_record('{"schema": 1, "kind": "snaps') is None  # torn tail
    assert parse_record('"just a string"') is None


def test_parse_record_rejects_schema_mismatch():
    line = json.dumps({"schema": SCHEMA_VERSION + 1, "kind": "snapshot"})
    with pytest.raises(ValueError, match="schema mismatch"):
        parse_record(line)


def test_read_records_skips_torn_tail(tmp_path):
    path = tmp_path / "s.jsonl"
    lines = [json.dumps(r) for r in _stream()]
    path.write_text("\n".join(lines) + '\n{"schema": 1, "kind": "sn')
    records = read_records(str(path))
    assert [r["kind"] for r in records] == [
        "run_start", "snapshot", "snapshot", "run_end",
    ]


# ----------------------------------------------------------------------
# MonitorState fold
# ----------------------------------------------------------------------
def test_state_tracks_latest_view():
    state = MonitorState()
    for r in _stream():
        state.ingest(r)
    assert state.records == 4 and state.snapshots == 2
    assert state.run["algorithm"] == "pagerank"
    assert state.last_snapshot["iteration"] == 5
    assert state.end["converged"] is True and state.end["error"] is None


def test_fold_over_two_runs_counts_only_the_last():
    first = _stream()
    second = [dict(r, algorithm="bfs") if r["kind"] == "run_start" else r
              for r in _stream()[:2] + _stream()[-1:]]
    records = first + second
    assert last_run(records) == second
    assert last_run(first) == first
    assert fold_stream(records)["records"] == 7
    doc = fold_stream(last_run(records))
    assert doc["run"] == {"algorithm": "bfs"}
    assert (doc["records"], doc["snapshots"]) == (3, 1)


def test_snapshots_of_a_real_run_carry_the_sources(tmp_path):
    """The runtime registers its telemetry sources under the names the
    report reads: a real run's snapshots carry the plan-cache and
    kernel stats dicts."""
    from repro.algorithms import PageRank
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.graph.generators import erdos_renyi
    from repro.obs.telemetry import TelemetryConfig

    stream = tmp_path / "telemetry.jsonl"
    result = GraphReduce(
        erdos_renyi(400, 3000, seed=5),
        options=GraphReduceOptions(
            num_partitions=4,
            telemetry=TelemetryConfig(out=str(stream), interval=0.0),
        ),
    ).run(PageRank(tolerance=None, max_iterations=3))
    state = MonitorState()
    for r in read_records(str(stream)):
        state.ingest(r)
    assert state.run["kernel_backend"] == "numpy"
    sources = state.last_snapshot["sources"]
    assert sources["kernels"] == result.kernels
    assert sources["plan_cache"]["hits"] + sources["plan_cache"]["misses"] > 0
    assert sources["plan_cache"] == result.plan_cache


# ----------------------------------------------------------------------
# fold_stream -> report -> bench-diff integration
# ----------------------------------------------------------------------
def test_fold_stream_builds_diffable_report():
    doc = fold_stream(_stream())
    assert doc["telemetry_version"] == 1
    assert doc["run"] == {"algorithm": "pagerank"}
    assert doc["records"] == 4 and doc["snapshots"] == 2
    assert doc["iterations"] == 6 and doc["converged"] is True
    assert doc["frontier_peak"] == 8192
    assert doc["wall_seconds"] == pytest.approx(1.5)
    assert doc["iterations_per_sec_mean"] == pytest.approx(150.0)
    assert "incidents" not in doc
    assert doc["counters"] == {"runtime.iterations": 6}
    text = report_text(doc)
    assert "pagerank" in text and "iterations 6" in text


def test_metric_table_reads_telemetry_reports():
    table = metric_table(fold_stream(_stream()))
    [(name, row)] = table.items()
    assert name == "telemetry:pagerank"
    assert row["iterations"] == 6.0
    assert row["frontier_peak"] == 8192.0
    assert "incidents" not in row
    assert row["wall_seconds_stream"] == pytest.approx(1.5)
    assert row["counter:runtime.iterations"] == 6.0


def test_metric_table_rejects_future_telemetry_version():
    doc = fold_stream(_stream())
    doc["telemetry_version"] = 99
    with pytest.raises(ValueError, match="telemetry report version"):
        metric_table(doc)


def test_metric_table_rejects_future_profile_version():
    with pytest.raises(ValueError, match="profile version"):
        metric_table({"profile_version": 99, "algo": "x", "graph": "y"})
