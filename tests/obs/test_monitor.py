"""Telemetry stream consumers: parsing, tailing, folding, diffing.

The stream reader must survive what a live writer does to a file --
torn final lines, records arriving between polls -- and must refuse
streams from an incompatible schema instead of misreading them.
"""

import json
import threading

import pytest

from repro.obs.bench import metric_table
from repro.obs.monitor import (
    MonitorState,
    fold_stream,
    follow,
    parse_record,
    read_records,
    render,
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
             sources={"plan_cache": {"hits": 3, "misses": 1}},
             heartbeats={
                 "main-loop": {"age": 0.0, "busy": True, "kind": "loop",
                               "beats": 1},
             }),
        _rec("snapshot", iteration=5, frontier=4096, sim_time=0.002,
             iterations_per_sec=200.0, wall_time=11.0,
             counters={"runtime.iterations": 6},
             sources={"plan_cache": {"hits": 3, "misses": 1,
                                     "sparse_bypass": 40,
                                     "held_bytes": 1_500_000},
                      "kernels": {"fused_calls": 90, "premaps": 6,
                                  "merged_groups": 12}},
             heartbeats={
                 "main-loop": {"age": 0.2, "busy": True, "kind": "loop",
                               "beats": 6},
             }),
        _rec("run_end", iterations=6, converged=True, sim_time=0.002,
             incidents=0, wall_time=11.5),
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


def test_follow_tails_a_growing_file(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text("")
    stream = _stream()

    def writer():
        with open(path, "a", encoding="utf-8") as fh:
            for r in stream:
                fh.write(json.dumps(r) + "\n")
                fh.flush()

    t = threading.Thread(target=writer)
    t.start()
    got = list(follow(str(path), poll=0.01))  # returns at run_end
    t.join()
    assert [r["kind"] for r in got] == [r["kind"] for r in stream]


def test_follow_stop_callback_ends_the_tail(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(_stream()[0]) + "\n")  # no run_end ever
    polls = []

    def stop():
        polls.append(1)
        return len(polls) >= 2

    got = list(follow(str(path), poll=0.01, stop=stop))
    assert [r["kind"] for r in got] == ["run_start"]


# ----------------------------------------------------------------------
# MonitorState health expectations
# ----------------------------------------------------------------------
def test_state_tracks_latest_view():
    state = MonitorState()
    for r in _stream():
        state.ingest(r)
    assert state.records == 4 and state.snapshots == 2
    assert state.last_snapshot["iteration"] == 5
    assert state.heartbeats["main-loop"]["beats"] == 6
    assert state.problems(fail_on_incident=True) == []


def test_problems_flag_missing_records_and_incidents():
    state = MonitorState()
    assert state.problems() == ["no telemetry records seen"]
    for r in _stream():
        state.ingest(r)
    assert state.problems() == []
    state.ingest(_rec("incident", incident_kind="stall",
                      component="main-loop", details="no heartbeat"))
    [problem] = state.problems(fail_on_incident=True)
    assert "incidents on the stream" in problem
    # 'recovered' incidents are informational, not failures.
    healthy = MonitorState()
    for r in _stream():
        healthy.ingest(r)
    healthy.ingest(_rec("incident", incident_kind="recovered",
                        component="main-loop"))
    assert healthy.problems(fail_on_incident=True) == []


def test_render_shows_the_live_view():
    state = MonitorState()
    for r in _stream()[:-1]:
        state.ingest(r)
    view = render(state)
    assert "run: pagerank" in view and "kernels=numpy" in view
    assert "iteration 5" in view and "frontier 4096" in view
    assert (
        "dense plans: 3 hits / 1 misses (75.0%) · row-built: 40 · held: 1.5 MB"
        in view
    )
    assert "kernels 90 fused 6 premaps 12 merged" in view
    assert "main-loop" in view and "busy" in view
    assert "incidents: none" in view
    state.ingest(_stream()[-1])
    assert "run ended: converged after 6 iterations" in render(state)


def test_render_shows_the_sources_of_a_real_run(tmp_path):
    """The runtime registers its telemetry sources under the names the
    monitor reads, so a real run renders the plan and kernel segments."""
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
    view = render(state)
    assert "kernels=numpy" in view
    assert f"kernels {result.kernels['fused_calls']} fused" in view
    assert "dense plans:" in view


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
    assert doc["incidents"] == 0
    assert doc["counters"] == {"runtime.iterations": 6}
    text = report_text(doc)
    assert "pagerank" in text and "iterations 6" in text


def test_metric_table_reads_telemetry_reports():
    table = metric_table(fold_stream(_stream()))
    [(name, row)] = table.items()
    assert name == "telemetry:pagerank"
    assert row["iterations"] == 6.0
    assert row["frontier_peak"] == 8192.0
    assert row["incidents"] == 0.0
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
