"""Chrome trace_event and JSON exporters."""

import json

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank
from repro.core.report import build_report
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.graph.generators import erdos_renyi, rmat
from repro.obs.export import (
    DEVICE_PID,
    RUNTIME_PID,
    US,
    memcpy_duration_us,
    observer_to_json,
    result_to_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.span import Observer


@pytest.fixture(scope="module")
def result():
    g = rmat(10, 8_000, seed=3)
    opts = GraphReduceOptions(cache_policy="never")
    return GraphReduce(g, options=opts).run(PageRank(tolerance=1e-3))


@pytest.fixture(scope="module")
def doc(result):
    return result_to_chrome_trace(result)


class TestChromeTrace:
    def test_document_shape(self, doc):
        assert set(doc) >= {"traceEvents", "displayTimeUnit", "metrics"}
        assert all(ev["ph"] in ("X", "M") for ev in doc["traceEvents"])

    def test_process_metadata(self, doc):
        names = {
            ev["pid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert names == {RUNTIME_PID: "runtime", DEVICE_PID: "device"}

    def test_stream_threads_named(self, doc, result):
        streams = {iv.stream for iv in result.trace.intervals}
        thread_names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name" and ev["pid"] == DEVICE_PID
        }
        assert thread_names == streams

    def test_span_events_cover_span_tree(self, doc, result):
        span_events = [
            ev for ev in doc["traceEvents"] if ev["ph"] == "X" and ev["pid"] == RUNTIME_PID
        ]
        assert len(span_events) == sum(1 for _ in result.observer.iter_spans())
        cats = {ev["cat"] for ev in span_events}
        assert {"run", "iteration", "phase"} <= cats
        assert "shard" not in cats  # shards are columns of their phase span

    def test_interval_events_cover_device_trace(self, doc, result):
        dev = [
            ev
            for ev in doc["traceEvents"]
            if ev["ph"] == "X" and ev["pid"] == DEVICE_PID
        ]
        assert len(dev) == len(result.trace.intervals)
        total_kernel = sum(ev["dur"] for ev in dev if ev["cat"] == "kernel") / US
        assert total_kernel == pytest.approx(result.kernel_time, rel=1e-9)

    def test_memcpy_matches_report_within_1pct(self, doc, result):
        """The ISSUE acceptance criterion (exact equality in practice)."""
        report = build_report(result)
        trace_memcpy = memcpy_duration_us(doc) / US
        assert trace_memcpy == pytest.approx(report.memcpy_time, rel=0.01)
        assert trace_memcpy == pytest.approx(report.memcpy_time, rel=1e-9)

    def test_timestamps_in_microseconds(self, doc, result):
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert max(ev["ts"] + ev["dur"] for ev in xs) == pytest.approx(
            result.sim_time * US
        )

    def test_json_serializable(self, doc):
        parsed = json.loads(json.dumps(doc))
        assert parsed["displayTimeUnit"] == "ms"

    def test_write_chrome_trace(self, result, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", result=result)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_sources_optional(self):
        obs = Observer()
        with obs.span("x"):
            pass
        only_spans = to_chrome_trace(observer=obs)
        assert any(
            ev["ph"] == "X" and ev["pid"] == RUNTIME_PID
            for ev in only_spans["traceEvents"]
        )
        empty = to_chrome_trace()
        assert all(ev["ph"] == "M" for ev in empty["traceEvents"])
        assert memcpy_duration_us(empty) == 0.0


class TestObserverJson:
    def test_round_trip_with_numpy_attrs(self):
        obs = Observer()
        with obs.span("root", count=np.int64(3), frac=np.float32(0.5)) as root:
            with obs.span("child"):
                pass
            root.set(flag=np.bool_(True))
        obs.add("c", np.int64(7))
        doc = observer_to_json(obs)
        parsed = json.loads(json.dumps(doc))
        (r,) = parsed["spans"]
        assert r["name"] == "root"
        assert r["attrs"] == {"count": 3, "frac": 0.5, "flag": True}
        assert [c["name"] for c in r["children"]] == ["child"]
        assert parsed["metrics"]["counters"]["c"]["value"] == 7

    def test_full_run_serializes(self, result):
        doc = observer_to_json(result.observer)
        text = json.dumps(doc)
        assert json.loads(text)["metrics"]["counters"]["runtime.iterations"][
            "value"
        ] == result.iterations


def test_unoptimized_trace_also_consistent(tmp_path):
    g = erdos_renyi(500, 3_000, seed=4)
    opts = GraphReduceOptions.unoptimized()
    res = GraphReduce(g, options=opts).run(BFS(source=0))
    doc = result_to_chrome_trace(res)
    report = build_report(res)
    assert memcpy_duration_us(doc) / US == pytest.approx(report.memcpy_time, rel=0.01)
