"""The bottleneck-attribution profiler and cost-model validation.

Covers the ISSUE acceptance criteria directly: per-engine busy time
reconciles with the Chrome trace export within 1%, the Eq. (1)/(2) +
per-op model validation passes under tolerance on the standard bench
suite, and ``diff_documents`` flags a deliberately degraded snapshot.
"""

import json

import pytest

from repro.algorithms import PageRank
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.obs import bench
from repro.obs.attribution import (
    ModelCheck,
    diagnose,
    predict_concurrent_shards,
    validate_cost_model,
)
from repro.obs.export import DEVICE_PID, US, result_to_chrome_trace
from repro.obs.profile import (
    build_profile,
    clip_intervals,
    intersect_intervals,
    merge_intervals,
    total_length,
    write_profile,
)
from repro.graph.generators import rmat


#: Streaming run with real compute-transfer overlap: forcing 8
#: partitions keeps Eq. (2) from collapsing to K=1 on a small graph.
STREAM_OPTS = GraphReduceOptions(cache_policy="never", num_partitions=8)


@pytest.fixture(scope="module")
def graph():
    return rmat(12, 40_000, seed=7)


@pytest.fixture(scope="module")
def result(graph):
    return GraphReduce(graph, options=STREAM_OPTS).run(PageRank(tolerance=1e-3))


@pytest.fixture(scope="module")
def report(result):
    return build_profile(result)


@pytest.fixture(scope="module")
def unopt_result(graph):
    opts = GraphReduceOptions.unoptimized().replace(num_partitions=8)
    return GraphReduce(graph, options=opts).run(PageRank(tolerance=1e-3))


class TestIntervalAlgebra:
    def test_merge_overlapping_and_adjacent(self):
        assert merge_intervals([(3, 4), (0, 1), (1, 2), (3.5, 5)]) == [(0, 2), (3, 5)]

    def test_merge_empty(self):
        assert merge_intervals([]) == []

    def test_intersect(self):
        a = [(0, 2), (3, 5)]
        b = [(1, 4), (4.5, 10)]
        assert intersect_intervals(a, b) == [(1, 2), (3, 4), (4.5, 5)]

    def test_intersect_disjoint(self):
        assert intersect_intervals([(0, 1)], [(2, 3)]) == []

    def test_total_length(self):
        assert total_length([(0, 2), (3, 5)]) == pytest.approx(4.0)

    def test_clip(self):
        assert clip_intervals([(0, 2), (3, 5)], 1, 4) == [(1, 2), (3, 4)]
        assert clip_intervals([(0, 2)], 5, 6) == []


class TestEngineReconciliation:
    """Acceptance criterion: profiler busy time == trace busy time (<1%)."""

    @pytest.mark.parametrize(
        "engine, categories",
        [("h2d", ("h2d",)), ("d2h", ("d2h",)), ("sm", ("kernel",))],
    )
    def test_engine_busy_matches_trace_service_windows(
        self, report, result, engine, categories
    ):
        trace_busy = result.trace.service_busy_span(*categories)
        assert trace_busy > 0
        busy = report.engines[engine].busy_seconds
        assert busy == pytest.approx(trace_busy, rel=0.01)
        # In practice the agreement is exact: the engine timeline and
        # the trace intervals record the same service windows.
        assert busy == pytest.approx(trace_busy, rel=1e-9)

    def test_copy_engine_busy_matches_raw_interval_sums(self, report, result):
        # Copy engines are FIFO at full bandwidth, so the union of their
        # busy windows equals the plain sum of interval durations too.
        assert report.engines["h2d"].busy_seconds == pytest.approx(
            result.trace.total_duration("h2d"), rel=1e-9
        )
        assert report.engines["d2h"].busy_seconds == pytest.approx(
            result.trace.total_duration("d2h"), rel=1e-9
        )

    def test_reconciles_with_chrome_export(self, report, result):
        """Recompute per-engine busy time from the exported document alone."""
        doc = result_to_chrome_trace(result)
        windows = {"h2d": [], "d2h": [], "sm": []}
        for ev in doc["traceEvents"]:
            if ev["ph"] != "X" or ev["pid"] != DEVICE_PID:
                continue
            end = ev["ts"] + ev["dur"]
            if ev["cat"] in ("h2d", "d2h"):
                windows[ev["cat"]].append((ev["ts"], end))
            elif ev["cat"] == "kernel":
                windows["sm"].append((ev["args"].get("service_ts", ev["ts"]), end))
        for name, pairs in windows.items():
            from_doc = total_length(merge_intervals(pairs)) / US
            assert from_doc == pytest.approx(
                report.engines[name].busy_seconds, rel=0.01
            ), name

    def test_served_work_matches_stats(self, report, result):
        assert report.engines["h2d"].served_work == pytest.approx(
            result.stats.h2d_bytes, rel=1e-9
        )
        assert report.engines["d2h"].served_work == pytest.approx(
            result.stats.d2h_bytes, rel=1e-9
        )

    def test_occupancy_bounded(self, report):
        for name, eng in report.engines.items():
            assert 0.0 <= eng.occupancy <= 1.0, name
            assert eng.utilization_seconds <= eng.busy_seconds * 1.000001, name
            for (s0, e0), (s1, e1) in zip(eng.busy_intervals, eng.busy_intervals[1:]):
                assert s0 <= e0 <= s1 <= e1  # disjoint and sorted


class TestOverlap:
    def test_async_run_hides_transfer(self, report):
        # K=8 staging on a streamed graph overlaps copy with compute.
        assert report.overlap.efficiency > 0.2
        assert report.overlap.hidden_transfer <= min(
            report.overlap.transfer_busy, report.overlap.kernel_busy
        )

    def test_unoptimized_run_has_zero_overlap(self, unopt_result):
        rep = build_profile(unopt_result)
        assert rep.overlap.efficiency == 0.0
        assert all(it.overlap_efficiency == 0.0 for it in rep.per_iteration)

    def test_per_iteration_partitions_overall(self, report):
        # Iteration spans are disjoint, so per-iteration hidden transfer
        # can never exceed the run-wide total.
        assert len(report.per_iteration) == report.iterations
        hidden = sum(it.hidden_transfer for it in report.per_iteration)
        assert hidden <= report.overlap.hidden_transfer * 1.000001
        for it in report.per_iteration:
            assert it.start <= it.end
            assert 0.0 <= it.overlap_efficiency <= 1.0

    def test_device_busy_bounded_by_makespan(self, report, result):
        assert report.overlap.device_busy <= result.sim_time * 1.000001


class TestFrontierSkip:
    def test_counts_match_stats(self, report, result):
        assert report.frontier.shards_processed == result.stats.shards_processed
        assert report.frontier.shards_skipped == result.stats.shards_skipped
        assert 0.0 <= report.frontier.skip_rate <= 1.0

    def test_bytes_saved_scales_with_skips(self, report):
        if report.frontier.shards_skipped == 0:
            assert report.frontier.est_bytes_saved == 0.0
        else:
            assert report.frontier.est_bytes_saved > 0.0


class TestModelValidation:
    def test_stream_run_validates_exactly(self, report):
        assert report.validation_ok
        names = {c.name for c in report.validation}
        assert {
            "eq2_concurrent_shards",
            "pcie_h2d_seconds",
            "pcie_d2h_seconds",
            "transfer_volume_bytes",
            "kernel_work_seconds",
        } <= names
        for check in report.validation:
            assert check.rel_error <= check.tolerance, check.name

    def test_bench_suite_under_tolerance(self, bench_suite_runs):
        """Predicted-vs-observed error under tolerance on every row of
        the standard bench suite."""
        for name, result in bench_suite_runs.items():
            checks = validate_cost_model(result)
            assert checks, name
            for check in checks:
                assert check.ok, f"{name}: {check.name} err {check.rel_error:.4f}"

    def test_eq2_replay_matches_engine(self, result):
        (cache_span,) = result.observer.find(category="phase", name="cache")
        assert predict_concurrent_shards(cache_span.attrs) == result.concurrent_shards

    def test_eq2_replay_sync_run_is_one(self, unopt_result):
        (cache_span,) = unopt_result.observer.find(category="phase", name="cache")
        assert predict_concurrent_shards(cache_span.attrs) == 1

    def test_eq2_replay_in_memory_is_none(self):
        assert predict_concurrent_shards({"in_memory": True}) is None
        assert predict_concurrent_shards({}) is None  # pre-profiler span

    def test_validation_requires_observability(self, graph):
        opts = STREAM_OPTS.replace(trace=False)
        res = GraphReduce(graph, options=opts).run(PageRank(tolerance=1e-3))
        with pytest.raises(ValueError):
            validate_cost_model(res)
        with pytest.raises(ValueError):
            build_profile(res)

    def test_model_check_math(self):
        ok = ModelCheck("x", predicted=1.0, observed=1.01, tolerance=0.02)
        bad = ModelCheck("x", predicted=1.0, observed=2.0, tolerance=0.02)
        zero = ModelCheck("x", predicted=0.0, observed=0.0, tolerance=0.0)
        assert ok.ok and not bad.ok and zero.ok
        assert bad.rel_error == pytest.approx(0.5)


class TestVerdict:
    def test_streamed_run_is_transfer_bound(self, graph):
        opts = STREAM_OPTS.replace(spray=False)
        res = GraphReduce(graph, options=opts).run(PageRank(tolerance=1e-3))
        rep = build_profile(res)
        assert rep.verdict.bottleneck == "transfer-bound"
        assert "spray" in rep.verdict.recommendation
        assert rep.verdict.estimated_speedup >= 1.0

    def test_in_memory_run_is_compute_bound(self, graph):
        res = GraphReduce(graph).run(PageRank(tolerance=1e-3))  # auto -> resident
        rep = build_profile(res)
        assert rep.verdict.bottleneck == "compute-bound"

    def test_diagnose_recommends_raising_k(self):
        v = diagnose(
            makespan=1.0,
            transfer_busy=0.8,
            kernel_busy=0.1,
            hidden_transfer=0.05,
            device_busy=0.85,
            skip_rate=0.0,
            kernel_launches=10,
            copies=20,
            concurrent_shards=2,
            eq2_optimum=8,
            spray_batches=5,
            sm_occupancy=0.1,
        )
        assert v.bottleneck == "transfer-bound"
        assert "raise K from 2" in v.recommendation
        assert "8" in v.recommendation

    def test_diagnose_skip_dominated(self):
        v = diagnose(
            makespan=1.0,
            transfer_busy=0.05,
            kernel_busy=0.05,
            hidden_transfer=0.0,
            device_busy=0.1,
            skip_rate=0.9,
            kernel_launches=100,
            copies=100,
            concurrent_shards=4,
            eq2_optimum=4,
            spray_batches=0,
            sm_occupancy=0.05,
        )
        assert v.bottleneck == "skip-dominated"
        assert "AdaptiveEngine" in v.recommendation


class TestProfileDocument:
    def test_json_round_trip(self, report):
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["profile_version"] == 1
        assert doc["algo"] == "pagerank"
        assert set(doc["engines"]) >= {"h2d", "d2h", "sm"}
        assert doc["overlap"]["efficiency"] == pytest.approx(report.overlap.efficiency)
        assert len(doc["per_iteration"]) == report.iterations
        assert all(c["ok"] for c in doc["model_validation"])

    def test_write_profile(self, report, tmp_path):
        path = write_profile(tmp_path / "profile.json", report)
        doc = json.loads(path.read_text())
        assert doc["profile_version"] == 1

    def test_to_text_renders(self, report, result):
        text = report.to_text()
        assert "bottleneck" in text
        assert "model validation" in text
        assert "[ok ]" in text and "FAIL" not in text
        # the kernels line carries the two iteration-scoped decisions
        k = result.kernels
        assert 0 < k["premaps"] <= result.iterations
        assert f"{k['premaps']} premaps, {k['merged_groups']} merged groups" in text

    def test_metric_table_accepts_profile_doc(self, report):
        table = bench.metric_table(report.to_dict())
        ((case, row),) = table.items()
        assert case == "pagerank/rmat"
        assert "sim_time" in row and "overlap_efficiency" in row
        assert any(k.startswith("phase:") for k in row)
        assert any(k.startswith("counter:") for k in row)
