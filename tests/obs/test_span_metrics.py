"""Span recorder, metrics registry, and runtime integration."""

import gc
import math

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.graph.generators import erdos_renyi, rmat
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.span import NULL_OBSERVER, NoopObserver, Observer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestObserver:
    def test_nesting_by_dynamic_scope(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        with obs.span("outer") as outer:
            clock.now = 1.0
            with obs.span("inner", category="phase", shards=3) as inner:
                clock.now = 2.5
        assert obs.roots == [outer]
        assert outer.children == [inner]
        assert inner.start == 1.0 and inner.end == 2.5
        assert inner.duration == 1.5
        assert outer.duration == 2.5
        assert inner.attrs["shards"] == 3

    def test_set_updates_attrs(self):
        obs = Observer()
        with obs.span("s") as sp:
            sp.set(bytes=10).set(bytes=20, extra=1)
        assert sp.attrs == {"bytes": 20, "extra": 1}

    def test_event_is_zero_duration_child(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        with obs.span("outer") as outer:
            clock.now = 3.0
            ev = obs.event("tick", category="fusion", mode="bsp")
        assert ev in outer.children
        assert ev.start == ev.end == 3.0
        assert ev.attrs["mode"] == "bsp"

    def test_find_filters_category_and_name(self):
        obs = Observer()
        with obs.span("a", category="iteration"):
            with obs.span("b", category="phase"):
                pass
            with obs.span("c", category="phase"):
                pass
        assert [s.name for s in obs.find(category="phase")] == ["b", "c"]
        assert [s.name for s in obs.find(name="a")] == ["a"]

    def test_exception_unwinding_closes_spans(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                clock.now = 1.0
                with obs.span("inner"):
                    raise RuntimeError("boom")
        (outer,) = obs.roots
        assert outer.end == 1.0
        assert outer.children[0].end == 1.0
        assert obs.current is None

    def test_metrics_pass_through(self):
        obs = Observer()
        obs.add("bytes", 100)
        obs.add("bytes", 50)
        obs.observe("size", 7)
        assert obs.metrics.value("bytes") == 150
        assert obs.metrics.histogram("size").count == 1


class TestNoop:
    def test_shared_singleton_records_nothing(self):
        with NULL_OBSERVER.span("x", category="iteration", index=1) as sp:
            sp.set(bytes=10)
        NULL_OBSERVER.add("c", 5)
        NULL_OBSERVER.observe("h", 5)
        NULL_OBSERVER.event("e")
        assert list(NULL_OBSERVER.iter_spans()) == []
        assert NULL_OBSERVER.metrics.counters == {}
        assert NULL_OBSERVER.metrics.histograms == {}
        assert not NULL_OBSERVER.enabled

    def test_span_context_is_reused(self):
        a = NoopObserver()
        assert a.span("x") is a.span("y")


class TestMetrics:
    def test_histogram_summary(self):
        h = Histogram("h")
        for v in (1, 2, 3, 1000):
            h.observe(v)
        assert h.count == 4
        assert h.min == 1 and h.max == 1000
        assert h.mean == pytest.approx(1006 / 4)
        d = h.to_dict()
        assert d["count"] == 4
        # log2 buckets: 1 -> bucket 0, 2 -> 1, 3 -> 2, 1000 -> 10
        assert d["buckets"] == {"0": 1, "1": 1, "2": 1, "10": 1}

    def test_empty_histogram(self):
        import json

        d = Histogram("h").to_dict()
        assert d == {"count": 0, "min": None, "max": None}
        # +/-inf never leaks into the JSON document.
        assert json.loads(json.dumps(d)) == d
        rt = Histogram.from_dict("h", json.loads(json.dumps(d)))
        assert rt.count == 0 and rt.min == float("inf") and rt.max == float("-inf")

    def test_histogram_merge_matches_combined_stream(self):
        a, b, both = Histogram("h"), Histogram("h"), Histogram("h")
        for v in (1, 5, 9):
            a.observe(v)
            both.observe(v)
        for v in (2, 300):
            b.observe(v)
            both.observe(v)
        a.merge(b)
        assert a.to_dict() == both.to_dict()
        # Merging an empty histogram is a no-op either way around.
        assert Histogram("h").merge(a).to_dict() == both.to_dict()
        assert a.merge(Histogram("h")).to_dict() == both.to_dict()

    def test_histogram_json_round_trip(self):
        import json

        h = Histogram("h")
        for v in (1, 2, 3, 1000):
            h.observe(v)
        rt = Histogram.from_dict("h", json.loads(json.dumps(h.to_dict())))
        assert rt.to_dict() == h.to_dict()

    def test_quantiles_track_the_distribution(self):
        h = Histogram("h")
        for v in range(1, 1001):
            h.observe(v)
        p = h.percentiles()
        assert set(p) == {"p50", "p90", "p99"}
        # Log2 buckets bound the error by the bucket width (2x).
        assert 250 <= p["p50"] <= 1000
        assert p["p50"] <= p["p90"] <= p["p99"] <= 1000
        assert h.quantile(0.0) == 1
        assert h.quantile(1.0) == 1000

    def test_quantiles_of_a_single_value(self):
        h = Histogram("h")
        h.observe(42)
        assert h.percentiles() == {"p50": 42, "p90": 42, "p99": 42}

    def test_quantiles_empty_and_merge_exact(self):
        import json

        assert Histogram("h").percentiles() == {}
        a, b, both = Histogram("h"), Histogram("h"), Histogram("h")
        for v in (1, 5, 9, 300):
            a.observe(v)
            both.observe(v)
        for v in (2, 70):
            b.observe(v)
            both.observe(v)
        a.merge(b)
        assert a.percentiles() == both.percentiles()
        # Derived from buckets/min/max only: survives the JSON trip.
        rt = Histogram.from_dict("h", json.loads(json.dumps(both.to_dict())))
        assert rt.percentiles() == both.percentiles()

    def test_to_dict_carries_percentiles_only_when_observed(self):
        h = Histogram("h")
        assert "percentiles" not in h.to_dict()
        h.observe(3)
        assert h.to_dict()["percentiles"] == {"p50": 3, "p90": 3, "p99": 3}

    def test_snapshot_is_schema_versioned_and_sorted(self):
        from repro.obs.metrics import METRICS_SCHEMA_VERSION

        m = MetricsRegistry()
        m.add("zeta")
        m.add("alpha")
        m.observe("mid", 4)
        snap = m.snapshot()
        assert snap["schema"] == METRICS_SCHEMA_VERSION
        assert list(snap["counters"]) == ["alpha", "zeta"]
        # A pre-schema document is accepted; a future one is refused.
        legacy = {k: v for k, v in snap.items() if k != "schema"}
        assert MetricsRegistry.from_snapshot(legacy).snapshot() == snap
        with pytest.raises(ValueError, match="schema mismatch"):
            MetricsRegistry.from_snapshot({**snap, "schema": 99})

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.add("bytes", 100)
        a.observe("size", 4)
        b.add("bytes", 50)
        b.add("copies", 2)
        b.observe("size", 9)
        b.observe("other", 1)
        a.merge(b)
        assert a.value("bytes") == 150
        assert a.value("copies") == 2
        assert a.histogram("size").count == 2
        assert a.histogram("size").max == 9
        assert a.histogram("other").count == 1

    def test_registry_snapshot_round_trip(self):
        import json

        m = MetricsRegistry()
        m.add("a", 3)
        m.observe("b", 7)
        m.histogram("empty")  # never observed
        rt = MetricsRegistry.from_snapshot(json.loads(json.dumps(m.snapshot())))
        assert rt.snapshot() == m.snapshot()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_histogram_refuses_non_finite_values_unchanged(self, value):
        h = Histogram("h")
        h.observe(3.0)
        before = h.to_dict()
        with pytest.raises(ValueError, match="non-finite"):
            h.observe(value)
        assert h.to_dict() == before

    def test_histogram_after_nan_inf_and_minus_inf(self):
        h = Histogram("h")
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                h.observe(value)
        assert (h.count, h.total, h.buckets) == (0, 0.0, {})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_counter_refuses_non_finite_values_unchanged(self, value):
        c = Counter("c")
        c.add(2)
        with pytest.raises(ValueError, match="non-finite"):
            c.add(value)
        assert c.value == 2.0
        obs = Observer()
        obs.add("c", 2)
        with pytest.raises(ValueError):
            obs.add("c", value)
        assert obs.metrics.value("c") == 2.0

    def test_registry_creates_on_first_use(self):
        m = MetricsRegistry()
        m.add("a", 2)
        m.add("a")
        m.observe("b", 5)
        snap = m.snapshot()
        assert snap["counters"]["a"]["value"] == 3
        assert snap["histograms"]["b"]["count"] == 1
        assert m.value("missing", default=-1) == -1


class TestRuntimeIntegration:
    @pytest.fixture(scope="class")
    def result(self):
        g = rmat(10, 8_000, seed=3)
        return GraphReduce(g, options=GraphReduceOptions(cache_policy="never")).run(
            PageRank(tolerance=1e-3)
        )

    def test_run_span_covers_sim_time(self, result):
        (run,) = result.observer.roots
        assert run.category == "run"
        assert run.end == pytest.approx(result.sim_time)
        assert run.attrs["iterations"] == result.iterations

    def test_one_span_per_iteration(self, result):
        iters = list(result.observer.find(category="iteration"))
        assert len(iters) == result.iterations
        assert [s.attrs["index"] for s in iters] == list(range(result.iterations))
        # Frontier sizes recorded on the spans match the history.
        assert [s.attrs["frontier"] for s in iters] == result.frontier_history[
            : result.iterations
        ]

    def test_phase_spans_nest_in_iterations(self, result):
        for it in result.observer.find(category="iteration"):
            names = [c.name for c in it.children if c.category == "phase"]
            assert names[-1] == "frontier"
            assert "gather_map" in names

    def test_phase_records_cover_processed_shards(self, result):
        assert not list(result.observer.find(category="shard"))
        phases = list(result.observer.find(category="phase"))
        processed = sum(len(sp.attrs.get("shard_ids", ())) for sp in phases)
        assert processed == result.stats.shards_processed
        for sp in phases:
            if "shard_ids" in sp.attrs:
                columns = [sp.attrs[c] for c in ("shard_ids", "streams", "resident", "items")]
                assert all(type(c) is tuple for c in columns)
                assert len({len(c) for c in columns}) == 1
                assert len(sp.attrs["shard_ids"]) == sp.attrs["shards"]

    def test_stored_trace_rows_are_untracked(self, result):
        gc.collect()
        rows = [row for _, block in result.trace._phases() for row in block]
        assert rows
        assert all(type(row) is tuple and not gc.is_tracked(row) for row in rows)

    def test_engine_snapshots_built_on_read_equal_eager(self):
        g = rmat(9, 4_000, seed=4)
        options = GraphReduceOptions(cache_policy="never", host_backing="ssd")
        eager = GraphReduce(g, options=options).run(PageRank(tolerance=1e-3))
        eager_snapshots = eager.engine_snapshots
        engine = GraphReduce(g, options=options)
        lazy = engine.run(PageRank(tolerance=1e-3))
        assert callable(lazy._engine_snapshots)
        engine.run(BFS(source=0))  # the engine moves on before the read
        assert set(eager_snapshots) == {"h2d", "d2h", "sm", "ssd"}
        assert lazy.engine_snapshots == eager_snapshots
        assert lazy.engine_snapshots is lazy.engine_snapshots
        bare = GraphReduce(g, options=options.replace(trace=False)).run(BFS(source=0))
        assert bare.engine_snapshots is None

    def test_counters_match_movement_stats(self, result):
        m = result.observer.metrics
        assert m.value("movement.h2d.bytes") == result.stats.h2d_bytes
        assert m.value("movement.d2h.bytes") == result.stats.d2h_bytes
        assert m.value("movement.kernel.launches") == result.stats.kernel_launches
        assert m.value("movement.shards.processed") == result.stats.shards_processed
        assert m.value("movement.shards.skipped") == result.stats.shards_skipped
        assert m.value("runtime.iterations") == result.iterations

    def test_frontier_histogram(self, result):
        h = result.observer.metrics.histogram("frontier.size")
        # advance() runs once per completed iteration
        assert h.count == result.iterations

    def test_fusion_plan_event(self, result):
        (ev,) = result.observer.find(category="fusion")
        assert ev.attrs["mode"] == "bsp"
        assert "gather_map" in ev.attrs["groups"]
        assert result.observer.metrics.value("fusion.groups") == len(ev.attrs["groups"])

    def test_observe_off_returns_none_and_same_answers(self):
        g = erdos_renyi(300, 1_500, seed=5)
        on = GraphReduce(g).run(BFS(source=0))
        off = GraphReduce(g, options=GraphReduceOptions(observe=False)).run(BFS(source=0))
        assert off.observer is None
        assert np.array_equal(on.vertex_values, off.vertex_values)
        assert on.sim_time == pytest.approx(off.sim_time)


class TestAdaptiveIntegration:
    def test_scheduler_spans_and_counters(self):
        from repro.core.scheduler import AdaptiveEngine

        g = erdos_renyi(400, 2_000, seed=9)
        r = AdaptiveEngine(g).run(BFS(source=0))
        assert r.observer is not None
        (run,) = r.observer.roots
        assert run.attrs["iterations"] == r.iterations
        iters = list(r.observer.find(category="iteration"))
        assert [s.attrs["placement"] for s in iters] == r.placement
        m = r.observer.metrics
        assert m.value("adaptive.gpu_iterations") == r.placement.count("gpu")
        assert m.value("adaptive.cpu_iterations") == r.placement.count("cpu")
        assert m.value("adaptive.switches") == r.switches
        assert run.end == pytest.approx(r.sim_time)

    def test_scheduler_observe_off(self):
        from repro.core.scheduler import AdaptiveEngine

        g = erdos_renyi(100, 400, seed=2)
        r = AdaptiveEngine(g, observe=False).run(BFS(source=0))
        assert r.observer is None
