"""Snapshot compare logic and the committed baseline's honesty."""

import json
from pathlib import Path

import pytest

from repro.obs import bench
from repro.obs.bench import (
    Regression,
    compare,
    load_snapshot,
    run_suite,
    save_snapshot,
)

REPO = Path(__file__).resolve().parents[2]
SNAPSHOT = REPO / "benchmarks" / "BENCH_baseline.json"


def meas(sim=1.0, phases=None):
    return {
        "sim_time": sim,
        "memcpy_time": sim / 2,
        "kernel_time": sim / 4,
        "iterations": 10,
        "phases": dict(phases or {"gather_map": sim / 3}),
    }


class TestCompare:
    def test_identical_is_clean(self):
        base = {"a": meas(), "b": meas(2.0)}
        assert compare(base, base) == []

    def test_2x_regression_detected(self):
        base = {"a": meas(1.0)}
        fresh = {"a": meas(2.0)}
        regs = compare(base, fresh)
        assert regs
        metrics = {r.metric for r in regs}
        assert "sim_time" in metrics and "phase:gather_map" in metrics
        r = next(r for r in regs if r.metric == "sim_time")
        assert r.ratio == pytest.approx(2.0)
        assert "2.00x" in str(r)

    def test_tolerance_respected(self):
        base = {"a": meas(1.0)}
        within = {"a": meas(1.09)}
        beyond = {"a": meas(1.11)}
        assert compare(base, within, tolerance=0.10) == []
        assert compare(base, beyond, tolerance=0.10)
        assert compare(base, beyond, tolerance=0.20) == []

    def test_speedup_is_not_a_regression(self):
        assert compare({"a": meas(1.0)}, {"a": meas(0.1)}) == []

    def test_noise_floor_ignores_tiny_baselines(self):
        base = {"a": meas(1e-9)}
        fresh = {"a": meas(1e-6)}
        assert compare(base, fresh) == []
        assert compare(base, fresh, min_seconds=0.0)

    def test_benchmark_only_on_one_side_skipped(self):
        assert compare({"a": meas()}, {"b": meas(9.0)}) == []
        assert compare({"a": meas()}, {"a": meas(), "b": meas(9.0)}) == []

    def test_phase_missing_from_fresh_skipped(self):
        base = {"a": meas(1.0, phases={"gone": 0.5})}
        fresh = {"a": meas(1.0, phases={"new": 0.5})}
        assert [r.metric for r in compare(base, fresh)] == []


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(path, {"a": meas()}, tolerance=0.25)
        doc = load_snapshot(path)
        assert doc["tolerance"] == 0.25
        assert doc["benchmarks"]["a"]["sim_time"] == 1.0

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"version": 99, "benchmarks": {}}))
        with pytest.raises(ValueError, match="version"):
            load_snapshot(path)

    def test_unknown_benchmark_name_raises(self):
        with pytest.raises(KeyError, match="nope"):
            run_suite(names=["nope"])


class TestCommittedBaseline:
    """The committed snapshot must match a fresh run: the simulator is
    deterministic, so any drift means the snapshot is stale."""

    def test_snapshot_exists_and_loads(self):
        doc = load_snapshot(SNAPSHOT)
        assert set(doc["benchmarks"]) == set(bench._suite_cases())

    @pytest.fixture
    def fresh(self, bench_suite_runs):
        return {name: bench.measure(run) for name, run in bench_suite_runs.items()}

    def test_fresh_run_matches_snapshot(self, fresh):
        doc = load_snapshot(SNAPSHOT)
        assert compare(doc["benchmarks"], fresh, tolerance=doc["tolerance"]) == []

    def test_run_suite_reproduces_a_row_exactly(self, fresh):
        assert run_suite(["cc_er"]) == {"cc_er": fresh["cc_er"]}

    def test_injected_regression_fails(self, fresh):
        """Halving baseline timings == doubling fresh ones: exit path."""
        doc = load_snapshot(SNAPSHOT)
        crippled = {
            name: {
                **m,
                "sim_time": m["sim_time"] / 2,
                "phases": {ph: t / 2 for ph, t in m["phases"].items()},
            }
            for name, m in doc["benchmarks"].items()
        }
        regs = compare(crippled, fresh, tolerance=doc["tolerance"])
        assert regs
        assert all(isinstance(r, Regression) for r in regs)


def snap_doc(sim=1.0, name="a"):
    return {"version": 1, "tolerance": 0.10, "benchmarks": {name: meas(sim)}}


class TestDiffDocuments:
    def test_identical_snapshots_clean(self):
        doc = snap_doc()
        rows, regs = bench.diff_documents(doc, doc)
        assert rows and regs == []
        assert all(r.delta == 0 for r in rows)

    def test_degraded_snapshot_flags_regressions(self):
        """ISSUE acceptance: a deliberately degraded snapshot regresses."""
        rows, regs = bench.diff_documents(snap_doc(1.0), snap_doc(1.5))
        metrics = {r.metric for r in regs}
        assert {"sim_time", "memcpy_time", "kernel_time", "phase:gather_map"} <= metrics
        r = next(r for r in regs if r.metric == "sim_time")
        assert r.ratio == pytest.approx(1.5)
        assert "1.50x" in str(r)

    def test_improvement_is_not_a_regression(self):
        rows, regs = bench.diff_documents(snap_doc(1.0), snap_doc(0.5))
        assert any(r.delta != 0 for r in rows)
        assert regs == []

    def test_tolerance_respected(self):
        assert bench.diff_documents(snap_doc(1.0), snap_doc(1.05), tolerance=0.10)[1] == []
        assert bench.diff_documents(snap_doc(1.0), snap_doc(1.05), tolerance=0.01)[1]

    def test_one_sided_cases_skipped(self):
        rows, regs = bench.diff_documents(snap_doc(1.0, name="a"), snap_doc(9.0, name="b"))
        assert rows == [] and regs == []

    def test_counters_never_regress_alone(self):
        a = {"profile_version": 1, "algo": "pr", "graph": "g", "sim_time": 1.0,
             "counters": {"movement.h2d.copies": 10}}
        b = {"profile_version": 1, "algo": "pr", "graph": "g", "sim_time": 1.0,
             "counters": {"movement.h2d.copies": 999}}
        rows, regs = bench.diff_documents(a, b)
        assert any(r.metric == "counter:movement.h2d.copies" for r in rows)
        assert regs == []

    def test_profile_vs_bench_document_mix(self):
        prof = {"profile_version": 1, "algo": "pr", "graph": "g",
                "sim_time": 2.0, "memcpy_time": 1.0}
        bench_doc = {"version": 1, "benchmarks": {"pr/g": {"sim_time": 1.0,
                     "memcpy_time": 1.0, "iterations": 3, "phases": {}}}}
        rows, regs = bench.diff_documents(bench_doc, prof)
        assert any(r.metric == "sim_time" and r.ratio == 2.0 for r in rows)
        assert any(r.metric == "sim_time" for r in regs)

    def test_unrecognized_document_raises(self):
        with pytest.raises(ValueError, match="unrecognized"):
            bench.metric_table({"whatever": 1})
