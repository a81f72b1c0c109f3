"""Gate semantics of ``repro bench-wallclock``.

The wall-clock suite itself is timing-dependent, so these tests drive
the gating logic -- speedup floors, direction-variant ratios, and the
CLI's exit codes -- on synthetic measurements.
"""

import argparse

import pytest

from repro import cli
from repro.obs import bench


def _measurement(
    speedup=2.0,
    min_speedup=1.0,
    variants=None,
    min_variant_ratio=0.0,
):
    m = {
        "sim_time": 1.0,
        "memcpy_time": 0.1,
        "kernel_time": 0.5,
        "iterations": 10,
        "phases": {"gather": 0.5},
        "wall_seconds_fast": 0.1,
        "wall_seconds_slow": 0.1 * speedup,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "plan_cache": {"hit_rate": 0.5},
    }
    for name, ratio in (variants or {}).items():
        m[f"wall_seconds_{name}"] = 0.1 * ratio
        m[f"speedup_vs_{name}"] = ratio
    if variants:
        m["min_variant_ratio"] = min_variant_ratio
    return m


class TestFloorFailures:
    def test_passes_above_floor(self):
        fresh = {"case": _measurement(speedup=1.5, min_speedup=1.0)}
        assert bench.floor_failures(fresh) == []

    def test_fails_below_floor(self):
        fresh = {"case": _measurement(speedup=0.8, min_speedup=1.0)}
        assert bench.floor_failures(fresh) == [("case", 0.8, 1.0)]

    def test_zero_floor_never_fails(self):
        # Floors of 0 mark ungated cases.
        fresh = {"case": _measurement(speedup=0.2, min_speedup=0.0)}
        assert bench.floor_failures(fresh) == []

    def test_variant_ratio_below_floor(self):
        fresh = {
            "road": _measurement(
                speedup=1.6,
                min_speedup=1.3,
                variants={"push": 1.01, "pull": 1.4},
                min_variant_ratio=1.05,
            )
        }
        assert bench.floor_failures(fresh) == [("road[vs_push]", 1.01, 1.05)]

    def test_variant_ratios_above_floor(self):
        fresh = {
            "road": _measurement(
                speedup=1.6,
                min_speedup=1.3,
                variants={"push": 1.2, "pull": 1.3},
                min_variant_ratio=1.05,
            )
        }
        assert bench.floor_failures(fresh) == []

    def test_both_floor_kinds_reported(self):
        fresh = {
            "road": _measurement(
                speedup=1.0,
                min_speedup=1.3,
                variants={"pull": 0.9},
                min_variant_ratio=1.05,
            )
        }
        assert bench.floor_failures(fresh) == [
            ("road", 1.0, 1.3),
            ("road[vs_pull]", 0.9, 1.05),
        ]


class TestCheckWallclock:
    def test_combines_regressions_and_floors(self):
        base = {"case": _measurement()}
        fresh = {"case": dict(_measurement(speedup=0.5), sim_time=2.0)}
        regressions, failures = bench.check_wallclock(base, fresh, tolerance=0.1)
        assert [(r.benchmark, r.metric) for r in regressions] == [("case", "sim_time")]
        assert failures == [("case", 0.5, 1.0)]

    def test_wall_seconds_never_regress_across_machines(self):
        base = {"case": _measurement()}
        fresh = {"case": dict(_measurement(), wall_seconds_fast=99.0)}
        regressions, failures = bench.check_wallclock(base, fresh)
        assert regressions == [] and failures == []


def _args(tmp_path, **overrides):
    ns = argparse.Namespace(
        repeats=1,
        warmup=0,
        out=None,
        update=False,
        snapshot=str(tmp_path / "BENCH_wallclock.json"),
        tolerance=None,
    )
    for key, val in overrides.items():
        setattr(ns, key, val)
    return ns


@pytest.fixture
def fake_suite(monkeypatch):
    """Replace the timing suite with a canned measurement dict."""

    def install(fresh):
        monkeypatch.setattr(bench, "run_wallclock_suite", lambda **kw: fresh)

    return install


class TestCliGate:
    def test_update_ok_writes_snapshot(self, tmp_path, fake_suite, capsys):
        fake_suite({"case": _measurement(speedup=1.5)})
        args = _args(tmp_path, update=True)
        assert cli.cmd_bench_wallclock(args) == 0
        assert (tmp_path / "BENCH_wallclock.json").exists()

    def test_update_fails_below_floor(self, tmp_path, fake_suite, capsys):
        fake_suite({"case": _measurement(speedup=0.7, min_speedup=1.0)})
        assert cli.cmd_bench_wallclock(_args(tmp_path, update=True)) == 1
        assert "below the" in capsys.readouterr().err

    def test_check_fails_below_floor(self, tmp_path, fake_suite, capsys):
        good = {"case": _measurement(speedup=1.5)}
        bench.save_snapshot(tmp_path / "BENCH_wallclock.json", good)
        fake_suite({"case": _measurement(speedup=0.7, min_speedup=1.0)})
        assert cli.cmd_bench_wallclock(_args(tmp_path)) == 1
        assert "below the" in capsys.readouterr().err

    def test_check_fails_variant_ratio(self, tmp_path, fake_suite, capsys):
        good = {
            "road": _measurement(
                variants={"push": 1.2, "pull": 1.3}, min_variant_ratio=1.05
            )
        }
        bench.save_snapshot(tmp_path / "BENCH_wallclock.json", good)
        fake_suite(
            {
                "road": _measurement(
                    variants={"push": 0.95, "pull": 1.3}, min_variant_ratio=1.05
                )
            }
        )
        assert cli.cmd_bench_wallclock(_args(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "road[vs_push]" in err

    def test_check_ok(self, tmp_path, fake_suite, capsys):
        good = {
            "road": _measurement(
                variants={"push": 1.2, "pull": 1.3}, min_variant_ratio=1.05
            )
        }
        bench.save_snapshot(tmp_path / "BENCH_wallclock.json", good)
        fake_suite(good)
        assert cli.cmd_bench_wallclock(_args(tmp_path)) == 0
        assert "ok:" in capsys.readouterr().out

    def test_missing_snapshot_is_an_error(self, tmp_path, fake_suite, capsys):
        fake_suite({"case": _measurement()})
        assert cli.cmd_bench_wallclock(_args(tmp_path)) == 2
