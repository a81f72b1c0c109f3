"""Smoke test of the benchmark itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared(section):
    return {m["name"]: m for m in SPEC[section]}


def test_declaration_is_well_formed():
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[section]:
            assert NAME.fullmatch(entry["name"]), entry
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_exactly_the_declared_metrics(workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(section)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == section[name]["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrappers_are_fully_uninstalled():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from layers import WRAPPED, Tracer

    def attributes():
        return [cls.__dict__[name] for cls, names, _ in WRAPPED for name in names]

    before = attributes()
    with pytest.raises(RuntimeError), Tracer().installed():
        assert all(a is not b for a, b in zip(attributes(), before))
        raise RuntimeError("the body failing must not leave wrappers behind")
    after = attributes()
    assert all(a is b for a, b in zip(after, before))
