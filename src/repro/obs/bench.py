"""Phase-timing snapshots and the ``repro bench-check`` regression gate.

The simulator is deterministic: the same graph, program and options
produce bit-identical phase timings on every machine and Python
version. A committed ``BENCH_*.json`` snapshot therefore acts as a
golden performance baseline -- any change that slows a phase by more
than the tolerance is a real modeling/scheduling regression, not noise.

``run_suite`` executes the standard workload set, ``compare`` diffs a
fresh run against the snapshot, and the CLI wires both into ``repro
bench-check`` (non-zero exit on regression) so CI can gate on it.
Host wall-clock is measured elsewhere: ``benchmarks/e2e`` (declared in
``BENCHMARK.json``) times alternating parent/change pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Default relative slowdown that counts as a regression (10%).
DEFAULT_TOLERANCE = 0.10
#: Phases shorter than this (seconds) are ignored: relative comparisons
#: on near-zero timings amplify representation noise into false alarms.
MIN_SECONDS = 1e-7

SNAPSHOT_VERSION = 1

#: Default committed snapshot, relative to a repo checkout.
DEFAULT_SNAPSHOT = Path("benchmarks") / "BENCH_baseline.json"


def _suite_cases() -> dict[str, Callable]:
    """name -> zero-arg callable returning a finished run.

    The first four rows are small streaming runs. The other five run the
    fast paths at scale: 25-round power PageRank and direction-``auto``
    BFS on an Erdos-Renyi graph with 64k vertices and 1M edges, ``auto``
    SSSP on a road grid with a motorway overlay, a bit-packed 16-source
    MS-BFS batch, and a 16-damping PageRank batch streamed from an
    8-shard store under a one-byte budget.

    Imports live inside the function so ``repro.obs`` stays importable
    without pulling the whole runtime in.
    """
    from repro.algorithms import BFS, BFSGather, ConnectedComponents, PageRank, SSSP
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.graph.generators import erdos_renyi, rmat

    def run(edges, program, **options):
        options = GraphReduceOptions(cache_policy="never", **options)
        return GraphReduce(edges, options=options).run(program)

    p4 = dict(num_partitions=4)
    road = dict(num_partitions=1, direction="auto", direction_alpha=2.0, direction_beta=3.0)
    return {
        "pagerank_rmat12": lambda: run(rmat(12, 40_000, seed=7), PageRank(tolerance=1e-3)),
        "bfs_rmat12": lambda: run(rmat(12, 40_000, seed=7), BFS(source=0)),
        "sssp_er": lambda: run(
            erdos_renyi(2_000, 16_000, seed=11).with_random_weights(seed=11), SSSP(source=0)
        ),
        "cc_er": lambda: run(
            erdos_renyi(2_000, 16_000, seed=13).symmetrized(), ConnectedComponents()
        ),
        "pagerank_er64k": lambda: run(_er64k(), PageRank(tolerance=None, max_iterations=25), **p4),
        "bfs_auto_er64k": lambda: run(_er64k(), BFSGather(source=0), **p4, direction="auto"),
        "sssp_auto_road": lambda: run(_road_hwy(), SSSP(source=0), **road),
        "msbfs16_er64k": _msbfs16_er64k,
        "pagerank_batch16_store": _pagerank_batch16_store,
    }


def _er64k():
    from repro.graph.generators import erdos_renyi

    return erdos_renyi(65_536, 1_000_000, seed=7, name="er-64k")


def _road_hwy():
    from repro.graph.generators import grid_road

    return grid_road(
        256, 256, diagonal_fraction=0.15, seed=9, name="road-hwy", highways=98_304
    ).with_random_weights(seed=11)


def _batch_run(report):
    """The batch's one engine run, once every query has retired."""
    (run,) = report.runs
    if run.batch["retired"] != run.batch["queries"]:
        raise AssertionError(
            f"batch left {run.batch['queries'] - run.batch['retired']} queries unretired"
        )
    return run


def _msbfs16_er64k():
    from repro.core.batch import BatchRunner
    from repro.core.runtime import GraphReduce, GraphReduceOptions

    options = GraphReduceOptions(cache_policy="never", num_partitions=4)
    runner = BatchRunner(GraphReduce(_er64k(), options=options), layout="bits")
    return _batch_run(runner.run_bfs([1 + 4099 * k for k in range(16)]))


def _pagerank_batch16_store():
    import shutil
    import tempfile

    from repro.core.batch import BatchRunner
    from repro.core.partition import PartitionEngine
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.core.shardstore import ShardStore

    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    try:
        store = ShardStore.save(PartitionEngine().partition(_er64k(), 8), tmp / "store")
        options = GraphReduceOptions(cache_policy="never", memory_budget=1, host_prefetch=False)
        runner = BatchRunner(GraphReduce(shard_store=store, options=options))
        dampings = [0.80 + 0.01 * k for k in range(16)]
        return _batch_run(runner.run_pagerank(dampings, iterations=12))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(result) -> dict:
    """Phase timings of one finished run, in snapshot form."""
    from repro.core.report import build_report

    report = build_report(result)
    return {
        "sim_time": result.sim_time,
        "memcpy_time": result.memcpy_time,
        "kernel_time": result.kernel_time,
        "iterations": result.iterations,
        "phases": {name: ph.total_time for name, ph in sorted(report.phases.items())},
    }


def run_suite(names: list[str] | None = None) -> dict:
    """Run the standard suite; returns ``{name: measurement}``."""
    cases = _suite_cases()
    unknown = set(names or ()) - set(cases)
    if unknown:
        raise KeyError(f"unknown benchmarks {sorted(unknown)}; have {sorted(cases)}")
    return {name: measure(cases[name]()) for name in names or sorted(cases)}


@dataclass(frozen=True)
class Regression:
    """One metric that got slower than the snapshot allows."""

    benchmark: str
    metric: str
    baseline: float
    fresh: float

    @property
    def ratio(self) -> float:
        return self.fresh / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.benchmark}/{self.metric}: {self.baseline:.6f}s -> "
            f"{self.fresh:.6f}s ({self.ratio:.2f}x)"
        )


def compare(
    baseline: dict,
    fresh: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    min_seconds: float = MIN_SECONDS,
) -> list[Regression]:
    """Regressions of ``fresh`` against the ``baseline`` snapshot.

    Compares ``sim_time``, ``memcpy_time``, ``kernel_time`` and every
    per-phase total; a metric regresses when the fresh value exceeds
    baseline * (1 + tolerance) and the baseline is above the noise
    floor. Benchmarks present on only one side are skipped (adding or
    retiring a benchmark is not a regression).
    """
    regressions = []
    for name, base in baseline.items():
        cur = fresh.get(name)
        if cur is None:
            continue
        pairs = [(m, base.get(m), cur.get(m)) for m in ("sim_time", "memcpy_time", "kernel_time")]
        pairs += [
            (f"phase:{ph}", b, cur.get("phases", {}).get(ph))
            for ph, b in base.get("phases", {}).items()
        ]
        for metric, b, f in pairs:
            if b is None or f is None or b < min_seconds:
                continue
            if f > b * (1.0 + tolerance):
                regressions.append(Regression(name, metric, b, f))
    return regressions


# ----------------------------------------------------------------------
# bench-diff: deltas between two snapshots (bench or profile documents)
# ----------------------------------------------------------------------
#: Metric name prefixes/names where a larger value is a regression.
_HIGHER_IS_WORSE = ("sim_time", "memcpy_time", "kernel_time", "phase:")


@dataclass(frozen=True)
class DiffRow:
    """One metric's before/after across two snapshots."""

    benchmark: str
    metric: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def ratio(self) -> float:
        if self.before == 0:
            return float("inf") if self.after else 1.0
        return self.after / self.before

    @property
    def comparable(self) -> bool:
        """Whether growth in this metric counts as a regression."""
        return self.metric in _HIGHER_IS_WORSE or self.metric.startswith("phase:")

    def regressed(self, tolerance: float, min_seconds: float = MIN_SECONDS) -> bool:
        if not self.comparable or self.before < min_seconds:
            return False
        return self.after > self.before * (1.0 + tolerance)

    def __str__(self) -> str:
        return (
            f"{self.benchmark}/{self.metric}: {self.before:.6g} -> "
            f"{self.after:.6g} ({self.ratio:.2f}x)"
        )


def metric_table(doc: dict) -> dict[str, dict[str, float]]:
    """Normalize a snapshot document to ``{case: {metric: value}}``.

    Accepts every format ``repro`` writes: bench snapshots
    (``bench-check``'s ``{"version", "benchmarks": ...}``), profiler
    documents (``repro profile``'s ``profile.json``), and folded
    telemetry reports (``repro telemetry-report``'s
    ``telemetry_version`` docs), so any two of them diff against each
    other. Documents carrying an unsupported schema version are
    rejected with :class:`ValueError` so ``bench-diff`` fails cleanly
    instead of comparing fields it misreads.
    """
    if "benchmarks" in doc:
        out = {}
        for name, m in doc["benchmarks"].items():
            fixed = ("sim_time", "memcpy_time", "kernel_time", "iterations")
            row = {k: float(m[k]) for k in fixed if k in m}
            for ph, v in m.get("phases", {}).items():
                row[f"phase:{ph}"] = float(v)
            out[name] = row
        return out
    if "telemetry_version" in doc:
        if doc["telemetry_version"] != 1:
            raise ValueError(
                "unsupported telemetry report version "
                f"{doc['telemetry_version']!r} (this build reads version 1)"
            )
        run = doc.get("run", {})
        name = f"telemetry:{run.get('algorithm', '?')}"
        row = {
            k: float(doc[k])
            for k in (
                "sim_time",
                "iterations",
                "snapshots",
                "frontier_peak",
            )
            if doc.get(k) is not None
        }
        # Wall-clock rates are informational (machine-dependent): the
        # wall_seconds_ prefix keeps them out of _HIGHER_IS_WORSE.
        if doc.get("wall_seconds") is not None:
            row["wall_seconds_stream"] = float(doc["wall_seconds"])
        for cname, v in doc.get("counters", {}).items():
            row[f"counter:{cname}"] = float(v)
        return {name: row}
    if "profile_version" in doc:
        if doc["profile_version"] != 1:
            raise ValueError(
                f"unsupported profile version {doc['profile_version']!r} "
                "(this build reads version 1)"
            )
        name = f"{doc.get('algo', '?')}/{doc.get('graph', '?')}"
        row = {
            k: float(doc[k])
            for k in ("sim_time", "memcpy_time", "kernel_time", "iterations")
            if k in doc
        }
        for ph, m in doc.get("phases", {}).items():
            row[f"phase:{ph}"] = float(m["total_time"])
        for cname, v in doc.get("counters", {}).items():
            row[f"counter:{cname}"] = float(v)
        ov = doc.get("overlap", {})
        if "efficiency" in ov:
            row["overlap_efficiency"] = float(ov["efficiency"])
        return {name: row}
    raise ValueError(
        "unrecognized snapshot: expected a bench-check snapshot "
        "('benchmarks'), a profile.json ('profile_version'), or a "
        "telemetry report ('telemetry_version')"
    )


def diff_documents(
    a: dict, b: dict, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[list[DiffRow], list[DiffRow]]:
    """All per-metric deltas of ``b`` against ``a``, plus the regressions.

    Cases or metrics present on only one side are skipped (adding or
    retiring a benchmark is not a regression). Regressions are timing
    metrics that grew beyond ``tolerance``; counters and rates are
    reported as deltas but never fail the diff on their own.
    """
    left, right = metric_table(a), metric_table(b)
    rows: list[DiffRow] = []
    for case in sorted(left):
        if case not in right:
            continue
        for metric in sorted(left[case]):
            if metric not in right[case]:
                continue
            rows.append(DiffRow(case, metric, left[case][metric], right[case][metric]))
    regressions = [r for r in rows if r.regressed(tolerance)]
    return rows, regressions


def load_snapshot(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot {path} has version {doc.get('version')!r}; "
            f"expected {SNAPSHOT_VERSION}"
        )
    return doc


def save_snapshot(path, benchmarks: dict, tolerance: float = DEFAULT_TOLERANCE) -> Path:
    path = Path(path)
    doc = {"version": SNAPSHOT_VERSION, "tolerance": tolerance, "benchmarks": benchmarks}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
