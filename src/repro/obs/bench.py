"""Phase-timing snapshots and the ``repro bench-check`` regression gate.

The simulator is deterministic: the same graph, program and options
produce bit-identical phase timings on every machine and Python
version. A committed ``BENCH_*.json`` snapshot therefore acts as a
golden performance baseline -- any change that slows a phase by more
than the tolerance is a real modeling/scheduling regression, not noise.

``run_suite`` executes the small standard workload set, ``compare``
diffs a fresh run against the snapshot, and the CLI wires both into
``repro bench-check`` (non-zero exit on regression) so CI can gate on
it.
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

#: Committed host fast-path wall-clock snapshot (``repro bench-wallclock``).
DEFAULT_WALLCLOCK_SNAPSHOT = Path("benchmarks") / "BENCH_wallclock.json"


def _suite_cases() -> dict[str, Callable]:
    """name -> zero-arg callable returning (edges, program, options).

    Imports live inside the function so ``repro.obs`` stays importable
    without pulling the whole runtime in.
    """
    from repro.algorithms import BFS, ConnectedComponents, PageRank, SSSP
    from repro.core.runtime import GraphReduceOptions
    from repro.graph.generators import erdos_renyi, rmat

    streaming = GraphReduceOptions(cache_policy="never")
    return {
        "pagerank_rmat12": lambda: (rmat(12, 40_000, seed=7), PageRank(tolerance=1e-3), streaming),
        "bfs_rmat12": lambda: (rmat(12, 40_000, seed=7), BFS(source=0), streaming),
        "sssp_er": lambda: (
            erdos_renyi(2_000, 16_000, seed=11).with_random_weights(seed=11),
            SSSP(source=0),
            streaming,
        ),
        "cc_er": lambda: (
            erdos_renyi(2_000, 16_000, seed=13).symmetrized(),
            ConnectedComponents(),
            streaming,
        ),
    }


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
    from repro.core.runtime import GraphReduce

    cases = _suite_cases()
    unknown = set(names or ()) - set(cases)
    if unknown:
        raise KeyError(f"unknown benchmarks {sorted(unknown)}; have {sorted(cases)}")
    out = {}
    for name in names or sorted(cases):
        edges, program, options = cases[name]()
        result = GraphReduce(edges, options=options).run(program)
        out[name] = measure(result)
    return out


# ----------------------------------------------------------------------
# Host fast-path wall-clock suite (``repro bench-wallclock``)
# ----------------------------------------------------------------------


@dataclass
class WallclockCase:
    """One fully constructed ``bench-wallclock`` scenario.

    ``engines`` maps ``"fast"``/``"slow"`` to ready-to-run GraphReduce
    engines that must produce bit-identical results -- only their host-
    side wall clock may differ. When ``same_timeline`` is True the two
    sides must also agree on the simulated timeline and frontier
    history; direction-optimizing cases set it False because pull
    iterations legitimately improve vertices one iteration earlier than
    push (the converged values stay bit-identical, and the harness still
    enforces that).
    ``metrics_engine`` is the traced configuration whose deterministic
    simulated metrics go into the committed snapshot; it mirrors the
    slow side's timeline for same-timeline cases and the fast side's
    otherwise.
    ``variants`` (if set) maps extra labels to engines timed alongside
    fast/slow -- fixed-direction runs, say -- recorded as
    ``wall_seconds_<label>`` and ``speedup_vs_<label>`` (variant time
    over fast time). ``min_variant_ratio`` is the floor those ratios
    are gated against: 1.05 means the fast side must beat every variant
    by at least 5%.
    ``extra`` (if set) runs once after timing -- subprocess probes and
    gates live there -- and its dict is merged into the measurement;
    ``cleanup`` (if set) always runs, even when the case fails.
    """

    engines: dict
    make_program: Callable
    metrics_engine: object
    min_speedup: float
    extra: Callable | None = None
    cleanup: Callable | None = None
    same_timeline: bool = True
    variants: dict | None = None
    min_variant_ratio: float = 0.0


def _wallclock_cases() -> dict[str, Callable]:
    """name -> zero-arg factory returning a :class:`WallclockCase`.

    The host fast-path cases differ only in the host fast paths
    (dense-or-rows plans with the fused kernels on vs all off), so the
    simulated device timeline is identical by construction and the
    wall-clock ratio isolates the host-side win.

    The PageRank case is the classic fixed-iteration power formulation
    (``tolerance=None``): every vertex active and changed each round, so
    dense plans are built once and reused -- the workload the fast paths
    target. The traversal cases (``bfs_wallclock``,
    ``road_sssp_wallclock``) run direction-optimizing frontiers where no
    plan repeats across push iterations; the fast-path win there comes
    from row-built frontiers plus stored dense plans on pull
    iterations -- see :func:`_bfs_wallclock_case` and
    :func:`_road_sssp_wallclock_case`. The out-of-core tier is measured
    by the ``pr_ooc`` workload of ``benchmarks/e2e``, not here.
    """
    from repro.algorithms import PageRank
    from repro.core.runtime import GraphReduce, GraphReduceOptions

    common = dict(cache_policy="never", num_partitions=4, observe=False, trace=False)
    fast = GraphReduceOptions(**common)
    slow = GraphReduceOptions(**common, dense_fast_path=False)
    metrics = GraphReduceOptions(cache_policy="never", num_partitions=4)

    def graph():
        from repro.graph.generators import erdos_renyi

        return erdos_renyi(65_536, 1_000_000, seed=7, name="er-wallclock")

    def fastpath_case(make_program, min_speedup):
        def factory():
            edges = graph()
            return WallclockCase(
                engines={
                    "fast": GraphReduce(edges, options=fast),
                    "slow": GraphReduce(edges, options=slow),
                },
                make_program=make_program,
                metrics_engine=GraphReduce(edges, options=metrics),
                min_speedup=min_speedup,
            )

        return factory

    return {
        "pagerank_wallclock": fastpath_case(
            lambda: PageRank(tolerance=None, max_iterations=25), 2.0
        ),
        "bfs_wallclock": _bfs_wallclock_case,
        "road_sssp_wallclock": _road_sssp_wallclock_case,
        "batch_bfs_wallclock": _batch_bfs_wallclock_case,
        "batch_pagerank_wallclock": _batch_pagerank_wallclock_case,
        "telemetry_pagerank_wallclock": _telemetry_overhead_wallclock_case,
    }


def _telemetry_overhead_wallclock_case() -> WallclockCase:
    """Live telemetry enabled vs disabled: the <=5% overhead gate.

    Both sides run the identical PageRank configuration; the *fast*
    side additionally streams telemetry (per-iteration snapshots to a
    JSONL sink, written on the run's own thread). The harness computes
    ``speedup = slow / fast``, i.e. disabled time over enabled time, so
    the ``min_speedup`` floor of 0.952 caps telemetry overhead at
    ``1/0.952 - 1`` (~5%): if streaming telemetry slows the run more
    than that on this machine, the gate fails. ``interval=0.0`` makes
    every iteration emit a snapshot -- the worst-case publishing rate,
    far denser than the default half-second throttle.

    ``extra`` folds the stream's last run afterwards -- every warm-up
    and repeat appends to the one sink -- and asserts it ended cleanly
    with one snapshot per iteration, guarding against the degenerate
    "zero overhead because nothing was written" pass.
    """
    import shutil
    import tempfile

    from repro.algorithms import PageRank
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.graph.generators import erdos_renyi
    from repro.obs.telemetry import TelemetryConfig

    edges = erdos_renyi(65_536, 1_000_000, seed=7, name="er-wallclock")
    tmp = Path(tempfile.mkdtemp(prefix="repro-telemetry-bench-"))
    stream = tmp / "telemetry.jsonl"
    common = dict(cache_policy="never", num_partitions=4, observe=False, trace=False)
    fast = GraphReduceOptions(
        **common,
        telemetry=TelemetryConfig(out=str(stream), interval=0.0),
    )
    slow = GraphReduceOptions(**common)
    metrics = GraphReduceOptions(cache_policy="never", num_partitions=4)

    def extra(metrics_result):
        from repro.obs.monitor import MonitorState, last_run, read_records

        state = MonitorState()
        for record in last_run(read_records(str(stream))):
            state.ingest(record)
        if not state.end or state.end.get("error") is not None:
            raise AssertionError(f"telemetry run did not end cleanly: {state.end}")
        if state.snapshots != state.end["iterations"]:
            raise AssertionError(
                f"telemetry run wrote {state.snapshots} snapshots for "
                f"{state.end['iterations']} iterations"
            )
        return {
            "telemetry": {
                "records": state.records,
                "snapshots": state.snapshots,
            }
        }

    return WallclockCase(
        engines={
            "fast": GraphReduce(edges, options=fast),
            "slow": GraphReduce(edges, options=slow),
        },
        make_program=lambda: PageRank(tolerance=None, max_iterations=20),
        metrics_engine=GraphReduce(edges, options=metrics),
        min_speedup=0.952,
        extra=extra,
        cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True),
    )


def _bfs_wallclock_case() -> WallclockCase:
    """Direction-optimizing BFS vs the push-only slow path.

    BFS frontiers never repeat, so no stored plan can serve a push
    iteration. The fast side runs ``direction=auto``: the rows route
    serves the thin wavefronts and the two near-complete peak
    iterations of the Erdos-Renyi wave flip to pull, where one stored
    dense plan replaces a ~45k-row one-shot rows build per iteration.
    The slow side is the reference push-only engine with every fast
    path off.

    ``same_timeline=False``: pull improves vertices one iteration
    earlier than push (no activation lag), so simulated timelines
    differ while converged values stay bit-identical. The fixed-
    direction variants document that ``auto`` beats both pure push and
    pure pull on the same engine configuration.
    """
    from repro.algorithms import BFSGather
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.graph.generators import erdos_renyi

    edges = erdos_renyi(65_536, 1_000_000, seed=7, name="er-wallclock")
    common = dict(cache_policy="never", num_partitions=4, observe=False, trace=False)
    fast = GraphReduceOptions(**common, direction="auto")
    slow = GraphReduceOptions(**common, dense_fast_path=False)
    metrics = GraphReduceOptions(cache_policy="never", num_partitions=4, direction="auto")
    return WallclockCase(
        engines={
            "fast": GraphReduce(edges, options=fast),
            "slow": GraphReduce(edges, options=slow),
        },
        make_program=lambda: BFSGather(source=0),
        metrics_engine=GraphReduce(edges, options=metrics),
        min_speedup=1.0,
        same_timeline=False,
        variants={
            "push": GraphReduce(edges, options=GraphReduceOptions(**common)),
            "pull": GraphReduce(edges, options=GraphReduceOptions(**common, direction="pull")),
        },
        min_variant_ratio=1.05,
    )


def _road_sssp_wallclock_case() -> WallclockCase:
    """Weighted SSSP on a road grid with a motorway overlay.

    The high-diameter scenario where direction switching matters most:
    highway shortcuts keep rewriting whole regions of the street grid
    (re-relaxation), so the frontier stays broad for many iterations.
    Fixed push expands a tens-of-thousands-row frontier every broad
    iteration; fixed pull drags a full dense sweep across the long
    sparse tail. ``auto`` (tight alpha/beta -- the vectorized pull has
    no per-vertex early exit, so its profitable window is narrower than
    Beamer's classic 14/24) pulls only through the broad middle and
    beats fixed pull by a third (fixed push, its rows iterations merged
    and relayed, drew level with it and is no longer timed here).

    Fast and slow sides both run the ``auto`` schedule -- direction
    decisions derive from the natural frontier only, so the timeline is
    identical and the ratio isolates the host fast paths (cached dense
    plans are exactly what make pull affordable).
    """
    from repro.algorithms import SSSP
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.graph.generators import grid_road

    edges = grid_road(
        256, 256, diagonal_fraction=0.15, seed=9, name="road-hwy", highways=98_304
    ).with_random_weights(seed=11)
    common = dict(cache_policy="never", num_partitions=1, observe=False, trace=False)
    auto = dict(direction="auto", direction_alpha=2.0, direction_beta=3.0)
    fast = GraphReduceOptions(**common, **auto)
    slow = GraphReduceOptions(**common, **auto, dense_fast_path=False)
    metrics = GraphReduceOptions(cache_policy="never", num_partitions=1, **auto)
    return WallclockCase(
        engines={
            "fast": GraphReduce(edges, options=fast),
            "slow": GraphReduce(edges, options=slow),
        },
        make_program=lambda: SSSP(source=0),
        metrics_engine=GraphReduce(edges, options=metrics),
        min_speedup=1.3,
        variants={
            "pull": GraphReduce(edges, options=GraphReduceOptions(**common, direction="pull")),
        },
        min_variant_ratio=1.05,
    )


class _BatchSweepEngine:
    """WallclockCase adapter: one K-query batch per ``run`` call.

    ``run`` takes the sweep spec the case's ``make_program`` produces
    (a family plus per-query parameters), executes the whole batch as a
    single engine run through :class:`repro.core.batch.BatchRunner`,
    and returns that run's result with ``vertex_values`` swapped for
    the stacked ``(n, K)`` per-query matrix -- so the harness's
    bit-equality check compares every query against the slow side's
    solo sweep, column by column. Batch bookkeeping (retirements,
    per-query iteration spread) rides on the result as ``batch`` for
    the snapshot's ``extra`` hook.
    """

    def __init__(self, engine, layout: str = "auto"):
        self.engine = engine
        self.layout = layout

    def run(self, spec):
        import dataclasses

        from repro.core.batch import BatchRunner

        runner = BatchRunner(self.engine, batch_size=64, layout=self.layout)
        if spec["family"] == "bfs":
            report = runner.run_bfs(spec["sources"])
        else:
            report = runner.run_pagerank(
                spec["dampings"], iterations=spec["iterations"]
            )
        run = report.runs[0]
        result = dataclasses.replace(run, vertex_values=report.values_matrix())
        iters = sorted(q.iterations for q in report.queries)
        result.batch = dict(
            run.batch or {},
            chunks=report.stats["chunks"],
            retired_early=report.stats["retired_early"],
            query_iterations={
                "min": iters[0],
                "p50": iters[len(iters) // 2],
                "max": iters[-1],
            },
        )
        return result


class _SoloSweepEngine:
    """WallclockCase adapter: the same sweep as K sequential solo runs.

    Stacks the K solo results into the identical ``(n, K)`` matrix the
    batch side returns, so the harness's equality check is exactly the
    batch-vs-solo equivalence contract. The engine configuration is the
    same as the batch side's -- every host fast path on -- so the
    measured ratio isolates scan sharing, not a crippled baseline.
    """

    def __init__(self, engine):
        self.engine = engine

    def run(self, spec):
        import dataclasses

        import numpy as np

        from repro.algorithms import BFSGather, PageRank

        cols, last = [], None
        if spec["family"] == "bfs":
            for s in spec["sources"]:
                last = self.engine.run(BFSGather(source=int(s)))
                cols.append(last.vertex_values)
        else:
            for d in spec["dampings"]:
                last = self.engine.run(
                    PageRank(
                        damping=float(d),
                        tolerance=None,
                        max_iterations=spec["iterations"],
                    )
                )
                cols.append(last.vertex_values)
        return dataclasses.replace(last, vertex_values=np.stack(cols, axis=1))


def _batch_extra(metrics_result) -> dict:
    batch = dict(metrics_result.batch)
    if batch["retired"] != batch["queries"]:
        raise AssertionError(
            f"batch left {batch['queries'] - batch['retired']} queries unretired"
        )
    return {"batch": batch}


def _batch_bfs_wallclock_case() -> WallclockCase:
    """One MS-BFS batch vs 16 sequential solo BFS runs.

    The fast side packs all 16 traversals into one uint64 word per
    vertex (bit-parallel MS-BFS) and streams the graph once; the slow
    side is the identically configured engine running the 16 sources
    back to back, each paying its own shard stream, plan builds and
    frontier machinery. Per-query depth columns must match the solo
    runs bit for bit -- the harness's cross-engine equality check *is*
    the batch-equivalence gate. ``same_timeline=False``: one fused run
    cannot share a timeline with 16 runs (the slow result carries the
    last solo run's clock). The ``columns`` variant times the float32
    state-matrix layout on the same batch, documenting that bit packing
    beats 16 depth columns.
    """
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.graph.generators import erdos_renyi

    edges = erdos_renyi(65_536, 1_000_000, seed=7, name="er-wallclock")
    sources = [1 + 4099 * k for k in range(16)]
    common = dict(cache_policy="never", num_partitions=4, observe=False, trace=False)
    options = GraphReduceOptions(**common)
    metrics = GraphReduceOptions(cache_policy="never", num_partitions=4)
    return WallclockCase(
        engines={
            "fast": _BatchSweepEngine(GraphReduce(edges, options=options), layout="bits"),
            "slow": _SoloSweepEngine(GraphReduce(edges, options=options)),
        },
        make_program=lambda: {"family": "bfs", "sources": list(sources)},
        metrics_engine=_BatchSweepEngine(
            GraphReduce(edges, options=metrics), layout="bits"
        ),
        min_speedup=2.0,
        same_timeline=False,
        variants={
            "columns": _BatchSweepEngine(
                GraphReduce(edges, options=options), layout="columns"
            ),
        },
        min_variant_ratio=1.05,
        extra=_batch_extra,
    )


def _batch_pagerank_wallclock_case() -> WallclockCase:
    """One columnar PageRank batch vs 16 sequential out-of-core runs.

    A damping-factor sweep over a shard store under a minimal memory
    budget -- the configuration where scan sharing is the whole story.
    Every round must stream all 8 shards through the capacity-1 cache;
    the fast side fuses the 16 queries into one ``(n, 16)`` float32
    state matrix and pays that stream once per round, the slow side
    runs the 16 dampings back to back and pays it 16 times. The
    per-edge arithmetic is identical on both sides (columns broadcast
    the same ops, in the same order, the solo run applies), so the
    ratio measures exactly what the batch executor amortizes: shard
    loads, plan builds and per-phase dispatch. The floor is 1.5x, not
    the 2.0x of the in-RAM batch gate: a store shard load is O(1) views
    into one mapping, so a solo stream is cheap and the ratio measures
    ~2.2x on the reference box.
    """
    import shutil
    import tempfile

    from repro.core.partition import PartitionEngine
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.core.shardstore import ShardStore
    from repro.graph.generators import erdos_renyi

    edges = erdos_renyi(65_536, 1_000_000, seed=7, name="er-wallclock")
    tmp = Path(tempfile.mkdtemp(prefix="repro-batch-bench-"))
    store = ShardStore.save(PartitionEngine().partition(edges, 8), tmp / "store")
    dampings = [0.80 + 0.01 * k for k in range(16)]
    common = dict(cache_policy="never", observe=False, trace=False, memory_budget=1)
    options = GraphReduceOptions(**common)
    metrics = GraphReduceOptions(
        cache_policy="never", memory_budget=1, host_prefetch=False
    )
    spec = {"family": "pagerank", "dampings": dampings, "iterations": 12}
    return WallclockCase(
        engines={
            "fast": _BatchSweepEngine(GraphReduce(shard_store=store, options=options)),
            "slow": _SoloSweepEngine(GraphReduce(shard_store=store, options=options)),
        },
        make_program=lambda: dict(spec),
        metrics_engine=_BatchSweepEngine(GraphReduce(shard_store=store, options=metrics)),
        min_speedup=1.5,
        same_timeline=False,
        extra=_batch_extra,
        cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True),
    )


def run_wallclock_suite(repeats: int = 3, warmup: int = 1) -> dict:
    """Measure the host fast paths; returns ``{name: measurement}``.

    Each case runs every engine per repeat -- fast, slow and any
    fixed-direction variants, interleaved so machine drift cancels out
    of the ratios -- after ``warmup`` untimed passes per side, and
    keeps the best wall time of each.
    Every engine must produce bit-identical ``vertex_values`` (the fast
    paths, direction switching and the out-of-core tier are
    value-preserving by contract; the harness enforces it); cases with
    ``same_timeline`` additionally pin the simulated time and frontier
    history. A final traced pass records the deterministic device
    metrics, which ``repro bench-check`` gates like any other snapshot.
    """
    import time

    import numpy as np

    out = {}
    for name, factory in sorted(_wallclock_cases().items()):
        case = factory()
        try:
            engines = dict(case.engines)
            engines.update(case.variants or {})
            results: dict = {}
            times: dict[str, list[float]] = {key: [] for key in engines}
            for _ in range(max(0, warmup)):  # allocator, caches, page-ins
                for key, eng in engines.items():
                    eng.run(case.make_program())
            for _ in range(max(1, repeats)):
                for key, eng in engines.items():
                    t0 = time.perf_counter()
                    results[key] = eng.run(case.make_program())
                    times[key].append(time.perf_counter() - t0)
            fast_r, slow_r = results["fast"], results["slow"]
            for key, r in results.items():
                if not np.array_equal(fast_r.vertex_values, r.vertex_values):
                    raise AssertionError(
                        f"{name}: fast/{key} paths disagree on vertex values"
                    )
            if case.same_timeline:
                if fast_r.sim_time != slow_r.sim_time:
                    raise AssertionError(
                        f"{name}: fast paths perturbed the simulated timeline "
                        f"({fast_r.sim_time} vs {slow_r.sim_time})"
                    )
                if fast_r.frontier_history != slow_r.frontier_history:
                    raise AssertionError(
                        f"{name}: fast/slow paths disagree on frontier history"
                    )
            metrics_r = case.metrics_engine.run(case.make_program())
            # The traced engine mirrors the slow side's schedule for
            # same-timeline cases and the fast side's otherwise
            # (direction-differing cases trace the auto schedule).
            if metrics_r.sim_time != (slow_r if case.same_timeline else fast_r).sim_time:
                raise AssertionError(f"{name}: traced metrics run diverged from timed runs")
            m = measure(metrics_r)
            best = {key: min(vals) for key, vals in times.items()}
            m.update(
                wall_seconds_fast=best["fast"],
                wall_seconds_slow=best["slow"],
                speedup=best["slow"] / best["fast"],
                min_speedup=case.min_speedup,
                plan_cache=metrics_r.plan_cache,
            )
            for key in case.variants or ():
                m[f"wall_seconds_{key}"] = best[key]
                m[f"speedup_vs_{key}"] = best[key] / best["fast"]
            if case.variants:
                m["min_variant_ratio"] = case.min_variant_ratio
            prefetch = getattr(metrics_r, "prefetch", None)
            if prefetch:
                m["prefetch"] = prefetch
            if case.extra is not None:
                m.update(case.extra(metrics_r))
            out[name] = m
        finally:
            if case.cleanup is not None:
                case.cleanup()
    return out


def run_ooc_probe(
    store_path,
    iterations: int = 8,
    memory_budget: int | None = None,
    rss_cap: int | None = None,
    profile_out=None,
    timeout: float = 600.0,
) -> dict:
    """Run :mod:`repro.obs.ooc_probe` in a fresh interpreter.

    ``ru_maxrss`` is lifetime-monotone, so a run's peak RSS can only be
    measured by a process that has done nothing else -- hence the
    subprocess. Returns the probe's JSON document; on a crash the dict
    has ``ok: False`` plus the captured stderr tail.
    """
    import os
    import subprocess
    import sys

    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "repro.obs.ooc_probe", str(store_path),
        "--iterations", str(iterations),
    ]
    if memory_budget is not None:
        cmd += ["--memory-budget", str(memory_budget)]
    if rss_cap is not None:
        cmd += ["--rss-cap", str(rss_cap)]
    if profile_out is not None:
        cmd += ["--profile-out", str(profile_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {
            "ok": False,
            "returncode": proc.returncode,
            "error": (proc.stderr or proc.stdout).strip()[-2000:],
        }


def check_wallclock(baseline: dict, fresh: dict, tolerance: float = DEFAULT_TOLERANCE):
    """Gate a fresh wall-clock run against the committed snapshot.

    Returns ``(regressions, failures)``: deterministic sim-metric
    regressions via :func:`compare` (wall-clock fields are machine-
    dependent and never compared across machines), plus cases whose
    *fresh, same-machine* speedup fell below their ``min_speedup``
    floor. Cases with direction variants also gate each
    ``speedup_vs_<variant>`` ratio against ``min_variant_ratio`` --
    the "auto beats both fixed directions" claim, re-proved on every
    machine the gate runs on.
    """
    return compare(baseline, fresh, tolerance=tolerance), floor_failures(fresh)


def floor_failures(fresh: dict) -> list[tuple[str, float, float]]:
    """Same-machine speedup-floor violations of a fresh wall-clock run.

    ``(case, measured, floor)`` rows: the fast/slow ``speedup`` against
    ``min_speedup``, and -- for cases with direction variants -- each
    ``speedup_vs_<variant>`` ratio against ``min_variant_ratio``. The
    CLI enforces these on every invocation, including ``--update``, so
    a regressed fast path cannot be silently baked into the snapshot.
    """
    failures = [
        (name, m["speedup"], m["min_speedup"])
        for name, m in sorted(fresh.items())
        if m.get("min_speedup") and m["speedup"] < m["min_speedup"]
    ]
    for name, m in sorted(fresh.items()):
        floor = m.get("min_variant_ratio")
        if not floor:
            continue
        for key, ratio in sorted(m.items()):
            if key.startswith("speedup_vs_") and ratio < floor:
                failures.append((f"{name}[vs_{key[len('speedup_vs_'):]}]", ratio, floor))
    return failures


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
            # Wall-clock fields (bench-wallclock snapshots) surface as
            # informational rows: not in _HIGHER_IS_WORSE, so growth in
            # a machine-dependent timing never fails a diff.
            fixed = ("sim_time", "memcpy_time", "kernel_time", "iterations")
            row = {
                k: float(m[k])
                for k in m
                if k in fixed
                or k.startswith("wall_seconds_")
                or k == "speedup"
                or k.startswith("speedup_vs_")
            }
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
