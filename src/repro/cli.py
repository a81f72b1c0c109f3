"""Command-line interface.

    python -m repro datasets
    python -m repro info
    python -m repro run --graph orkut --algorithm bfs
    python -m repro run --graph path/to/edges.txt --algorithm pagerank
    python -m repro partition edges.npz --out store/ --partitions 8
    python -m repro run --shard-store store/ --algorithm pagerank --memory-budget 8000000
    python -m repro compare --graph kron_g500-logn21 --algorithm bfs
    python -m repro trace --algo pagerank --out trace.json
    python -m repro profile --algo pagerank --out profile.json
    python -m repro bench-check --snapshot benchmarks/BENCH_baseline.json
    python -m repro bench-diff old.json new.json
    python -m repro run --graph orkut --algorithm pagerank --telemetry-out run.jsonl
    python -m repro telemetry-report run.jsonl --out report.json

``run`` executes one algorithm under GraphReduce and prints the result
summary plus the simulated performance profile; ``compare`` adds every
baseline framework; ``trace`` writes a Chrome ``trace_event`` JSON
(open in chrome://tracing or Perfetto) plus the phase report;
``profile`` runs the bottleneck-attribution profiler (per-engine
occupancy, overlap efficiency, a bottleneck verdict and the cost-model
validation pass) and writes ``profile.json``; ``bench-check`` reruns
the standard benchmark suite against a committed timing snapshot,
exiting non-zero on regression; ``bench-diff`` prints per-phase /
per-counter deltas between any two bench, profile, or telemetry-report
snapshots; and
``telemetry-report`` folds a run's ``--telemetry-out`` JSONL stream
(finished or still being written) into a diffable report document. Graphs
are either Table-1 dataset names or paths to edge-list / ``.npz`` /
MatrixMarket files.

``partition`` builds an on-disk shard store (streaming two-pass
external partitioner for ``.txt``/``.npz`` inputs -- the full edge set
never resides in RAM); ``run`` and ``profile`` then execute straight
from the store with ``--shard-store``: the packed shard file is mapped
once and shards page in on demand, their residency optionally capped by
``--memory-budget``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.algorithms import (
    BFS,
    BFSGather,
    ConnectedComponents,
    DeltaSSSP,
    KCore,
    LabelPropagation,
    PageRank,
    SSSP,
)
from repro.core.runtime import CACHE_POLICIES, HOST_BACKINGS, GraphReduce, GraphReduceOptions
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.edgelist import EdgeList
from repro.graph.io import load_edgelist_txt, load_matrix_market, load_npz
from repro.obs.profile import kernel_summary, plan_summary
from repro.sim.specs import DeviceSpec, HostSpec, SCALE

def _parse_id_list(text: str) -> list[int]:
    """Vertex ids from a comma/whitespace-separated spec."""
    ids = []
    for token in text.replace(",", " ").split():
        try:
            ids.append(int(token))
        except ValueError:
            raise SystemExit(
                f"error: invalid vertex id {token!r} in source list"
            ) from None
    return ids


def _source_spec(text: str) -> str:
    """argparse type of ``--source``: refuses a negative id up front
    (NumPy would wrap it) instead of after the graph has loaded."""
    if any(i < 0 for i in _parse_id_list(text)):
        raise argparse.ArgumentTypeError(f"vertex ids are >= 0, got {text!r}")
    return text


def _source_ids(args, default=(0,)) -> list[int]:
    """Every source id the flags name: ``--sources-file`` lines first,
    then the ``--source``/``--sources`` comma list; ``default`` when
    neither is given."""
    ids: list[int] = []
    file_spec = getattr(args, "sources_file", None)
    if file_spec:
        path = Path(file_spec)
        if not path.exists():
            raise SystemExit(f"error: sources file {file_spec!r} does not exist")
        ids.extend(_parse_id_list(path.read_text()))
    raw = getattr(args, "sources", None)
    if raw is None:
        raw = getattr(args, "source", None)
    if raw is not None:
        ids.extend(_parse_id_list(str(raw)))
    if not ids and default is not None:
        ids = list(default)
    return ids


def _single_source(args) -> int:
    ids = _source_ids(args)
    if len(ids) != 1:
        raise SystemExit(
            "error: this command takes exactly one --source; "
            "run multi-source traversals with `repro batch --sources` "
            "(or `repro run` with a comma list for bfs/sssp)"
        )
    return ids[0]


def _check_sources(ids, num_vertices: int) -> None:
    """Fail fast on out-of-range ids -- before any numpy indexing."""
    bad = [i for i in ids if i < 0 or i >= num_vertices]
    if bad:
        raise SystemExit(
            f"error: source {bad[0]} out of range for a graph with "
            f"{num_vertices} vertices (valid ids: 0..{num_vertices - 1})"
        )


ALGORITHMS = {
    # A non-push direction needs a pull-compatible program; the gather
    # formulation computes the same float32 levels as the fused form.
    "bfs": lambda args: (
        BFSGather(source=_single_source(args))
        if getattr(args, "direction", "push") != "push"
        else BFS(source=_single_source(args))
    ),
    "bfs-gather": lambda args: BFSGather(source=_single_source(args)),
    "sssp": lambda args: SSSP(source=_single_source(args)),
    "sssp-delta": lambda args: DeltaSSSP(source=_single_source(args), delta=args.delta),
    "pagerank": lambda args: PageRank(tolerance=args.tolerance),
    # Fixed-iteration power formulation: every vertex active/changed
    # each round (the classic PageRank benchmark shape, and the steady
    # state the host fast paths reuse plans across).
    "pagerank-power": lambda args: PageRank(
        tolerance=None, max_iterations=args.power_iterations
    ),
    "cc": lambda args: ConnectedComponents(),
    "kcore": lambda args: KCore(k=args.k),
    "labelprop": lambda args: LabelPropagation(),
}


def _fastpath_options(args) -> dict:
    """GraphReduceOptions kwargs from the host fast-path toggles."""
    return {
        "dense_fast_path": not args.no_dense_path,
        "direction": args.direction,
        "direction_alpha": args.direction_alpha,
        "direction_beta": args.direction_beta,
        "kernel_backend": args.kernel_backend,
    }


def _telemetry_config(args):
    """TelemetryConfig from the ``--telemetry-*`` flags, or None when off."""
    if not args.telemetry_out:
        return None
    from repro.obs.telemetry import TelemetryConfig

    # The bus appends; a fresh invocation starts from a clean stream.
    Path(args.telemetry_out).write_text("")
    return TelemetryConfig(out=args.telemetry_out, interval=args.telemetry_interval)


def load_graph(spec: str) -> EdgeList:
    """A Table-1 dataset name or a graph file path."""
    if spec in DATASETS:
        return load_dataset(spec)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(
            f"error: {spec!r} is neither a dataset ({', '.join(sorted(DATASETS))}) "
            "nor an existing file"
        )
    if path.suffix == ".npz":
        return load_npz(path)
    if path.suffix in (".mtx", ".mm"):
        return load_matrix_market(path, name=path.stem)
    return load_edgelist_txt(path)


def prepare(graph: EdgeList, args) -> EdgeList:
    if args.algorithm in ("sssp", "sssp-delta") and graph.weights is None:
        graph = graph.with_random_weights(seed=0)
    if args.algorithm in ("cc", "kcore", "labelprop") and not graph.undirected:
        sym = graph.symmetrized()
        sym.name = graph.name
        graph = sym
    return graph


def cmd_datasets(args) -> int:
    """Table 1 as registered: the paper's V / E / size, the stand-in's
    scale and class (no graph is generated)."""
    print(f"{'name':20s} {'family':18s} {'paper V':>10s} {'paper E':>11s} {'size':>8s} scale  class")
    for name, info in DATASETS.items():
        cls = "in-memory" if info.in_memory else "out-of-memory"
        print(
            f"{name:20s} {info.family:18s} {info.paper_vertices:10d} "
            f"{info.paper_edges:11d} {info.paper_size:>8s} 1/{info.scale:<4d} {cls}"
        )
    return 0


def cmd_info(args) -> int:
    dev, host = DeviceSpec(), HostSpec()
    print(f"simulated machine (paper testbed at 1/{SCALE} scale):")
    print(f"  device : {dev.name}, {dev.memory_bytes / 2**20:.1f} MiB, "
          f"{dev.sm_count} SMX, {dev.hyperq} hardware queues")
    print(f"  PCIe   : {dev.pcie_bandwidth / 1e9:.1f} GB/s effective "
          f"({dev.pcie_peak_bandwidth / 1e9:.1f} GB/s peak), "
          f"{dev.memcpy_setup * 1e6:.0f} us setup/copy")
    print(f"  host   : {host.name}, {host.cores} cores, "
          f"{host.memory_bytes / 2**20:.0f} MiB DRAM, "
          f"SSD {host.ssd_bandwidth / 1e6:.0f} MB/s")
    return 0


def _make_engine(args, opts) -> tuple:
    """(engine, printable-graph) for the in-RAM or ``--shard-store`` path.

    Store runs use the graph exactly as stored -- ``prepare``'s
    symmetrize/random-weight conveniences apply only to in-RAM inputs
    (an unweighted store running SSSP gets unit weights).
    """
    if getattr(args, "shard_store", None):
        from repro.core.shardstore import ShardStore, StoreFormatError

        try:
            store = ShardStore.open(args.shard_store)
        except StoreFormatError as exc:
            raise SystemExit(f"error: {exc}") from None
        return GraphReduce(shard_store=store, options=opts), store.edgelist()
    if not args.graph:
        raise SystemExit("error: provide --graph or --shard-store")
    graph = prepare(load_graph(args.graph), args)
    return GraphReduce(graph, options=opts), graph


def _print_prefetch(result) -> None:
    pf = result.prefetch
    if not pf:
        return
    acquired = pf["hits"] + pf["faults"]
    line = (f"prefetch   : {pf['hits']}/{acquired} resident, "
            f"{pf['faults']} faults, {pf['evictions']} evictions, "
            f"{pf['bytes_loaded'] / 2**20:.2f} MiB faulted in, "
            f"{pf['released_bytes'] / 2**20:.2f} MiB released "
            f"(cache capacity {pf['capacity']})")
    print(line)


def _run_multidevice(args, opts) -> int:
    """`repro run --devices N`: the simulated multi-device scheduler."""
    from repro.core.multigpu import MultiGPUGraphReduce

    if getattr(args, "shard_store", None):
        raise SystemExit(
            "error: --devices needs an in-RAM --graph (the multi-device "
            "scheduler partitions and distributes the graph itself)"
        )
    if not args.graph:
        raise SystemExit("error: provide --graph")
    graph = prepare(load_graph(args.graph), args)
    sources = _source_ids(args)
    if args.algorithm in ("bfs", "bfs-gather", "sssp", "sssp-delta"):
        _check_sources(sources, graph.num_vertices)
        if len(sources) > 1:
            raise SystemExit(
                "error: --devices runs a single query; multi-source "
                "batches use `repro batch` on one device"
            )
    program = ALGORITHMS[args.algorithm](args)
    result = MultiGPUGraphReduce(
        graph, num_devices=args.devices, options=opts,
        frontier_policy=args.frontier_policy,
    ).run(program, max_iterations=args.max_iterations)
    vals = result.vertex_values
    print(f"graph      : {graph}")
    print(f"algorithm  : {program.name}")
    print(f"devices    : {result.num_devices} "
          f"({result.num_partitions} shards, "
          f"frontier {result.frontier_policy})")
    print("ownership  : " + ", ".join(
        f"dev{d.device}={d.owned_shards} shards/{d.owned_vertices} vertices"
        for d in result.per_device))
    print(f"iterations : {result.iterations} (converged={result.converged})")
    print(f"sim time   : {result.sim_time:.6f} s "
          f"(memcpy {result.memcpy_time:.6f} s summed over devices)")
    print(f"replication: {result.replication_bytes / 2**20:.2f} MiB "
          f"(peer DMA {result.p2p_bytes / 2**20:.2f} MiB, "
          f"host-staged {result.host_staged_bytes / 2**20:.2f} MiB)")
    finite = vals[np.isfinite(vals)]
    if len(finite):
        print(f"values     : min {finite.min():.4g}, max {finite.max():.4g}, "
              f"finite {len(finite)}/{len(vals)}")
    return 0


def cmd_run(args) -> int:
    opts = (
        GraphReduceOptions.unoptimized()
        if args.unoptimized
        else GraphReduceOptions(
            num_partitions=args.partitions,
            cache_policy=args.cache_policy,
            host_backing=args.host_backing,
            memory_budget=args.memory_budget,
            **_fastpath_options(args),
        )
    )
    telemetry_cfg = _telemetry_config(args)
    if telemetry_cfg is not None:
        opts = replace(opts, telemetry=telemetry_cfg)
    if getattr(args, "devices", 1) > 1:
        return _run_multidevice(args, opts)
    engine, graph = _make_engine(args, opts)
    sources = _source_ids(args)
    if args.algorithm in ("bfs", "bfs-gather", "sssp", "sssp-delta"):
        _check_sources(sources, graph.num_vertices)
    if len(sources) > 1:
        if args.algorithm not in ("bfs", "sssp"):
            raise SystemExit(
                "error: a multi-source --source list batches bfs/sssp only; "
                "use `repro batch` for other families"
            )
        return _print_batch(args, engine, graph, args.algorithm, sources)
    program = ALGORITHMS[args.algorithm](args)
    result = engine.run(program, max_iterations=args.max_iterations)
    vals = result.vertex_values
    print(f"graph      : {graph}")
    print(f"algorithm  : {program.name}")
    print(f"iterations : {result.iterations} (converged={result.converged})")
    print(f"mode       : {'in-GPU-memory' if result.in_memory_mode else 'streaming'}"
          f" with {result.num_partitions} shards, K={result.concurrent_shards}")
    print(f"sim time   : {result.sim_time:.6f} s "
          f"(memcpy {result.memcpy_time:.6f} s, "
          f"{100 * result.memcpy_fraction:.1f}% of execution)")
    print(f"H2D / D2H  : {result.stats.h2d_bytes / 2**20:.2f} / "
          f"{result.stats.d2h_bytes / 2**20:.2f} MiB, "
          f"{result.stats.kernel_launches} kernels")
    if result.plan_cache is not None:
        print(f"plan cache : {plan_summary(result.plan_cache)}")
    if result.kernels is not None:
        print(f"kernels    : {kernel_summary(result.kernels)}")
    if result.direction_decisions is not None:
        pulls = sum(1 for d in result.direction_decisions if d.direction == "pull")
        print(f"direction  : {args.direction} "
              f"({pulls}/{len(result.direction_decisions)} pull iterations)")
    _print_prefetch(result)
    if result.telemetry is not None:
        t = result.telemetry
        print(f"telemetry  : {t['records']} records -> {t['out']}")
    finite = vals[np.isfinite(vals)]
    if len(finite):
        print(f"values     : min {finite.min():.4g}, max {finite.max():.4g}, "
              f"finite {len(finite)}/{len(vals)}")
    return 0


def cmd_trace(args) -> int:
    from repro.core.report import build_report
    from repro.obs.export import memcpy_duration_us, result_to_chrome_trace

    graph = prepare(load_graph(args.graph), args)
    program = ALGORITHMS[args.algorithm](args)
    opts = (
        GraphReduceOptions.unoptimized()
        if args.unoptimized
        else GraphReduceOptions(num_partitions=args.partitions, **_fastpath_options(args))
    )
    result = GraphReduce(graph, options=opts).run(program, max_iterations=args.max_iterations)
    doc = result_to_chrome_trace(result)
    Path(args.out).write_text(json.dumps(doc, separators=(",", ":")))
    report = build_report(result)
    trace_memcpy = memcpy_duration_us(doc) / 1e6
    print(f"wrote {args.out}: {len(doc['traceEvents'])} events "
          f"({result.iterations} iterations, {result.num_partitions} shards)")
    print(f"open in chrome://tracing or https://ui.perfetto.dev (legacy trace)")
    print(f"memcpy: trace {trace_memcpy:.6f} s vs report {report.memcpy_time:.6f} s")
    print()
    print(report.to_text())
    # Defensive consistency gate: the trace must agree with the report.
    if report.memcpy_time > 0 and abs(trace_memcpy - report.memcpy_time) > 0.01 * report.memcpy_time:
        print("error: trace/report memcpy mismatch exceeds 1%", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    from repro.obs.export import write_chrome_trace
    from repro.obs.profile import build_profile, write_profile

    program = ALGORITHMS[args.algorithm](args)
    opts = (
        GraphReduceOptions.unoptimized()
        if args.unoptimized
        else GraphReduceOptions(
            num_partitions=args.partitions,
            cache_policy=args.cache_policy,
            memory_budget=args.memory_budget,
            **_fastpath_options(args),
        )
    )
    engine, graph = _make_engine(args, opts)
    result = engine.run(program, max_iterations=args.max_iterations)
    report = build_profile(result)
    if getattr(args, "devices", 1) > 1:
        from repro.core.multigpu import MultiGPUGraphReduce

        mg = MultiGPUGraphReduce(
            graph, num_devices=args.devices, options=opts,
            frontier_policy=args.frontier_policy,
        ).run(ALGORITHMS[args.algorithm](args), max_iterations=args.max_iterations)
        report.devices = {
            "num_devices": mg.num_devices,
            "frontier_policy": mg.frontier_policy,
            "sim_time": mg.sim_time,
            "speedup_vs_profiled": report.sim_time / mg.sim_time if mg.sim_time else 0.0,
            "replication_bytes": mg.replication_bytes,
            "p2p_bytes": mg.p2p_bytes,
            "host_staged_bytes": mg.host_staged_bytes,
        }
    print(report.to_text())
    path = write_profile(args.out, report)
    print(f"\nwrote {path}")
    if args.trace_out:
        print(f"wrote {write_chrome_trace(args.trace_out, result=result)}")
    # Consistency gate: per-engine busy time must reconcile with the
    # device trace (they observe the same service windows), and the
    # cost-model validation pass must hold.
    for name, cats in (("h2d", ("h2d",)), ("d2h", ("d2h",)), ("sm", ("kernel",))):
        eng = report.engines.get(name)
        if eng is None:
            continue
        trace_busy = result.trace.service_busy_span(*cats)
        if trace_busy > 0 and abs(eng.busy_seconds - trace_busy) > 0.01 * trace_busy:
            print(f"error: engine {name} busy time disagrees with the trace "
                  f"({eng.busy_seconds:.9f}s vs {trace_busy:.9f}s)", file=sys.stderr)
            return 1
    if not report.validation_ok:
        print("error: cost-model validation failed (see table above)", file=sys.stderr)
        return 1
    return 0


def _print_batch(args, engine, graph, family, sources=None) -> int:
    """Execute and summarize one batched query set (`repro batch`, and
    `repro run` handed a multi-source traversal)."""
    from repro.core.batch import BatchRunner

    runner = BatchRunner(
        engine,
        batch_size=getattr(args, "batch_size", 64),
        layout=getattr(args, "layout", "auto"),
    )
    t0 = time.perf_counter()
    if family == "bfs":
        report = runner.run_bfs(sources, max_iterations=args.max_iterations)
    elif family == "sssp":
        report = runner.run_sssp(sources, max_iterations=args.max_iterations)
    elif family == "cc":
        report = runner.run_cc(
            count=getattr(args, "count", 1), max_iterations=args.max_iterations
        )
    else:  # pagerank
        dampings = [
            float(tok)
            for tok in str(getattr(args, "damping", "0.85")).replace(",", " ").split()
        ]
        report = runner.run_pagerank(
            dampings,
            iterations=getattr(args, "power_iterations", 25),
            max_iterations=args.max_iterations,
        )
    wall = time.perf_counter() - t0
    st = report.stats
    last = report.runs[-1]
    print(f"graph      : {graph}")
    print(f"batch      : {st['queries']} {family} queries in {st['chunks']} "
          f"chunk(s), {st['batch_iterations']} batched iterations "
          f"({st['retired_early']} retired early)")
    iters = sorted(q.iterations for q in report.queries)
    print(f"per-query  : iterations min {iters[0]} / "
          f"p50 {iters[len(iters) // 2]} / max {iters[-1]}")
    print(f"wall clock : {wall:.3f} s total, {wall / st['queries'] * 1e3:.1f} ms "
          f"per query amortized")
    if last.batch:
        b = last.batch
        line = (f"last chunk : layout {b.get('layout', '?')}, "
                f"{b.get('queries', 0)} queries, "
                f"{b.get('retired', 0)} retired")
        if "words" in b:
            line += f", {b['words']} uint64 words"
        print(line)
    if last.plan_cache is not None:
        print(f"plan cache : {plan_summary(last.plan_cache)}")
    _print_prefetch(last)
    finite_counts = [int(np.isfinite(q.values).sum()) for q in report.queries]
    print(f"values     : finite per query min {min(finite_counts)} / "
          f"max {max(finite_counts)} of {graph.num_vertices}")
    return 0


def cmd_batch(args) -> int:
    opts = GraphReduceOptions(
        num_partitions=args.partitions,
        cache_policy=args.cache_policy,
        memory_budget=args.memory_budget,
        **_fastpath_options(args),
    )
    telemetry_cfg = _telemetry_config(args)
    if telemetry_cfg is not None:
        opts = replace(opts, telemetry=telemetry_cfg)
    engine, graph = _make_engine(args, opts)
    sources = None
    if args.algorithm in ("bfs", "sssp"):
        sources = _source_ids(args, default=None)
        if not sources:
            raise SystemExit(
                "error: bfs/sssp batches need --sources and/or --sources-file"
            )
        _check_sources(sources, graph.num_vertices)
    try:
        return _print_batch(args, engine, graph, args.algorithm, sources)
    except ValueError as exc:
        # Batch-layer validation (layout/family conflicts, bad params)
        # surfaces as a clean CLI error, not a traceback.
        raise SystemExit(f"error: {exc}") from None


def cmd_partition(args) -> int:
    from repro.core.shardstore import ShardStore, build_store_streaming

    out = Path(args.out)
    path = Path(args.input)
    if args.input in DATASETS or path.suffix in (".mtx", ".mm"):
        # No streaming reader for datasets / MatrixMarket: partition in
        # RAM (they fit by construction) and serialize the result.
        from repro.core.partition import PartitionEngine

        edges = load_graph(args.input)
        store = ShardStore.save(
            PartitionEngine().partition(edges, args.partitions), out
        )
    elif path.exists():
        store = build_store_streaming(
            path,
            out,
            args.partitions,
            chunk_edges=args.chunk_edges,
            num_vertices=args.num_vertices,
            name=args.name,
        )
    else:
        raise SystemExit(
            f"error: {args.input!r} is neither a dataset "
            f"({', '.join(sorted(DATASETS))}) nor an existing file"
        )
    store.verify()  # read the build back against its recorded checksums
    print(f"wrote {store.path}: {store.num_partitions} shards, "
          f"V={store.num_vertices}, E={store.num_edges}, "
          f"{'weighted' if store.weighted else 'unweighted'}, "
          f"{store.disk_bytes() / 2**20:.2f} MiB on disk")
    return 0


def cmd_bench_diff(args) -> int:
    from repro.obs import bench

    docs = []
    for p in (args.baseline, args.fresh):
        path = Path(p)
        if not path.exists():
            print(f"error: snapshot {path} not found", file=sys.stderr)
            return 2
        docs.append(json.loads(path.read_text()))
    tolerance = args.tolerance if args.tolerance is not None else docs[0].get(
        "tolerance", bench.DEFAULT_TOLERANCE
    )
    try:
        rows, regressions = bench.diff_documents(docs[0], docs[1], tolerance=tolerance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("no comparable metrics between the two snapshots", file=sys.stderr)
        return 2
    shown = 0
    for row in sorted(rows, key=lambda r: -abs(r.ratio - 1.0)):
        if row.delta == 0 and not args.all:
            continue
        flag = " REGRESSION" if row in regressions else ""
        print(f"{row.benchmark:24s} {row.metric:28s} {row.before:12.6g} -> "
              f"{row.after:12.6g}  {row.ratio:6.2f}x{flag}")
        shown += 1
    if shown == 0:
        print(f"identical: {len(rows)} metrics compared, no deltas")
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {100 * tolerance:.0f}%:",
              file=sys.stderr)
        for reg in regressions:
            print(f"  {reg}", file=sys.stderr)
        return 1
    print(f"\nok: no timing metric regressed beyond {100 * tolerance:.0f}% "
          f"({len(rows)} compared)")
    return 0


def cmd_bench_check(args) -> int:
    from repro.obs import bench

    if args.update:
        fresh = bench.run_suite()
        # Preserve the committed snapshot's tolerance on refresh unless
        # one is given explicitly -- `--update` must not silently reset
        # a tuned gate back to the default.
        tolerance = args.tolerance
        if tolerance is None:
            snapshot_path = Path(args.snapshot)
            if snapshot_path.exists():
                try:
                    tolerance = bench.load_snapshot(snapshot_path).get("tolerance")
                except ValueError:
                    tolerance = None
        if tolerance is None:
            tolerance = bench.DEFAULT_TOLERANCE
        path = bench.save_snapshot(args.snapshot, fresh, tolerance=tolerance)
        print(f"wrote {path} ({len(fresh)} benchmarks, tolerance {tolerance:g})")
        return 0
    snapshot_path = Path(args.snapshot)
    if not snapshot_path.exists():
        print(f"error: snapshot {snapshot_path} not found "
              "(run `repro bench-check --update` to create it)", file=sys.stderr)
        return 2
    doc = bench.load_snapshot(snapshot_path)
    tolerance = args.tolerance if args.tolerance is not None else doc.get(
        "tolerance", bench.DEFAULT_TOLERANCE
    )
    fresh = bench.run_suite(names=sorted(doc["benchmarks"]))
    regressions = bench.compare(doc["benchmarks"], fresh, tolerance=tolerance)
    for name in sorted(doc["benchmarks"]):
        base = doc["benchmarks"][name].get("sim_time", 0.0)
        cur = fresh[name].get("sim_time", 0.0)
        ratio = cur / base if base else float("inf")
        print(f"{name:22s} {base:12.6f}s -> {cur:12.6f}s  {ratio:6.2f}x")
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {100 * tolerance:.0f}%:",
              file=sys.stderr)
        for reg in regressions:
            print(f"  {reg}", file=sys.stderr)
        return 1
    print(f"\nok: no phase regressed beyond {100 * tolerance:.0f}%")
    return 0


def cmd_telemetry_report(args) -> int:
    from repro.obs.monitor import fold_stream, read_records, report_text

    path = Path(args.stream)
    if not path.exists():
        print(f"error: telemetry stream {path} not found", file=sys.stderr)
        return 2
    try:
        records = read_records(str(path))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not records:
        print("error: stream holds no telemetry records", file=sys.stderr)
        return 2
    doc = fold_stream(records)
    print(report_text(doc))
    if args.out:
        Path(args.out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    from repro.baselines import CuSha, GraphChi, MapGraph, Totem, XStream
    from repro.sim.memory import DeviceOOMError

    graph = prepare(load_graph(args.graph), args)
    program_factory = ALGORITHMS[args.algorithm]
    gr = GraphReduce(graph).run(program_factory(args), max_iterations=args.max_iterations)
    print(f"{'framework':14s} {'sim time (s)':>14s} {'vs GR':>9s}")
    print(f"{'GraphReduce':14s} {gr.sim_time:14.6f} {'1.0x':>9s}")
    for framework in (GraphChi(), XStream(), Totem(), CuSha(), MapGraph()):
        try:
            r = framework.run(graph, program_factory(args), max_iterations=args.max_iterations)
        except DeviceOOMError:
            print(f"{framework.name:14s} {'device OOM':>14s} {'-':>9s}")
            continue
        if not np.array_equal(r.vertex_values, gr.vertex_values):
            print(f"{framework.name:14s} RESULT MISMATCH", file=sys.stderr)
            return 1
        print(f"{framework.name:14s} {r.sim_time:14.6f} {r.sim_time / gr.sim_time:8.1f}x")
    return 0


def _add_store_args(p) -> None:
    p.add_argument(
        "--shard-store", default=None,
        help="run out-of-core from this shard-store directory "
             "(see `repro partition`); --graph is then ignored",
    )
    p.add_argument(
        "--memory-budget", type=_byte_budget, default=None,
        help="host RAM budget (bytes) for the out-of-core shard cache; "
             "sets the resident-set size via the Eq. (1)/(2) formula",
    )


def _byte_budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 bytes, got {value}")
    return value


def _int_at_least(lo: int):
    """argparse ``type`` for an integer no smaller than ``lo``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its own errors
    return parse


#: iteration limits (0 runs no iteration) and shard counts
_ITERATIONS, _PARTITIONS = _int_at_least(0), _int_at_least(1)


def _add_fastpath_args(p) -> None:
    p.add_argument("--no-dense-path", action="store_true",
                   help="disable the dense-or-rows host fast path (every "
                        "plan is rebuilt from scratch: the reference path)")
    p.add_argument(
        "--direction", choices=("push", "pull", "auto"), default="push",
        help="traversal direction: natural frontier (push), bottom-up "
             "(pull), or per-iteration Beamer alpha/beta switching "
             "(auto); pull/auto need a pull-compatible gather program",
    )
    p.add_argument(
        "--direction-alpha", type=float, default=14.0,
        help="push->pull threshold: switch when frontier out-edges "
             "exceed unexplored-edges/alpha",
    )
    p.add_argument(
        "--direction-beta", type=float, default=24.0,
        help="pull->push threshold: switch back when the frontier "
             "shrinks below vertices/beta",
    )
    p.add_argument(
        "--kernel-backend", choices=("numpy", "off"),
        default="numpy",
        help="fused gather/apply/activate kernel layer: whole-array "
             "NumPy primitives over arena-reused scratch (numpy, "
             "default) or the generic path only (off); results are "
             "bit-identical either way",
    )


def _add_devices_args(p, devices_help: str) -> None:
    p.add_argument("--devices", type=int, default=1, help=devices_help)
    p.add_argument(
        "--frontier-policy", choices=("replicated", "partitioned"),
        default="replicated",
        help="boundary-exchange policy of the multi-device scheduler: "
             "full frontier bitmaps everywhere (replicated, default) or "
             "pairwise-boundary bits only (partitioned); results are "
             "bit-identical",
    )


def _add_telemetry_args(p) -> None:
    p.add_argument(
        "--telemetry-out", default=None,
        help="stream telemetry snapshots (JSONL, schema-versioned) to "
             "this file; fold it with `repro telemetry-report`",
    )
    p.add_argument(
        "--telemetry-interval", type=float, default=0.5,
        help="minimum wall seconds between snapshot records (default 0.5; "
             "0 emits one per iteration)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GraphReduce (SC'15) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("datasets", help="list the Table-1 dataset stand-ins")
    sub.add_parser("info", help="show the simulated machine")
    for name, help_text in (
        ("run", "run one algorithm under GraphReduce"),
        ("compare", "run GraphReduce and every baseline framework"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--graph", required=(name == "compare"),
            help="dataset name or graph file",
        )
        p.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
        p.add_argument(
            "--source", default=None, type=_source_spec,
            help="BFS/SSSP source vertex (default 0); `repro run` also "
                 "accepts a comma-separated list, which executes the "
                 "sources as one batched traversal (see `repro batch`)",
        )
        p.add_argument("--tolerance", type=float, default=1e-3, help="PageRank tolerance")
        p.add_argument("--k", type=int, default=3, help="k for k-core")
        p.add_argument("--power-iterations", type=int, default=25,
                       help="rounds for pagerank-power")
        p.add_argument("--delta", type=float, default=1.0,
                       help="bucket width for sssp-delta")
        p.add_argument("--max-iterations", type=_ITERATIONS, default=100_000)
    run_p = next(a for a in sub.choices.values() if a.prog.endswith("run"))
    run_p.add_argument("--unoptimized", action="store_true",
                       help="disable every Section-5 optimization (Figure 15 baseline)")
    _add_fastpath_args(run_p)
    run_p.add_argument("--partitions", type=_PARTITIONS, default=None, help="shard count override")
    run_p.add_argument("--cache-policy", choices=CACHE_POLICIES, default="auto")
    run_p.add_argument("--host-backing", choices=HOST_BACKINGS, default="dram")
    _add_devices_args(
        run_p,
        "run on N simulated accelerators via the multi-device "
        "scheduler (in-RAM graphs only; results stay bit-identical "
        "to one device, only the performance plane changes)",
    )
    run_p.add_argument(
        "--sources-file", default=None,
        help="file of whitespace/comma-separated source ids appended to "
             "--source (bfs/sssp; multiple ids run as one batch)",
    )
    _add_store_args(run_p)
    _add_telemetry_args(run_p)

    batch_p = sub.add_parser(
        "batch",
        help="run many queries of one family as a single batched shard "
             "stream (scan sharing; bit-parallel multi-source BFS)",
    )
    batch_p.add_argument("--graph", default=None, help="dataset name or graph file")
    batch_p.add_argument(
        "--algorithm", required=True, choices=("bfs", "sssp", "cc", "pagerank"),
        help="query family; every query in a batch shares one family",
    )
    batch_p.add_argument(
        "--sources", default=None,
        help="comma-separated source vertices, one query each (bfs/sssp), "
             "e.g. --sources 0,17,42",
    )
    batch_p.add_argument(
        "--sources-file", default=None,
        help="file of whitespace/comma-separated source ids appended to "
             "--sources",
    )
    batch_p.add_argument(
        "--batch-size", type=int, default=64,
        help="queries fused per shard stream; more queries split into "
             "consecutive chunks (default 64)",
    )
    batch_p.add_argument(
        "--layout", choices=("auto", "columns", "bits"), default="auto",
        help="state layout: float32 column matrix (columns), packed "
             "uint64 reachability words -- 64 BFS sources per word "
             "(bits, bfs only), or bits-for-bfs/columns-otherwise (auto)",
    )
    batch_p.add_argument("--count", type=int, default=1,
                         help="number of cc queries (they are identical; "
                              "exercises the batch path)")
    batch_p.add_argument(
        "--damping", default="0.85",
        help="comma-separated pagerank damping factors, one query each",
    )
    batch_p.add_argument("--power-iterations", type=int, default=25,
                         help="pagerank power-iteration rounds per query")
    batch_p.add_argument("--partitions", type=_PARTITIONS, default=None)
    batch_p.add_argument("--cache-policy", choices=CACHE_POLICIES, default="auto")
    batch_p.add_argument("--max-iterations", type=_ITERATIONS, default=100_000)
    _add_fastpath_args(batch_p)
    _add_store_args(batch_p)
    _add_telemetry_args(batch_p)

    rep_p = sub.add_parser(
        "telemetry-report",
        help="fold a telemetry stream into a diffable report",
    )
    rep_p.add_argument("stream", help="telemetry JSONL path")
    rep_p.add_argument(
        "--out", default=None,
        help="also write the report document (telemetry_version JSON, "
             "diffable with `repro bench-diff`) here",
    )

    part_p = sub.add_parser(
        "partition", help="build an on-disk shard store from a graph"
    )
    part_p.add_argument("input", help="dataset name or graph file (.txt/.npz/.mtx)")
    part_p.add_argument("--out", required=True, help="store directory to create")
    part_p.add_argument("--partitions", type=_PARTITIONS, default=8,
                        help="shard count (default 8)")
    part_p.add_argument(
        "--chunk-edges", type=int, default=1 << 20,
        help="edges per streaming chunk for .txt/.npz ingestion",
    )
    part_p.add_argument(
        "--num-vertices", type=int, default=None,
        help="vertex-count override (text inputs carry no vertex count)",
    )
    part_p.add_argument("--name", default=None,
                        help="graph name recorded in the manifest")

    trace_p = sub.add_parser(
        "trace", help="run one algorithm and write a Chrome trace_event JSON"
    )
    trace_p.add_argument(
        "--algo", "--algorithm", dest="algorithm", required=True,
        choices=sorted(ALGORITHMS),
    )
    trace_p.add_argument("--graph", default="delaunay_n13",
                         help="dataset name or graph file (default: delaunay_n13)")
    trace_p.add_argument("--out", default="trace.json", help="output trace path")
    trace_p.add_argument("--unoptimized", action="store_true",
                         help="trace the Figure-15 baseline configuration")
    _add_fastpath_args(trace_p)
    trace_p.add_argument("--partitions", type=_PARTITIONS, default=None)
    trace_p.add_argument("--source", default=None)
    trace_p.add_argument("--tolerance", type=float, default=1e-3)
    trace_p.add_argument("--k", type=int, default=3)
    trace_p.add_argument("--power-iterations", type=int, default=25)
    trace_p.add_argument("--max-iterations", type=_ITERATIONS, default=100_000)

    prof_p = sub.add_parser(
        "profile",
        help="run one algorithm under the bottleneck-attribution profiler",
    )
    prof_p.add_argument(
        "--algo", "--algorithm", dest="algorithm", required=True,
        choices=sorted(ALGORITHMS),
    )
    prof_p.add_argument("--graph", default="delaunay_n13",
                        help="dataset name or graph file (default: delaunay_n13)")
    prof_p.add_argument("--out", default="profile.json",
                        help="machine-readable output path")
    prof_p.add_argument("--trace-out", default=None,
                        help="also write a Chrome trace_event JSON here")
    prof_p.add_argument("--unoptimized", action="store_true",
                        help="profile the Figure-15 baseline configuration")
    _add_fastpath_args(prof_p)
    prof_p.add_argument("--partitions", type=_PARTITIONS, default=None)
    prof_p.add_argument("--cache-policy", choices=CACHE_POLICIES, default="auto")
    prof_p.add_argument("--source", default=None)
    prof_p.add_argument("--tolerance", type=float, default=1e-3)
    prof_p.add_argument("--k", type=int, default=3)
    prof_p.add_argument("--power-iterations", type=int, default=25)
    prof_p.add_argument("--max-iterations", type=_ITERATIONS, default=100_000)
    _add_devices_args(
        prof_p,
        "also project the run onto N simulated accelerators and "
        "report the multi-device scaling row",
    )
    _add_store_args(prof_p)

    diff_p = sub.add_parser(
        "bench-diff",
        help="per-phase/per-counter deltas between two bench or profile snapshots",
    )
    diff_p.add_argument("baseline", help="the older snapshot (bench or profile JSON)")
    diff_p.add_argument("fresh", help="the newer snapshot to compare against it")
    diff_p.add_argument(
        "--tolerance", type=float, default=None,
        help="relative slowdown that counts as a regression "
             "(default: the baseline's recorded tolerance, else 10%%)",
    )
    diff_p.add_argument("--all", action="store_true",
                        help="also print metrics with no delta")

    bench_p = sub.add_parser(
        "bench-check",
        help="rerun the benchmark suite against a committed timing snapshot",
    )
    bench_p.add_argument(
        "--snapshot", default="benchmarks/BENCH_baseline.json",
        help="snapshot path (default: benchmarks/BENCH_baseline.json)",
    )
    bench_p.add_argument(
        "--tolerance", type=float, default=None,
        help="relative slowdown that counts as a regression "
             "(default: the snapshot's recorded tolerance)",
    )
    bench_p.add_argument("--update", action="store_true",
                         help="rewrite the snapshot from a fresh run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "datasets": cmd_datasets,
        "info": cmd_info,
        "run": cmd_run,
        "batch": cmd_batch,
        "partition": cmd_partition,
        "compare": cmd_compare,
        "trace": cmd_trace,
        "profile": cmd_profile,
        "bench-check": cmd_bench_check,
        "bench-diff": cmd_bench_diff,
        "telemetry-report": cmd_telemetry_report,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
