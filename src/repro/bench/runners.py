"""Experiment drivers: one function per paper table/figure.

All heavy intermediates are cached in-process and keyed by
(dataset, algorithm): the semantic execution trace feeds both CPU
baselines, and the optimized/unoptimized GraphReduce runs feed Table 3,
Figures 13-17 without re-execution.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

from repro.algorithms import BFS, SSSP, ConnectedComponents, PageRank
from repro.baselines import CuSha, GraphChi, HostGASExecutor, MapGraph, XStream
from repro.baselines.executor import ExecutionTrace
from repro.bench import matmul
from repro.bench.paper_values import TABLE2, TABLE3, TABLE4
from repro.core.runtime import GraphReduce, GraphReduceOptions, GraphReduceResult
from repro.graph.datasets import (
    DATASETS,
    IN_MEMORY_TABLE4,
    OUT_OF_MEMORY,
    TABLE2 as TABLE2_GRAPHS,
    load_dataset,
)
from repro.graph.edgelist import EdgeList
from repro.graph.properties import footprint_bytes
from repro.sim.specs import DeviceSpec, SCALE
from repro.sim.transfer import TransferModel

#: Column order of Tables 3 and 4.
ALGORITHMS = ("BFS", "SSSP", "Pagerank", "CC")

#: Census partitions shared by the CPU baselines and the executor cache.
CENSUS_PARTITIONS = 16

_prepared: dict[tuple, EdgeList] = {}
_sources: dict[str, int] = {}
_traces: dict[tuple, ExecutionTrace] = {}
_gr_runs: dict[tuple, GraphReduceResult] = {}


# ----------------------------------------------------------------------
# Shared preparation
# ----------------------------------------------------------------------
def source_vertex(name: str) -> int:
    """Deterministic BFS/SSSP source: the max-out-degree vertex."""
    if name not in _sources:
        g = load_dataset(name)
        _sources[name] = int(np.argmax(g.out_degrees()))
    return _sources[name]


def make_program(alg: str, name: str):
    src = source_vertex(name) if alg in ("BFS", "SSSP") else 0
    factories: dict[str, Callable] = {
        "BFS": lambda: BFS(source=src),
        "SSSP": lambda: SSSP(source=src),
        "Pagerank": lambda: PageRank(tolerance=1e-3),
        "CC": lambda: ConnectedComponents(),
    }
    return factories[alg]()


def prepared_graph(name: str, alg: str) -> EdgeList:
    """The dataset as stored for this algorithm: SSSP gets weights, CC

    gets undirected storage (Section 6.1)."""
    key = (name, alg)
    if key in _prepared:
        return _prepared[key]
    g = load_dataset(name)
    if alg == "SSSP":
        # A stable seed: str hashes are salted per process (PYTHONHASHSEED),
        # which made every campaign draw different SSSP weights.
        g = g.with_random_weights(low=1.0, high=10.0, seed=zlib.crc32(name.encode()))
    elif alg == "CC" and not g.undirected:
        g = g.symmetrized()
        g.name = name
    _prepared[key] = g
    return g


def get_trace(name: str, alg: str) -> ExecutionTrace:
    key = (name, alg)
    if key not in _traces:
        g = prepared_graph(name, alg)
        _traces[key] = HostGASExecutor(g, make_program(alg, name), CENSUS_PARTITIONS).run()
    return _traces[key]


def get_gr(name: str, alg: str, optimized: bool = True) -> GraphReduceResult:
    key = (name, alg, optimized)
    if key not in _gr_runs:
        g = prepared_graph(name, alg)
        opts = GraphReduceOptions() if optimized else GraphReduceOptions.unoptimized()
        _gr_runs[key] = GraphReduce(g, options=opts).run(make_program(alg, name))
    return _gr_runs[key]


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1_datasets() -> list[dict]:
    device = DeviceSpec()
    rows = []
    for name, info in DATASETS.items():
        g = load_dataset(name)
        fp = footprint_bytes(g)
        rows.append(
            {
                "graph": name,
                "vertices": g.num_vertices,
                "edges": g.num_edges,
                "in_memory_size_mb": fp / 2**20,
                "classified_in_memory": fp <= device.memory_bytes,
                "paper_vertices": info.paper_vertices,
                "paper_edges": info.paper_edges,
                "paper_size": info.paper_size,
                "scale": info.scale,
                "family": info.family,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
def table2_gpu_vs_cpu() -> list[dict]:
    rows = []
    for name in TABLE2_GRAPHS:
        g = prepared_graph(name, "BFS")
        prog = make_program("BFS", name)
        trace = get_trace(name, "BFS")
        xs = XStream().run(g, prog, trace=trace)
        cu = CuSha().run(g, prog, trace=trace)
        paper = TABLE2[name]
        rows.append(
            {
                "graph": name,
                "xstream_ms": xs.sim_time * 1e3,
                "cusha_ms": cu.sim_time * 1e3,
                "speedup": xs.sim_time / cu.sim_time,
                "paper_xstream_ms": paper["X-Stream"],
                "paper_cusha_ms": paper["CuSha"],
                "paper_speedup": paper["X-Stream"] / paper["CuSha"],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 3 (frontier dynamics, four cases)
# ----------------------------------------------------------------------
FIG3_CASES = [
    ("cage15", "Pagerank"),
    ("nlpkkt160", "Pagerank"),
    ("cage15", "BFS"),
    ("orkut", "CC"),
]


def fig3_frontier() -> dict[str, list[int]]:
    return {
        f"{name}-{alg}": get_gr(name, alg).frontier_history
        for name, alg in FIG3_CASES
    }


# ----------------------------------------------------------------------
# Figure 4 (transfer mechanisms)
# ----------------------------------------------------------------------
def fig4_transfer(n_elements: int = 100_000_000) -> dict:
    model = TransferModel(spec=DeviceSpec())
    table = model.compare(n_elements)
    return {
        pattern: {
            mech: {
                "seconds": t,
                "gbps": n_elements * 8 / t / 1e9,
            }
            for mech, t in row.items()
        }
        for pattern, row in table.items()
    }


# ----------------------------------------------------------------------
# Figure 5 (overlap schemes on out-of-core matmul)
# ----------------------------------------------------------------------
def fig5_overlap(sizes=(512, 1024, 2048, 4096, 8192)) -> dict:
    data = matmul.sweep(list(sizes), stripe_rows=50)
    return {
        "sizes": list(sizes),
        "times": data,
        "speedups": {
            scheme: {
                n: data["unoptimized"][n] / data[scheme][n] for n in sizes
            }
            for scheme in matmul.SCHEMES
        },
    }


# ----------------------------------------------------------------------
# Table 3 + Figures 13/14
# ----------------------------------------------------------------------
def table3_out_of_memory() -> dict[str, dict[str, dict[str, float]]]:
    """graph -> framework -> algorithm -> simulated seconds."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for name in OUT_OF_MEMORY:
        out[name] = {"GraphChi": {}, "X-Stream": {}, "GR": {}}
        for alg in ALGORITHMS:
            g = prepared_graph(name, alg)
            trace = get_trace(name, alg)
            prog = make_program(alg, name)
            out[name]["GraphChi"][alg] = GraphChi().run(g, prog, trace=trace).sim_time
            out[name]["X-Stream"][alg] = XStream().run(g, prog, trace=trace).sim_time
            out[name]["GR"][alg] = get_gr(name, alg).sim_time
    return out


def fig13_14_speedups(table3: dict | None = None) -> dict:
    """GR speedups over GraphChi (Fig 13) and X-Stream (Fig 14)."""
    data = table3 or table3_out_of_memory()
    speedups = {"GraphChi": {}, "X-Stream": {}}
    for baseline in speedups:
        for name, cols in data.items():
            speedups[baseline][name] = {
                alg: cols[baseline][alg] / cols["GR"][alg] for alg in ALGORITHMS
            }
    flat = {
        b: [v for per_g in speedups[b].values() for v in per_g.values()]
        for b in speedups
    }
    return {
        "speedups": speedups,
        "average": {b: float(np.mean(flat[b])) for b in flat},
        "max": {b: float(np.max(flat[b])) for b in flat},
        "gr_losses": {
            b: [
                (name, alg)
                for name, per_g in speedups[b].items()
                for alg, v in per_g.items()
                if v < 1.0
            ]
            for b in speedups
        },
    }


# ----------------------------------------------------------------------
# Table 4
# ----------------------------------------------------------------------
def table4_in_memory() -> dict[str, dict[str, dict[str, float]]]:
    """graph -> framework -> algorithm -> simulated milliseconds."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for name in IN_MEMORY_TABLE4:
        out[name] = {"MapGraph": {}, "CuSha": {}, "GR": {}}
        for alg in ALGORITHMS:
            g = prepared_graph(name, alg)
            trace = get_trace(name, alg)
            prog = make_program(alg, name)
            out[name]["MapGraph"][alg] = MapGraph().run(g, prog, trace=trace).sim_time * 1e3
            out[name]["CuSha"][alg] = CuSha().run(g, prog, trace=trace).sim_time * 1e3
            out[name]["GR"][alg] = get_gr(name, alg).sim_time * 1e3
    return out


# ----------------------------------------------------------------------
# Figure 15 (memcpy optimization)
# ----------------------------------------------------------------------
def fig15_memcpy() -> dict:
    """Per (graph, algorithm): unoptimized vs optimized memcpy seconds."""
    rows = {}
    for name in OUT_OF_MEMORY:
        rows[name] = {}
        for alg in ALGORITHMS:
            opt = get_gr(name, alg, optimized=True)
            unopt = get_gr(name, alg, optimized=False)
            rows[name][alg] = {
                "unoptimized_memcpy_s": unopt.memcpy_time,
                "optimized_memcpy_s": opt.memcpy_time,
                "improvement_pct": 100.0 * (1.0 - opt.memcpy_time / unopt.memcpy_time),
                "optimized_total_s": opt.sim_time,
                "unoptimized_total_s": unopt.sim_time,
                "memcpy_fraction": unopt.memcpy_fraction,
            }
    improvements = [c["improvement_pct"] for per_g in rows.values() for c in per_g.values()]
    return {
        "cells": rows,
        "average_improvement_pct": float(np.mean(improvements)),
        "max_improvement_pct": float(np.max(improvements)),
    }


# ----------------------------------------------------------------------
# Figures 16 / 17 (frontier dynamics on the large graphs)
# ----------------------------------------------------------------------
FIG16_ALGS = ("BFS", "Pagerank", "CC")


def fig16_frontier_large() -> dict[str, dict[str, list[int]]]:
    return {
        name: {alg: get_gr(name, alg).frontier_history for alg in FIG16_ALGS}
        for name in OUT_OF_MEMORY
    }


def fig17_low_activity(threshold: float = 0.5) -> dict[str, dict[str, float]]:
    """% iterations below `threshold` of the max lifetime frontier."""
    out: dict[str, dict[str, float]] = {}
    for name in OUT_OF_MEMORY:
        out[name] = {}
        for alg in FIG16_ALGS:
            history = get_gr(name, alg).frontier_history
            peak = max(history) if history else 0
            below = sum(1 for s in history if s < threshold * peak) if peak else len(history)
            out[name][alg] = 100.0 * below / max(len(history), 1)
    return out


# ----------------------------------------------------------------------
# Ablations (beyond the paper's figures)
# ----------------------------------------------------------------------
def ablation_optimizations(name: str = "kron_g500-logn21", algs=("BFS", "Pagerank")) -> dict:
    """One-at-a-time optimization knockouts plus the fuse-gather extension."""
    variants = {
        "optimized": GraphReduceOptions(),
        "no_frontier_skipping": GraphReduceOptions(frontier_skipping=False),
        "no_fusion_elimination": GraphReduceOptions(fusion=False),
        "no_async_spray": GraphReduceOptions(async_streams=False, spray=False),
        "no_spray_only": GraphReduceOptions(spray=False),
        "unoptimized": GraphReduceOptions.unoptimized(),
        "fuse_gather_extension": GraphReduceOptions(fuse_gather=True),
        "greedy_cache_extension": GraphReduceOptions(cache_policy="greedy"),
    }
    out: dict[str, dict[str, dict[str, float]]] = {}
    for alg in algs:
        g = prepared_graph(name, alg)
        out[alg] = {}
        for label, opts in variants.items():
            r = GraphReduce(g, options=opts).run(make_program(alg, name))
            out[alg][label] = {
                "total_s": r.sim_time,
                "memcpy_s": r.memcpy_time,
                "h2d_bytes": float(r.stats.h2d_bytes),
                "kernel_launches": float(r.stats.kernel_launches),
            }
    return out
