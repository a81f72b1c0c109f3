"""The four benchmark workloads: inputs, queries and reference checks.

Each workload generates its inputs from the seed (untimed), builds an
engine from them (``cold_start``), answers one query on it (``query``)
and checks a query's values against an independent reference
(``verify``). The program under test only ever receives the generated
arrays or a store path. All run single-threaded on the streaming
simulated machine (``cache_policy="never"``); the kernel backend is
left at the library default.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.core.batch import BatchRunner
from repro.core.partition import PartitionEngine
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.core.shardstore import ShardStore
from repro.graph.generators import grid_road, rmat
from repro.graph.properties import footprint_bytes

OPTIONS = GraphReduceOptions(
    cache_policy="never", parallel_shards=0, host_prefetch=False
)
PAGERANK_ROUNDS = 20
DAMPING = 0.85
BATCH = 64
#: float32 engine values against float64 references
REL_TOLERANCE = 1e-4


@dataclass
class Outcome:
    """One query's result: the values to check and the exact counters."""

    values: "np.ndarray | list[np.ndarray]"
    run: object  #: the query's GraphReduceResult
    batch: dict | None = None

    def signature(self) -> tuple:
        """Equal for every repetition of one query (bit-identity)."""
        digest = hashlib.blake2b(digest_size=16)
        for part in self.values if isinstance(self.values, list) else [self.values]:
            digest.update(np.ascontiguousarray(part))
        return digest.hexdigest(), self.run.sim_time


class Workload:
    name: str
    partitions: int
    #: nominal seconds of one warm repetition on the 2-core reference;
    #: fixes the repetition count for a given ``--seconds``
    rep_s: float
    traced_reps: int = 3

    def warm_reps(self, seconds: float) -> int:
        return max(2, math.ceil(seconds / self.rep_s))

    def inputs(self, seed: int, quick: bool) -> dict:
        raise NotImplementedError

    def cold_start(self, inputs: dict, workdir: Path) -> GraphReduce:
        return GraphReduce(
            inputs["graph"], options=OPTIONS.replace(num_partitions=self.partitions)
        )

    def query(self, engine: GraphReduce, inputs: dict) -> Outcome:
        raise NotImplementedError

    def work_edges(self, inputs: dict) -> int:
        """Fixed numerator of ``edges_per_s``."""
        raise NotImplementedError

    def verify(self, inputs: dict, outcome: Outcome) -> str | None:
        """None when the values match the reference, else what differs."""
        raise NotImplementedError

    def store_bytes(self, engine: GraphReduce) -> int:
        return 0


def _rmat_graph(seed: int, quick: bool):
    if quick:
        return rmat(10, 8_000, seed=seed)
    return rmat(17, 2_000_000, seed=seed)


def _relative_error(values: np.ndarray, reference: np.ndarray) -> float:
    """Relative L-infinity error; infinite when the unreached sets differ."""
    finite = np.isfinite(reference)
    if not np.array_equal(finite, np.isfinite(values)):
        return math.inf
    ref = reference[finite]
    scale = np.where(ref != 0, np.abs(ref), 1.0)
    return float(np.max(np.abs(values[finite] - ref) / scale, initial=0.0))


class PageRankRam(Workload):
    name = "pr_ram"
    partitions = 16
    rep_s = 0.67

    def inputs(self, seed, quick):
        return {"graph": _rmat_graph(seed, quick)}

    def query(self, engine, inputs):
        run = engine.run(PageRank(tolerance=None, max_iterations=PAGERANK_ROUNDS))
        return Outcome(run.vertex_values, run)

    def work_edges(self, inputs):
        return inputs["graph"].num_edges * PAGERANK_ROUNDS

    def verify(self, inputs, outcome):
        # float64 power iteration, same damping and dangling rule: a
        # vertex without out-edges contributes to nobody.
        import scipy.sparse as sp

        g = inputs["graph"]
        n = g.num_vertices
        pull = sp.csr_matrix(
            (np.ones(g.num_edges), (g.dst, g.src)), shape=(n, n)
        )
        inv_deg = 1.0 / np.maximum(g.out_degrees(), 1)
        rank = np.ones(n)
        for _ in range(PAGERANK_ROUNDS):
            rank = (1.0 - DAMPING) + DAMPING * (pull @ (rank * inv_deg))
        err = _relative_error(outcome.values, rank)
        if err > REL_TOLERANCE:
            return f"pagerank differs from the float64 reference by {err:.3g}"
        return None


class PageRankOoc(PageRankRam):
    name = "pr_ooc"
    rep_s = 2.5

    def cold_start(self, inputs, workdir):
        # A fresh store directory per cold start; the previous one is
        # dropped first so the work directory holds one store at a time.
        graph = inputs["graph"]
        root = workdir / self.name
        shutil.rmtree(root, ignore_errors=True)
        path = root / "store"
        sharded = PartitionEngine().partition(graph, self.partitions, "edge_balanced")
        ShardStore.save(sharded, path)
        del sharded
        return GraphReduce(
            shard_store=str(path),
            options=OPTIONS.replace(
                num_partitions=self.partitions,
                memory_budget=footprint_bytes(graph) // 4,
            ),
        )

    def store_bytes(self, engine):
        return engine.shard_store.disk_bytes()


class SsspRoad(Workload):
    name = "sssp_road"
    partitions = 8
    rep_s = 4.4
    traced_reps = 1

    def inputs(self, seed, quick):
        side = 32 if quick else 384
        grid = grid_road(side, side, diagonal_fraction=0.15, highways=0, seed=seed)
        return {"graph": grid.with_random_weights(seed=seed)}

    def query(self, engine, inputs):
        run = engine.run(SSSP(source=0))
        return Outcome(run.vertex_values, run)

    def work_edges(self, inputs):
        return inputs["graph"].num_edges

    def verify(self, inputs, outcome):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import dijkstra

        g = inputs["graph"]
        n = g.num_vertices
        adjacency = sp.csr_matrix(
            (g.weights.astype(np.float64), (g.src, g.dst)), shape=(n, n)
        )
        err = _relative_error(outcome.values, dijkstra(adjacency, indices=0))
        if err > REL_TOLERANCE:
            return f"sssp differs from scipy dijkstra by {err:.3g}"
        return None


class MsbfsBatch(Workload):
    name = "msbfs_batch"
    partitions = 16
    rep_s = 0.77

    def inputs(self, seed, quick):
        graph = _rmat_graph(seed, quick)
        candidates = np.flatnonzero(graph.out_degrees() > 0)
        rng = np.random.default_rng(seed)
        return {
            "graph": graph,
            "sources": rng.choice(candidates, BATCH, replace=False),
        }

    def query(self, engine, inputs):
        runner = BatchRunner(engine, batch_size=BATCH, layout="bits")
        report = runner.run_bfs(inputs["sources"])
        run = report.runs[0]
        return Outcome(
            [q.values for q in report.queries],
            run,
            {**run.batch, "retired_early": report.stats["retired_early"]},
        )

    def work_edges(self, inputs):
        return inputs["graph"].num_edges * BATCH

    def verify(self, inputs, outcome):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import shortest_path

        g = inputs["graph"]
        n = g.num_vertices
        adjacency = sp.csr_matrix(
            (np.ones(g.num_edges), (g.src, g.dst)), shape=(n, n)
        )
        depths = shortest_path(
            adjacency, method="D", unweighted=True, indices=inputs["sources"]
        )
        for k, values in enumerate(outcome.values):
            if not np.array_equal(values, depths[k].astype(np.float32)):
                return f"bfs depths of query {k} differ from scipy shortest_path"
        return None


WORKLOADS = {w.name: w for w in (PageRankRam(), PageRankOoc(), SsspRoad(), MsbfsBatch())}
