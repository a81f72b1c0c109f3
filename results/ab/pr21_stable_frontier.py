"""Off-benchmark A/B for PR 21: the regime the deleted plan cache served.

Tolerance-driven PageRank on the benchmark's rmat-17 graph holds "every
vertex with an in-edge" as its frontier for many iterations: a *stable
non-dense* frontier, the one case an epoch-keyed sparse plan cache can
hit. This script times it on one checkout and prints one JSON line; the
driver mode alternates a parent and a change checkout, each run in a
fresh interpreter.

    python results/ab/pr21_stable_frontier.py --src CHECKOUT/src --backend numpy
    python results/ab/pr21_stable_frontier.py --drive PARENT CHANGE --pairs 3
"""

import argparse
import hashlib
import json
import subprocess
import sys
import time

PROGRAMS = ("pagerank", "cc", "sssp", "bfs")


def one(src: str, backend: str, program: str, direction: str) -> dict:
    sys.path.insert(0, src)
    import numpy as np

    from repro.algorithms import BFSGather, ConnectedComponents, PageRank, SSSP
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.graph.generators import rmat

    graph = rmat(17, 2_000_000, seed=7)
    if program == "sssp":
        graph = graph.with_random_weights(seed=11)
    make = {
        "pagerank": lambda: PageRank(tolerance=1e-4),
        "cc": lambda: ConnectedComponents(),
        "sssp": lambda: SSSP(source=0),
        "bfs": lambda: BFSGather(source=0),
    }[program]
    opts = GraphReduceOptions(
        cache_policy="never", parallel_shards=0, num_partitions=16,
        kernel_backend=backend, direction=direction,
    )
    engine = GraphReduce(graph, options=opts)
    engine.run(make())  # warm-up: allocator, imports
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        run = engine.run(make())
        walls.append(time.perf_counter() - t0)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(run.vertex_values))
    history = hashlib.blake2b(
        json.dumps(run.frontier_history).encode(), digest_size=8
    ).hexdigest()
    pc = run.plan_cache or {}
    return {
        "program": program, "backend": backend, "direction": direction,
        "wall_s": sorted(walls)[1], "walls": walls,
        "values": digest.hexdigest(), "history": history,
        "iterations": run.iterations, "sim_time": run.sim_time,
        "hits": pc.get("hits"), "misses": pc.get("misses"),
        "sparse_bypass": pc.get("sparse_bypass"),
        "invalidations": pc.get("invalidations"),
    }


def drive(parent: str, change: str, pairs: int, cases) -> None:
    for program, backend, direction in cases:
        for pair in range(pairs):
            order = (("parent", parent), ("change", change))
            if pair % 2:
                order = order[::-1]
            for side, root in order:
                out = subprocess.run(
                    [sys.executable, __file__, "--src", f"{root}/src",
                     "--backend", backend, "--program", program,
                     "--direction", direction],
                    check=True, capture_output=True, text=True,
                ).stdout.strip().splitlines()[-1]
                print(json.dumps({"side": side, "pair": pair, **json.loads(out)}),
                      flush=True)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--src")
    ap.add_argument("--backend", default="numpy")
    ap.add_argument("--program", default="pagerank", choices=PROGRAMS)
    ap.add_argument("--direction", default="push")
    ap.add_argument("--drive", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--full", action="store_true",
                    help="also CC / SSSP / BFS and direction=auto")
    args = ap.parse_args()
    if args.drive:
        cases = [("pagerank", "numpy", "push"), ("pagerank", "off", "push")]
        if args.full:
            cases += [("cc", "numpy", "push"), ("sssp", "numpy", "push"),
                      ("bfs", "numpy", "push"), ("bfs", "numpy", "auto"),
                      ("sssp", "numpy", "auto")]
        drive(*args.drive, args.pairs, cases)
    else:
        print(json.dumps(one(args.src, args.backend, args.program, args.direction)))
