#!/usr/bin/env python
"""The future-work extensions in one tour: multi-GPU scaling, adaptive

CPU/GPU placement, and energy accounting.

Run:  python examples/advanced_features.py
"""

from repro.algorithms import BFSGather, PageRank
from repro.core import GraphReduce, GraphReduceOptions
from repro.core.multigpu import MultiGPUGraphReduce
from repro.core.scheduler import AdaptiveEngine
from repro.graph.generators import rmat, road_network
from repro.sim.energy import EnergyModel


def demo_multigpu(graph) -> None:
    print("--- multi-GPU scaling (future work 1) ---")
    opts = GraphReduceOptions(cache_policy="never")
    base = None
    for n in (1, 2, 4):
        r = MultiGPUGraphReduce(graph, num_devices=n, options=opts).run(
            PageRank(tolerance=1e-3)
        )
        base = base or r.sim_time
        print(f"  {n} device(s): {r.sim_time:8.4f}s  ({base / r.sim_time:.2f}x)")


def demo_adaptive() -> None:
    print("--- adaptive CPU/GPU placement (future work 4) ---")
    road = road_network(120, 120, 300, seed=5)
    r = AdaptiveEngine(road).run(BFSGather(source=0))
    gpu_iters = sum(1 for p in r.placement if p == "gpu")
    print(f"  road-network BFS, {r.iterations} iterations: "
          f"{gpu_iters} on GPU, {r.iterations - gpu_iters} on CPU "
          f"({r.switches} switches, total {r.sim_time * 1e3:.2f} ms)")


def demo_energy(graph) -> None:
    print("--- energy accounting (future work 5) ---")
    model = EnergyModel()
    opt = GraphReduce(graph, options=GraphReduceOptions(cache_policy="never")).run(
        PageRank(tolerance=1e-3)
    )
    unopt = GraphReduce(graph, options=GraphReduceOptions.unoptimized()).run(
        PageRank(tolerance=1e-3)
    )
    e_opt = model.energy(opt.trace, makespan=opt.sim_time)
    e_unopt = model.energy(unopt.trace, makespan=unopt.sim_time)
    print(f"  PageRank energy: unoptimized {e_unopt.total_j:.2f} J -> "
          f"optimized {e_opt.total_j:.2f} J "
          f"({100 * (1 - e_opt.total_j / e_unopt.total_j):.0f}% saved, "
          f"avg draw {e_opt.average_watts:.0f} W)")


def main() -> None:
    graph = rmat(13, 300_000, seed=11)
    print(f"input: {graph}\n")
    demo_multigpu(graph)
    demo_adaptive()
    demo_energy(graph)


if __name__ == "__main__":
    main()
