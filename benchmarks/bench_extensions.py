"""Extension benchmarks beyond the paper's figures: multi-GPU scaling

(future work 1), SSD-backed host (future work 2), adaptive CPU/GPU
placement (future work 4), and energy efficiency (future work 5).
"""

import numpy as np

from repro.algorithms import BFS, PageRank
from repro.bench.reporting import emit, format_table
from repro.bench.runners import get_gr, make_program, prepared_graph
from repro.core.multigpu import MultiGPUGraphReduce
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.core.scheduler import AdaptiveEngine
from repro.sim.energy import EnergyModel
from repro.sim.specs import HostSpec, MachineSpec


def test_multigpu_scaling(once):
    def run():
        graph = prepared_graph("kron_g500-logn21", "Pagerank")
        prog = lambda: make_program("Pagerank", "kron_g500-logn21")
        opts = GraphReduceOptions(cache_policy="never")
        out = {}
        for policy in ("replicated", "partitioned"):
            rows = {}
            for n in (1, 2, 4, 8):
                r = MultiGPUGraphReduce(
                    graph, num_devices=n, options=opts, frontier_policy=policy
                ).run(prog())
                rows[n] = {
                    "sim_time": r.sim_time,
                    "replication_mb": r.replication_bytes / 2**20,
                    "p2p_mb": r.p2p_bytes / 2**20,
                    "host_staged_mb": r.host_staged_bytes / 2**20,
                }
            out[policy] = rows
        return out

    data = once(run)
    rows = [
        [policy, n, cell["sim_time"],
         f"{data[policy][1]['sim_time'] / cell['sim_time']:.2f}x",
         f"{cell['replication_mb']:.1f}MB",
         f"{cell['p2p_mb']:.1f}MB",
         f"{cell['host_staged_mb']:.1f}MB"]
        for policy in data
        for n, cell in data[policy].items()
    ]
    text = format_table(
        "Extension: multi-device scaling, kron_g500-logn21 PageRank",
        ["frontier", "devices", "sim time (s)", "scaling",
         "replication", "peer DMA", "host-staged"],
        rows,
        note="Contiguous shard ownership with sparse changed-only "
        "replication; same-switch pairs (radix 4) use peer DMA, "
        "cross-switch pairs stage through host DRAM (Section 8 item 1).",
    )
    emit("ext_multigpu", text, data)
    for policy in ("replicated", "partitioned"):
        rows = data[policy]
        assert rows[2]["sim_time"] < rows[1]["sim_time"]
        # The committed 1->8 scaling floor (also a tier-1 assert:
        # tests/core/test_multigpu.py::
        # test_multigpu_scales_from_one_to_eight_devices).
        assert rows[1]["sim_time"] / rows[8]["sim_time"] >= 2.0
        # Diminishing returns: 8 devices do not give 8x.
        assert rows[1]["sim_time"] / rows[8]["sim_time"] < 8
        # Topology: 2 and 4 devices share one switch, 8 span two.
        assert rows[2]["host_staged_mb"] == 0 and rows[2]["p2p_mb"] > 0
        assert rows[8]["host_staged_mb"] > 0
    for n in (2, 4, 8):
        assert (
            data["partitioned"][n]["replication_mb"]
            <= data["replicated"][n]["replication_mb"]
        )


def test_ssd_backing(once):
    def run():
        graph = prepared_graph("uk-2002", "BFS")
        prog = lambda: make_program("BFS", "uk-2002")
        small_host = MachineSpec(host=HostSpec(memory_bytes=20 * 2**20))
        dram = GraphReduce(
            graph, options=GraphReduceOptions(cache_policy="never")
        ).run(prog())
        ssd = GraphReduce(
            graph,
            machine=small_host,
            options=GraphReduceOptions(cache_policy="never", host_backing="ssd"),
        ).run(prog())
        return {
            "dram_s": dram.sim_time,
            "ssd_s": ssd.sim_time,
            "storage_busy_s": ssd.trace.total_duration("storage"),
            "slowdown": ssd.sim_time / dram.sim_time,
        }

    data = once(run)
    text = format_table(
        "Extension: SSD-backed host, uk-2002 BFS",
        ["host backing", "sim time (s)"],
        [["DRAM (32GB-class)", data["dram_s"]], ["SSD (spilled)", data["ssd_s"]]],
        note=f"slowdown {data['slowdown']:.1f}x; SSD busy {data['storage_busy_s']:.3f}s "
        "(Section 8 item 2).",
    )
    emit("ext_ssd", text, data)
    assert data["ssd_s"] > data["dram_s"]
    assert data["storage_busy_s"] > 0


def test_adaptive_placement(once):
    def run():
        # PageRank on a skewed graph: dense all-active start (GPU),
        # sparse convergence tail (CPU).
        graph = prepared_graph("orkut", "Pagerank")
        prog = lambda: make_program("Pagerank", "orkut")
        adaptive = AdaptiveEngine(graph).run(prog())
        gr = get_gr("orkut", "Pagerank")
        cpu_iters = sum(1 for p in adaptive.placement if p == "cpu")
        # And the all-CPU regime: a high-diameter traversal never earns
        # its PCIe bill.
        road = prepared_graph("cage15", "BFS")
        tail = AdaptiveEngine(road).run(make_program("BFS", "cage15"))
        return {
            "adaptive_s": adaptive.sim_time,
            "gpu_only_s": gr.sim_time,
            "cpu_iterations": cpu_iters,
            "gpu_iterations": len(adaptive.placement) - cpu_iters,
            "switches": adaptive.switches,
            "cage15_bfs_cpu_fraction": (
                sum(1 for p in tail.placement if p == "cpu") / max(len(tail.placement), 1)
            ),
        }

    data = once(run)
    text = format_table(
        "Extension: adaptive CPU/GPU placement, orkut PageRank",
        ["metric", "value"],
        [[k, v] for k, v in data.items()],
        note="Dense iterations run on the GPU, the sparse tail on the CPU "
        "(Section 8 item 4); high-diameter traversals go all-CPU.",
    )
    emit("ext_adaptive", text, data)
    assert data["cpu_iterations"] > 0
    assert data["gpu_iterations"] > 0
    assert data["switches"] >= 1
    assert data["cage15_bfs_cpu_fraction"] > 0.9


def test_energy_efficiency(once):
    def run():
        model = EnergyModel()
        out = {}
        for name in ("kron_g500-logn21", "nlpkkt160"):
            opt = get_gr(name, "Pagerank", optimized=True)
            unopt = get_gr(name, "Pagerank", optimized=False)
            e_opt = model.energy(opt.trace, makespan=opt.sim_time)
            e_unopt = model.energy(unopt.trace, makespan=unopt.sim_time)
            out[name] = {
                "optimized_j": e_opt.total_j,
                "unoptimized_j": e_unopt.total_j,
                "saving_pct": 100 * (1 - e_opt.total_j / e_unopt.total_j),
                "optimized_w": e_opt.average_watts,
            }
        return out

    data = once(run)
    rows = [
        [name, cell["unoptimized_j"], cell["optimized_j"], f"{cell['saving_pct']:.1f}%"]
        for name, cell in data.items()
    ]
    text = format_table(
        "Extension: energy of PageRank, unoptimized vs optimized GR (joules)",
        ["graph", "unoptimized", "optimized", "energy saved"],
        rows,
        note="Section 8 item 5: the data-movement optimizations cut energy "
        "roughly in proportion to time.",
    )
    emit("ext_energy", text, data)
    for cell in data.values():
        assert cell["optimized_j"] < cell["unoptimized_j"]
