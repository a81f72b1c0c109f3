"""Paper-fidelity gate: the shapes EXPERIMENTS.md reports, asserted over

the committed ``results/*.json``. Every simulated number may move in its
last bits when the simulator changes; who wins each comparison, and how
the advantage orders, may not.
"""

import json

import pytest

from repro.bench.reporting import RESULTS_DIR

BFS_SSSP = ("BFS", "SSSP")


def load(name):
    return json.loads((RESULTS_DIR / f"{name}.json").read_text())


def test_table2_gpu_wins_every_input():
    rows = {row["graph"]: row["speedup"] for row in load("table2_gpu_vs_cpu")}
    assert len(rows) == 6
    assert all(s > 1 for s in rows.values())
    # Largest advantage on the Kronecker graph, smallest on the road network.
    assert max(rows, key=rows.get) == "kron_g500-logn20"
    assert min(rows, key=rows.get) == "belgium_osm"


class TestTable3:
    table = load("table3_outofmem")

    def test_gr_wins_every_bfs_sssp_cell(self):
        for graph, fw in self.table.items():
            for algo in BFS_SSSP:
                assert fw["GR"][algo] < min(fw["X-Stream"][algo], fw["GraphChi"][algo]), (
                    graph, algo)

    def test_xstream_beats_graphchi_everywhere(self):
        for graph, fw in self.table.items():
            for algo, seconds in fw["X-Stream"].items():
                assert seconds < fw["GraphChi"][algo], (graph, algo)

    def speedups(self, algos=None):
        return {
            (graph, algo): fw["X-Stream"][algo] / fw["GR"][algo]
            for graph, fw in self.table.items()
            for algo in fw["GR"]
            if algos is None or algo in algos
        }

    def test_cage15_bfs_is_xstreams_closest_cell(self):
        speedup = self.speedups()
        assert min(speedup, key=speedup.get) == ("cage15", "BFS")

    def test_nlpkkt160_cc_among_grs_weakest_cc_cells(self):
        # The paper's one GR loss (nlpkkt160 CC to X-Stream) does not flip
        # here (EXPERIMENTS.md); its trend does: second-weakest CC cell.
        speedup = self.speedups({"CC"})
        weakest = sorted(speedup, key=speedup.get)[:2]
        assert ("nlpkkt160", "CC") in weakest


class TestTable4:
    table = load("table4_inmem")

    def test_gr_within_4x_of_the_best_framework(self):
        for graph, fw in self.table.items():
            for algo, ms in fw["GR"].items():
                assert ms < 4 * min(fw["MapGraph"][algo], fw["CuSha"][algo]), (graph, algo)

    def test_framework_specific_cells(self):
        road, kron = self.table["belgium_osm"], self.table["kron_g500-logn20"]
        assert road["MapGraph"]["BFS"] < road["CuSha"]["BFS"]
        pr = {fw: kron[fw]["Pagerank"] for fw in ("MapGraph", "CuSha", "GR")}
        assert pr["CuSha"] < pr["GR"] < pr["MapGraph"]


def test_fig4_pinned_wins_sequential_explicit_wins_random():
    fig = load("fig4_transfer")
    seq = {m: v["gbps"] for m, v in fig["sequential"].items()}
    rnd = {m: v["gbps"] for m, v in fig["random"].items()}
    assert max(seq, key=seq.get) == "pinned"
    assert max(rnd, key=rnd.get) == "explicit"
    assert min(rnd, key=rnd.get) == "pinned"  # pinned collapses on random


def test_fig5_overlap_ordering():
    speedups = load("fig5_overlap")["speedups"]
    sizes = sorted(speedups["unoptimized"], key=int)
    ct, cc = speedups["compute_transfer"], speedups["compute_compute"]
    for n in sizes:
        assert speedups["unoptimized"][n] == pytest.approx(1.0)
        assert 1 < ct[n] < cc[n], n
    # Compute-compute adds most where stripes underfill the machine.
    extra = [cc[n] / ct[n] for n in sizes]
    assert extra == sorted(extra, reverse=True)


def test_fig15_memcpy_reduction_ordering():
    fig = load("fig15_memcpy")
    for graph, cells in fig["cells"].items():
        gain = {algo: c["improvement_pct"] for algo, c in cells.items()}
        assert max(gain, key=gain.get) == "BFS", graph  # BFS benefits most
        for algo, c in cells.items():
            assert c["memcpy_fraction"] > 0.9, (graph, algo)
            assert c["optimized_memcpy_s"] < c["unoptimized_memcpy_s"]
    assert fig["average_improvement_pct"] > 51.5  # the paper's average


def test_fig17_low_activity_fractions():
    fig = load("fig17_low_activity")
    for graph, share in fig.items():
        if graph == "cage15":
            # Banded structure: a constant-width BFS wavefront.
            assert share["BFS"] < 10
        else:
            assert max(share, key=share.get) == "BFS", graph
    mean = {a: sum(s[a] for s in fig.values()) / len(fig) for a in ("BFS", "Pagerank", "CC")}
    assert max(mean, key=mean.get) == "BFS"
