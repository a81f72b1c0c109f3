"""Extensions beyond the paper's evaluation: multi-GPU, SSD backing,

adaptive CPU/GPU scheduling (the Section-8 future-work items)."""

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank, ConnectedComponents
from repro.core.multigpu import MultiGPUGraphReduce
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.core.scheduler import AdaptiveEngine
from repro.graph.generators import erdos_renyi, rmat, road_network
from repro.sim.specs import HostSpec, MachineSpec


@pytest.fixture(scope="module")
def kron():
    return rmat(11, 30_000, seed=9)


class TestMultiGPU:
    def test_results_match_single_device(self, kron):
        single = GraphReduce(kron).run(BFS(source=1))
        for n in (1, 2, 4):
            multi = MultiGPUGraphReduce(kron, num_devices=n).run(BFS(source=1))
            assert np.array_equal(multi.vertex_values, single.vertex_values)
            assert multi.iterations == single.iterations
            assert multi.num_devices == n

    def test_invalid_device_count(self, kron):
        with pytest.raises(ValueError):
            MultiGPUGraphReduce(kron, num_devices=0)

    def test_streaming_work_scales(self, kron):
        """More devices split the shard streaming; on a streaming-bound

        run the makespan improves (sub-linearly, replication eats in)."""
        opts = GraphReduceOptions(cache_policy="never", num_partitions=8)
        t1 = MultiGPUGraphReduce(kron, 1, options=opts).run(PageRank(tolerance=1e-3))
        t2 = MultiGPUGraphReduce(kron, 2, options=opts).run(PageRank(tolerance=1e-3))
        assert t2.sim_time < t1.sim_time
        assert t2.sim_time > t1.sim_time / 2  # replication is not free

    def test_replication_traffic_grows_with_devices(self, kron):
        opts = GraphReduceOptions(cache_policy="never", num_partitions=8)
        r2 = MultiGPUGraphReduce(kron, 2, options=opts).run(BFS(source=1))
        r4 = MultiGPUGraphReduce(kron, 4, options=opts).run(BFS(source=1))
        assert r4.replication_bytes > r2.replication_bytes


class TestSSDBacking:
    def test_ssd_slower_than_dram_when_spilled(self, kron):
        # Shrink host memory so most of the graph spills to flash.
        machine = MachineSpec(host=HostSpec(memory_bytes=100_000))
        dram = GraphReduce(
            kron, options=GraphReduceOptions(cache_policy="never")
        ).run(BFS(source=1))
        ssd = GraphReduce(
            kron,
            machine=machine,
            options=GraphReduceOptions(cache_policy="never", host_backing="ssd"),
        ).run(BFS(source=1))
        assert np.array_equal(dram.vertex_values, ssd.vertex_values)
        assert ssd.sim_time > dram.sim_time
        assert ssd.trace.total_duration("storage") > 0

    def test_no_spill_when_graph_fits_host(self, kron):
        r = GraphReduce(
            kron, options=GraphReduceOptions(cache_policy="never", host_backing="ssd")
        ).run(BFS(source=1))
        # Host DRAM is large at reproduction scale; nothing spills.
        assert r.trace.total_duration("storage") == 0

    def test_unknown_backing_rejected(self):
        # refused at construction, before any partitioning or upload
        for backing in ("tape", "nvme"):
            with pytest.raises(ValueError, match="host_backing .*valid: dram, ssd"):
                GraphReduceOptions(host_backing=backing)


class TestAdaptiveScheduler:
    def test_results_match_graphreduce(self, kron):
        gr = GraphReduce(kron).run(ConnectedComponents())
        ad = AdaptiveEngine(kron).run(ConnectedComponents())
        assert np.array_equal(ad.vertex_values, gr.vertex_values)
        assert ad.iterations == gr.iterations

    def test_sparse_tail_runs_on_cpu(self):
        """High-diameter BFS: tiny frontiers should land on the CPU."""
        g = road_network(60, 60, 100, seed=4)
        r = AdaptiveEngine(g).run(BFS(source=0))
        assert r.converged
        assert "cpu" in r.placement

    def test_dense_iterations_run_on_gpu(self, kron):
        r = AdaptiveEngine(kron).run(PageRank(tolerance=1e-3))
        # The all-active early iterations belong on the GPU.
        assert r.placement[0] == "gpu"

    def test_switching_is_paid_and_counted(self):
        g = road_network(60, 60, 100, seed=4)
        r = AdaptiveEngine(g).run(BFS(source=0))
        if r.switches:
            assert r.switch_time > 0
        assert r.sim_time == pytest.approx(r.gpu_time + r.cpu_time + r.switch_time)

    def test_placement_log_covers_every_iteration(self, kron):
        r = AdaptiveEngine(kron).run(BFS(source=1))
        assert len(r.placement) == r.iterations
        assert set(r.placement) <= {"gpu", "cpu"}
