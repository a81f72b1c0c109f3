"""Frontier Manager tracking and Phase Fusion Engine plans."""

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, PageRank
from repro.core.api import GASProgram
from repro.core.frontier import FrontierManager
from repro.core.fusion import PHASES, PhaseGroup, build_plan, movement_savings
from repro.core.partition import PartitionEngine
from repro.graph.generators import erdos_renyi


@pytest.fixture
def sharded():
    return PartitionEngine().partition(erdos_renyi(40, 200, seed=1), 4)


class TestFrontier:
    def test_initial_state(self, sharded):
        init = np.zeros(40, dtype=bool)
        init[3] = True
        fm = FrontierManager(sharded, init)
        assert fm.size == 1
        assert fm.history == [1]
        assert fm.iteration == 0

    def test_shape_validation(self, sharded):
        with pytest.raises(ValueError):
            FrontierManager(sharded, np.zeros(7, dtype=bool))

    def test_counts_per_shard(self, sharded):
        mask = np.zeros(40, dtype=bool)
        mask[0] = mask[39] = True
        fm = FrontierManager(sharded, mask)
        counts = fm.counts_per_shard(mask)
        assert counts.sum() == 2
        assert counts[0] >= 1 and counts[-1] >= 1

    def test_active_and_changed_shards(self, sharded):
        mask = np.zeros(40, dtype=bool)
        mask[0] = True
        fm = FrontierManager(sharded, mask)
        assert fm.active_shards().tolist() == [0]
        assert fm.changed_shards().tolist() == []
        fm.mark_changed(np.array([39]))
        assert fm.changed_shards().tolist() == [sharded.num_partitions - 1]

    def test_advance_promotes_next(self, sharded):
        fm = FrontierManager(sharded, np.zeros(40, dtype=bool))
        fm.activate_next(np.array([5, 6]))
        fm.mark_changed(np.array([1]))
        fm.advance()
        assert fm.size == 2
        assert fm.active_in(0, 40).tolist() == [5, 6]
        assert fm.changed_in(0, 40).tolist() == []
        assert fm.history == [0, 2]
        assert fm.iteration == 1

    def test_active_in_window(self, sharded):
        mask = np.zeros(40, dtype=bool)
        mask[[2, 10, 35]] = True
        fm = FrontierManager(sharded, mask)
        assert fm.active_in(0, 11).tolist() == [2, 10]
        assert fm.active_in(11, 40).tolist() == [35]

    def test_low_activity_fraction(self, sharded):
        fm = FrontierManager(sharded, np.zeros(40, dtype=bool))
        fm.history = [1, 10, 10, 4, 4, 1]
        # peak 10; below 5: sizes 1, 4, 4, 1 -> 4 of 6
        assert fm.low_activity_fraction(0.5) == pytest.approx(4 / 6)

    def test_low_activity_all_zero(self, sharded):
        fm = FrontierManager(sharded, np.zeros(40, dtype=bool))
        fm.history = [0, 0]
        assert fm.low_activity_fraction() == 1.0


class TestFusion:
    def test_bfs_plan_fuses_apply_frontier(self):
        plan = build_plan(BFS(), optimized=True)
        assert len(plan) == 1
        assert plan[0].phases == ("apply", "frontier_activate")
        assert plan[0].h2d_buffers == ("out_topology",)
        assert plan[0].d2h_buffers == ()

    def test_gather_plan_pagerank_paper_faithful(self):
        """Default plan mirrors Figure 12: gatherMap and gatherReduce are

        separate phases and the edge update array crosses PCIe twice."""
        plan = build_plan(PageRank(), optimized=True)
        names = [g.name for g in plan]
        assert names == ["gather_map", "gather_reduce", "apply", "frontier_activate"]
        gmap, greduce = plan[0], plan[1]
        assert gmap.h2d_buffers == ("in_topology",)
        assert gmap.d2h_buffers == ("edge_update_array",)
        assert greduce.h2d_buffers == ("edge_update_array",)
        # apply touches only resident buffers
        assert plan[2].h2d_buffers == ()
        # so only gatherMap and FrontierActivate read shard edges
        assert [g.streams_edges for g in plan] == [True, False, False, True]

    def test_gather_fusion_extension(self):
        plan = build_plan(PageRank(), optimized=True, fuse_gather=True)
        names = [g.name for g in plan]
        assert names == ["gather", "apply", "frontier_activate"]
        gather = plan[0]
        assert gather.phases == ("gather_map", "gather_reduce")
        assert gather.h2d_buffers == ("in_topology",)
        assert gather.d2h_buffers == ()  # update array never leaves device
        assert gather.scratch_buffers == ("edge_update_array",)

    def test_sssp_moves_weights(self):
        plan = build_plan(SSSP(), optimized=True)
        assert "in_weights" in plan[0].h2d_buffers

    def test_scatter_plan_fuses_with_frontier(self):
        class WithScatter(GASProgram):
            edge_dtype = np.float32

            def gather_map(self, ctx, src_ids, dst_ids, src_vals, weights, edge_states):
                return src_vals

            def apply(self, ctx, vids, old_vals, gathered, has_gather, iteration):
                return old_vals, np.zeros(len(vids), dtype=bool)

            def scatter(self, ctx, src_ids, src_vals, weights, edge_states):
                return edge_states

        plan = build_plan(WithScatter(), optimized=True, fuse_gather=True)
        names = [g.name for g in plan]
        assert names == ["gather", "apply", "scatter_fa"]
        sfa = plan[-1]
        assert sfa.phases == ("scatter", "frontier_activate")
        assert "out_edge_state" in sfa.h2d_buffers
        assert sfa.d2h_buffers == ("out_edge_state",)

    def test_unoptimized_plan_runs_all_five(self):
        plan = build_plan(BFS(), optimized=False)
        assert tuple(g.name for g in plan) == PHASES
        for g in plan:
            assert g.selector == "all"
            assert "in_topology" in g.h2d_buffers
            assert "out_topology" in g.h2d_buffers
            assert "edge_update_array" in g.d2h_buffers
            assert g.streams_edges  # the full shard moves in every phase

    def test_phase_group_validation(self):
        with pytest.raises(ValueError):
            PhaseGroup("x", ("bogus",), "active", (), ())
        with pytest.raises(ValueError):
            PhaseGroup("x", ("apply",), "sometimes", (), ())

    def test_movement_savings_report(self):
        s = movement_savings(BFS())
        assert s["eliminates_gather_buffers"]
        assert s["fuses_apply_frontier"]
        s2 = movement_savings(PageRank())
        assert s2["fuses_gather_map_reduce"]
        assert not s2["fuses_apply_frontier"]
