"""Unit tests for the tree topology and the per-vector tree fold oracle."""

import numpy as np
import pytest

from repro.collectives.ops import MeanOp, SaturatingSumOp
from repro.collectives.topology import RingTopology, TreeTopology
from reference import tree_allreduce


class TestTreeTopology:
    def test_root_has_no_parent(self):
        assert TreeTopology(7).parent(0) is None

    def test_parent_child_consistency(self):
        topology = TreeTopology(7)
        for rank in range(1, 7):
            assert rank in topology.children(topology.parent(rank))

    def test_children_bounded_by_world_size(self):
        topology = TreeTopology(4)
        assert topology.children(1) == [3]
        assert topology.children(3) == []

    def test_depth_single_worker(self):
        assert TreeTopology(1).depth() == 0

    def test_depth_grows_logarithmically(self):
        assert TreeTopology(2).depth() == 1
        assert TreeTopology(8).depth() == 3
        assert TreeTopology(64).depth() == 6

    def test_reduce_order_visits_everyone_once(self):
        order = TreeTopology(9).reduce_order()
        assert sorted(order) == list(range(9))
        assert order[-1] == 0  # root last

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            TreeTopology(4).children(4)


class TestRingTopology:
    def test_neighbours_wrap(self):
        ring = RingTopology(4)
        assert ring.next_rank(3) == 0
        assert ring.prev_rank(0) == 3

    def test_hops_count(self):
        assert len(RingTopology(5).hops()) == 5

    def test_crosses_nodes_paper_testbed(self):
        from repro.simulator.cluster import paper_testbed

        assert RingTopology(4).crosses_nodes(paper_testbed())

    def test_crosses_nodes_rejects_mismatch(self):
        from repro.simulator.cluster import paper_testbed

        with pytest.raises(ValueError):
            RingTopology(8).crosses_nodes(paper_testbed())


class TestTreeAllReduce:
    def test_sum_matches_numpy(self):
        rng = np.random.default_rng(3)
        vectors = [rng.standard_normal(50) for _ in range(5)]
        np.testing.assert_allclose(
            tree_allreduce(vectors), np.sum(vectors, axis=0), rtol=1e-12
        )

    def test_mean(self):
        vectors = [np.full(4, float(i)) for i in range(4)]
        np.testing.assert_allclose(tree_allreduce(vectors, MeanOp()), np.full(4, 1.5))

    def test_single_worker(self):
        vector = np.arange(5, dtype=float)
        np.testing.assert_allclose(tree_allreduce([vector]), vector)

    def test_saturation_applies_per_hop(self):
        op = SaturatingSumOp(bits=4)
        vectors = [np.array([6.0]) for _ in range(4)]
        assert tree_allreduce(vectors, op)[0] == 7

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            tree_allreduce([np.ones(3), np.ones(4)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tree_allreduce([])
