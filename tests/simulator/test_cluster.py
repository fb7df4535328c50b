"""Unit tests for the cluster description."""

import math

import pytest

from repro.api import ExperimentSession
from repro.simulator.cluster import (
    ClusterSpec,
    WorkerClass,
    WorkerProfile,
    dcell_cluster,
    fat_tree_cluster,
    paper_testbed,
    scale_out_cluster,
    torus_cluster,
)
from repro.simulator.nic import NicModel


class TestClusterSpec:
    def test_world_size(self):
        assert ClusterSpec(num_nodes=3, gpus_per_node=4).world_size == 12

    def test_paper_testbed_matches_paper(self):
        cluster = paper_testbed()
        assert cluster.num_nodes == 2
        assert cluster.gpus_per_node == 2
        assert cluster.world_size == 4
        assert cluster.inter_node_nic.bandwidth_gbps == pytest.approx(100.0)

    def test_node_of(self):
        cluster = paper_testbed()
        assert cluster.node_of(0) == 0
        assert cluster.node_of(1) == 0
        assert cluster.node_of(2) == 1
        assert cluster.node_of(3) == 1

    def test_node_of_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            paper_testbed().node_of(4)

    def test_same_node(self):
        cluster = paper_testbed()
        assert cluster.same_node(0, 1)
        assert not cluster.same_node(1, 2)

    def test_link_between_intra_node_is_nvlink(self):
        cluster = paper_testbed()
        assert cluster.link_between(0, 1) is cluster.intra_node_nic

    def test_link_between_inter_node_is_nic(self):
        cluster = paper_testbed()
        assert cluster.link_between(0, 2) is cluster.inter_node_nic

    def test_link_between_self_rejected(self):
        with pytest.raises(ValueError):
            paper_testbed().link_between(1, 1)

    def test_bottleneck_is_internode_when_multinode(self):
        cluster = paper_testbed()
        assert cluster.bottleneck_bandwidth_gbps() == cluster.inter_node_nic.bandwidth_gbps

    def test_bottleneck_is_intranode_when_single_node(self):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=4)
        assert cluster.bottleneck_bandwidth_gbps() == cluster.intra_node_nic.bandwidth_gbps

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(gpus_per_node=0)

    def test_scale_out_cluster(self):
        cluster = scale_out_cluster(num_nodes=8, gpus_per_node=8)
        assert cluster.world_size == 64


class TestWorkerProfiles:
    def test_homogeneous_by_default(self):
        cluster = paper_testbed()
        assert not cluster.is_heterogeneous
        assert cluster.max_slowdown() == 1.0
        assert cluster.worst_nic_scale() == 1.0
        assert cluster.slowdown_of(0) == 1.0

    def test_with_straggler(self):
        cluster = paper_testbed().with_straggler(2, 1.5)
        assert cluster.is_heterogeneous
        assert cluster.slowdown_of(2) == pytest.approx(1.5)
        assert cluster.slowdown_of(0) == 1.0
        assert cluster.max_slowdown() == pytest.approx(1.5)

    def test_with_nic_tier(self):
        cluster = paper_testbed().with_nic_tier(1, 4.0)
        assert cluster.worst_nic_scale() == pytest.approx(4.0)
        assert cluster.bottleneck_bandwidth_gbps() == pytest.approx(
            cluster.inter_node_nic.bandwidth_gbps / 4.0
        )

    def test_profiles_validated(self):
        with pytest.raises(ValueError):
            WorkerProfile(slowdown=0.0)
        with pytest.raises(ValueError):
            WorkerProfile(nic_scale=-1.0)

    @pytest.mark.parametrize("field", ["slowdown", "nic_scale"])
    def test_nan_profile_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            WorkerProfile(**{field: math.nan})

    def test_nan_straggler_rejected(self):
        # A NaN slowdown used to price as nominal on a non-first rank (and
        # as NaN on rank 0), and a NaN cluster never equalled itself.
        with pytest.raises(ValueError, match="slowdown must be positive"):
            paper_testbed().with_straggler(1, math.nan)
        with pytest.raises(ValueError, match="nic_scale must be positive"):
            paper_testbed().with_nic_tier(1, math.nan)

    def test_infinite_straggler_prices_a_dead_worker(self):
        from repro.training import vgg19_tinyimagenet

        dead = paper_testbed().with_straggler(1, math.inf)
        assert dead.max_slowdown() == math.inf
        assert dead == paper_testbed().with_straggler(1, math.inf)
        estimate = ExperimentSession(cluster=dead).throughput(
            "baseline(p=fp16)", vgg19_tinyimagenet()
        )
        assert estimate.rounds_per_second == 0.0

    def test_nominal_profiles_are_not_heterogeneous(self):
        cluster = ClusterSpec(worker_classes=(WorkerClass(1, WorkerProfile()),) * 4)
        assert not cluster.is_heterogeneous


SLOW = WorkerProfile(slowdown=2.0)
DEGRADED = WorkerProfile(nic_scale=4.0)


class TestDistributionalClusters:
    def twins(self):
        """One population spelled as one class per rank and as two classes."""
        expanded = ClusterSpec(
            num_nodes=4,
            gpus_per_node=2,
            worker_classes=(WorkerClass(1, SLOW),) * 3 + (WorkerClass(1, WorkerProfile()),) * 5,
        )
        distributional = ClusterSpec(
            num_nodes=4,
            gpus_per_node=2,
            worker_classes=(WorkerClass(3, SLOW), WorkerClass(5, WorkerProfile())),
        )
        return expanded, distributional

    def test_twins_are_equal_and_hash_equal(self):
        expanded, distributional = self.twins()
        assert expanded == distributional
        assert hash(expanded) == hash(distributional)
        assert expanded.cache_key() == distributional.cache_key()

    def test_profile_queries_agree(self):
        expanded, distributional = self.twins()
        for rank in range(expanded.world_size):
            assert expanded.profile_of(rank) == distributional.profile_of(rank)
        assert distributional.max_slowdown() == 2.0
        assert distributional.worst_nic_scale() == 1.0
        assert distributional.is_heterogeneous
        assert distributional.slowdown_segments() == ((2.0, 3), (1.0, 5))

    def test_segments_merge_adjacent_equal_profiles(self):
        cluster = ClusterSpec(
            num_nodes=4,
            gpus_per_node=2,
            worker_classes=(WorkerClass(3, SLOW), WorkerClass(2, SLOW), WorkerClass(3, WorkerProfile())),
        )
        assert cluster.profile_segments() == ((SLOW, 5), (WorkerProfile(), 3))

    def test_class_counts_must_cover_world_size(self):
        with pytest.raises(ValueError, match="cover"):
            ClusterSpec(num_nodes=4, gpus_per_node=2, worker_classes=(WorkerClass(3, SLOW),))

    def test_nominal_classes_collapse_to_implicit_identity(self):
        explicit = ClusterSpec(worker_classes=(WorkerClass(4, WorkerProfile()),))
        assert explicit == paper_testbed()
        assert hash(explicit) == hash(paper_testbed())
        assert not explicit.is_heterogeneous

    def test_single_rank_mutations_splice_segments(self):
        cluster = paper_testbed().with_straggler(2, 1.5).with_nic_tier(1, 4.0)
        assert cluster.worker_classes == (
            WorkerClass(1, WorkerProfile()),
            WorkerClass(1, WorkerProfile(nic_scale=4.0)),
            WorkerClass(1, WorkerProfile(slowdown=1.5)),
            WorkerClass(1, WorkerProfile()),
        )
        assert cluster.profile_of(2).slowdown == 1.5
        assert cluster.profile_of(0) == WorkerProfile()

    def test_undone_straggler_collapses_to_nominal(self):
        cluster = paper_testbed().with_straggler(1, 2.0).with_straggler(1, 1.0)
        assert cluster.worker_classes is None
        assert cluster == paper_testbed()

    def test_chained_overrides_compose_on_one_rank(self):
        cluster = paper_testbed().with_straggler(1, 2.0).with_nic_tier(1, 4.0)
        assert cluster.profile_of(1) == WorkerProfile(slowdown=2.0, nic_scale=4.0)

    def test_override_splits_class_segment(self):
        expanded, distributional = self.twins()
        perturbed = distributional.with_straggler(1, 3.0)
        assert perturbed.profile_segments() == (
            (SLOW, 1),
            (WorkerProfile(slowdown=3.0), 1),
            (SLOW, 1),
            (WorkerProfile(), 5),
        )
        assert perturbed == expanded.with_straggler(1, 3.0)

    def test_splice_spans_segments(self):
        _, distributional = self.twins()
        spliced = distributional.splice(
            [(0, 1, lambda _: DEGRADED), (2, 6, lambda p: WorkerProfile(slowdown=2 * p.slowdown))]
        )
        # Each piece is rewritten from its own profile; equal neighbours merge.
        assert spliced.profile_segments() == (
            (DEGRADED, 1),
            (SLOW, 1),
            (WorkerProfile(slowdown=4.0), 1),
            (SLOW, 3),
            (WorkerProfile(), 2),
        )

    @pytest.mark.parametrize(
        "edits",
        [[(2, 4), (3, 5)], [(3, 5), (0, 1)], [(2, 2)], [(7, 9)]],
        ids=["overlapping", "descending", "empty", "past_the_end"],
    )
    def test_splice_rejects_bad_ranges(self, edits):
        _, distributional = self.twins()
        with pytest.raises(ValueError):
            distributional.splice([(start, stop, lambda _: SLOW) for start, stop in edits])

    def test_override_on_fleet_stays_cheap_and_queryable(self):
        fleet = fat_tree_cluster(128, gpus_per_node=2)
        perturbed = fleet.with_straggler(1_000_000, 8.0)
        assert perturbed.max_slowdown() == 8.0
        assert perturbed.slowdown_of(1_000_000) == 8.0
        assert perturbed.slowdown_of(0) == 1.0
        assert len(perturbed.profile_segments()) == 3

    def test_worker_class_validation(self):
        with pytest.raises(ValueError):
            WorkerClass(0, WorkerProfile())
        with pytest.raises(TypeError):
            WorkerClass(2, profile="nominal")


class TestFleetPresets:
    def test_fat_tree_cluster_shape(self):
        fleet = fat_tree_cluster(8, gpus_per_node=2)
        assert fleet.num_nodes == 128
        assert fleet.num_racks == 32
        assert fleet.fabric.racks_per_domain == 4
        assert fleet.fabric.num_domains == 8
        assert fleet.fabric.topology == "fat_tree"

    def test_million_worker_fat_tree(self):
        fleet = fat_tree_cluster(128, gpus_per_node=2)
        assert fleet.world_size == 1_048_576
        assert fleet.max_slowdown() == 1.0

    def test_torus_cluster_shape(self):
        fleet = torus_cluster((4, 4, 4), nodes_per_rack=2, gpus_per_node=2)
        assert fleet.num_nodes == 128
        assert fleet.num_racks == 64
        assert fleet.fabric.topology == "torus"
        assert fleet.fabric.racks_per_domain == 16  # a plane of the 4x4x4 grid

    def test_dcell_cluster_shape(self):
        fleet = dcell_cluster(4, 1, gpus_per_node=2)
        assert fleet.num_nodes == 20  # t_1 = 4 * 5
        assert fleet.num_racks == 5
        assert fleet.fabric.topology == "dcell"

    def test_presets_accept_worker_classes(self):
        fleet = fat_tree_cluster(
            8,
            gpus_per_node=2,
            worker_classes=(WorkerClass(200, SLOW), WorkerClass(56, WorkerProfile())),
        )
        assert fleet.max_slowdown() == 2.0
        assert fleet.slowdown_segments() == ((2.0, 200), (1.0, 56))


class TestCacheKey:
    def test_same_shape_different_nic_distinct_keys(self):
        a = paper_testbed()
        b = ClusterSpec(inter_node_nic=NicModel(name="CX-4", bandwidth_gbps=25.0))
        assert a.num_nodes == b.num_nodes and a.gpus_per_node == b.gpus_per_node
        assert a.cache_key() != b.cache_key()

    def test_equal_clusters_share_keys(self):
        assert paper_testbed().cache_key() == paper_testbed().cache_key()
        assert hash(paper_testbed().cache_key()) == hash(paper_testbed().cache_key())

    def test_profiles_part_of_identity(self):
        assert paper_testbed().cache_key() != paper_testbed().with_straggler(0, 2.0).cache_key()

    def test_fabric_part_of_identity(self):
        assert fat_tree_cluster(8).cache_key() != ClusterSpec(
            num_nodes=128, gpus_per_node=2
        ).cache_key()

    def test_class_split_not_part_of_identity(self):
        straggler = paper_testbed().with_straggler(0, 2.0)
        one_per_rank = ClusterSpec(
            worker_classes=(WorkerClass(1, SLOW),) + (WorkerClass(1, WorkerProfile()),) * 3
        )
        coarse = ClusterSpec(worker_classes=(WorkerClass(1, SLOW), WorkerClass(3, WorkerProfile())))
        assert straggler.cache_key() == one_per_rank.cache_key() == coarse.cache_key()
