"""Unit tests for the multi-rack fabric subsystem (repro.topology)."""

import numpy as np
import pytest

from repro.collectives.api import Collective, CollectiveBackend
from repro.collectives.batched import hierarchical_aggregate_matrix
from repro.collectives.cost_model import CollectiveCostModel
from repro.collectives.ops import MaxOp, SaturatingSumOp, SumOp
from repro.simulator.cluster import ClusterSpec, multirack_cluster, paper_testbed
from repro.topology import (
    FabricSpec,
    SwitchModel,
    single_rack_fabric,
    two_tier_fabric,
)
from repro.topology.fabric import (
    dcell_fabric,
    dcell_size,
    fat_tree_fabric,
    torus_fabric,
)


class TestFabricSpec:
    def test_defaults_are_flat(self):
        assert FabricSpec().is_flat
        assert single_rack_fabric().is_flat

    def test_two_tier_is_not_flat(self):
        assert not two_tier_fabric(4).is_flat
        assert not two_tier_fabric(2, 1.0).is_flat

    def test_single_rack_fabric_is_flat_regardless_of_oversubscription(self):
        """No spine exists with one rack, so oversubscription is inert: every
        schedule (ring and tree/allgather alike) must price as flat."""
        assert FabricSpec(num_racks=1, oversubscription=4.0).is_flat
        cluster = paper_testbed()
        behind = cluster.with_fabric(FabricSpec(num_racks=1, oversubscription=4.0))
        flat_model = CollectiveCostModel(cluster)
        fabric_model = CollectiveCostModel(behind)
        for schedule in ("ring_allreduce", "tree_allreduce", "allgather"):
            assert getattr(flat_model, schedule)(1e9) == getattr(fabric_model, schedule)(1e9)

    def test_label(self):
        assert FabricSpec(num_racks=4).label() == "4r"
        assert FabricSpec(num_racks=4, oversubscription=2.0).label() == "4r:o2"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_racks=0),
            dict(oversubscription=0.0),
            dict(oversubscription=-1.0),
            dict(spine_latency_s=-1e-6),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FabricSpec(**kwargs)


class TestSwitchModel:
    def test_chunking_covers_payload(self):
        switch = SwitchModel(aggregation_memory_bytes=1024)
        assert switch.num_chunks(0.0) == 1
        assert switch.num_chunks(1024 * 8) == 1
        assert switch.num_chunks(1024 * 8 + 1) == 2

    def test_line_rate_seconds(self):
        switch = SwitchModel(line_rate_gbps=100.0)
        assert switch.line_rate_seconds(1e9) == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(line_rate_gbps=0.0),
            dict(aggregation_memory_bytes=0),
            dict(chunk_overhead_s=-1.0),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SwitchModel(**kwargs)


class TestClusterFabricComposition:
    def test_with_fabric_partitions_nodes(self):
        cluster = multirack_cluster(4, nodes_per_rack=2, gpus_per_node=2)
        assert cluster.world_size == 16
        assert cluster.num_racks == 4
        assert cluster.nodes_per_rack == 2
        assert cluster.workers_per_rack == 4
        assert cluster.rack_assignment() == [r // 4 for r in range(16)]
        assert cluster.same_rack(0, 3)
        assert not cluster.same_rack(3, 4)

    def test_fabric_must_divide_nodes(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=3).with_fabric(two_tier_fabric(2))

    def test_fabric_cannot_outnumber_nodes(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=2).with_fabric(two_tier_fabric(4))

    def test_no_fabric_is_one_rack(self):
        cluster = paper_testbed()
        assert cluster.num_racks == 1
        assert cluster.rack_of(cluster.world_size - 1) == 0
        assert not cluster.has_active_fabric

    def test_flat_fabric_is_not_active(self):
        assert not paper_testbed().with_fabric(single_rack_fabric()).has_active_fabric
        assert multirack_cluster(2).has_active_fabric

    def test_cache_key_distinguishes_fabrics(self):
        """Regression: same-shape clusters with different fabrics must never
        share a sweep memo entry (see ExperimentSession.sweep)."""
        base = ClusterSpec(num_nodes=4)
        fabric_a = base.with_fabric(two_tier_fabric(2, 2.0))
        fabric_b = base.with_fabric(two_tier_fabric(2, 4.0))
        keys = {base.cache_key(), fabric_a.cache_key(), fabric_b.cache_key()}
        assert len(keys) == 3
        assert base.cache_key() == ClusterSpec(num_nodes=4).cache_key()


class TestHierarchicalAggregate:
    def test_matches_flat_sum_for_associative_op(self):
        rng = np.random.default_rng(0)
        vectors = [rng.standard_normal(32) for _ in range(8)]
        racks = [i // 2 for i in range(8)]
        result = hierarchical_aggregate_matrix(np.stack(vectors), SumOp(), racks)
        np.testing.assert_allclose(result, np.sum(vectors, axis=0), rtol=1e-12)

    def test_applies_finalize(self):
        from repro.collectives.ops import MeanOp

        vectors = [np.full(4, float(i)) for i in range(4)]
        result = hierarchical_aggregate_matrix(np.stack(vectors), MeanOp(), [0, 0, 1, 1])
        np.testing.assert_allclose(result, np.full(4, 1.5))

    def test_max_op_safe_with_rack_fold(self):
        vectors = [np.array([-5.0, 2.0]), np.array([1.0, -3.0])]
        result = hierarchical_aggregate_matrix(np.stack(vectors), MaxOp(), [0, 1])
        np.testing.assert_allclose(result, [1.0, 2.0])

    def test_saturating_op_saturates_per_hop(self):
        op = SaturatingSumOp(bits=4)  # limit 7
        vectors = [np.array([5.0]), np.array([5.0]), np.array([-5.0])]
        # Rack {0,1} saturates to 7 before the cross-rack hop adds -5.
        result = hierarchical_aggregate_matrix(np.stack(vectors), op, [0, 0, 1])
        np.testing.assert_allclose(result, [2.0])

    def test_rejects_mismatched_assignment(self):
        with pytest.raises(ValueError):
            hierarchical_aggregate_matrix(np.zeros((1, 2)), SumOp(), [0, 1])
        with pytest.raises(ValueError):
            hierarchical_aggregate_matrix(np.zeros((0, 2)), SumOp(), [])


class TestBackendSwitchAggregation:
    def test_switch_aggregation_result_matches_sum(self):
        backend = CollectiveBackend(multirack_cluster(2, nodes_per_rack=1))
        matrix = np.stack([np.full(8, float(i)) for i in range(backend.world_size)])
        aggregate = backend.allreduce_matrix(
            matrix, wire_bits_per_value=4.0, collective=Collective.SWITCH_AGGREGATION
        )
        np.testing.assert_allclose(aggregate, matrix.sum(axis=0))
        assert backend.cost_model.switch_aggregation(8 * 4.0).seconds > 0

    def test_switch_aggregation_without_fabric_uses_single_tor(self):
        backend = CollectiveBackend(paper_testbed())
        aggregate = backend.allreduce_matrix(
            np.ones((backend.world_size, 8)),
            wire_bits_per_value=4.0,
            collective=Collective.SWITCH_AGGREGATION,
        )
        np.testing.assert_allclose(aggregate, np.full(8, 4.0))
        # Up and down, no spine.
        assert backend.cost_model.switch_aggregation(8 * 4.0).steps == 2

    def test_ring_on_active_fabric_prices_hierarchically(self):
        cluster = multirack_cluster(4, oversubscription=4.0)
        fabric_cost = CollectiveCostModel(cluster).ring_allreduce(1e9)
        hier_cost = CollectiveCostModel(cluster).hierarchical_allreduce(1e9)
        assert fabric_cost == hier_cost


class TestCostModelFabric:
    def test_switch_breakdown_phases(self):
        model = CollectiveCostModel(multirack_cluster(4))
        breakdown = model.switch_breakdown(1e9)
        names = [phase.name for phase in breakdown.phases]
        assert names == ["tor_upload", "spine_allreduce", "tor_download"]
        assert breakdown.seconds == pytest.approx(
            sum(phase.seconds for phase in breakdown.phases)
        )

    def test_single_rack_switch_has_no_spine_phase(self):
        model = CollectiveCostModel(paper_testbed())
        breakdown = model.switch_breakdown(1e9)
        assert [phase.name for phase in breakdown.phases] == ["tor_upload", "tor_download"]

    def test_oversubscription_slows_hierarchical_spine_only(self):
        cheap = CollectiveCostModel(multirack_cluster(4, oversubscription=1.0 + 1e-9))
        pricey = CollectiveCostModel(multirack_cluster(4, oversubscription=8.0))
        payload = 1e9
        cheap_breakdown = cheap.hierarchical_breakdown(payload)
        pricey_breakdown = pricey.hierarchical_breakdown(payload)
        assert pricey_breakdown.phase("spine_allreduce").seconds > (
            cheap_breakdown.phase("spine_allreduce").seconds
        )
        assert pricey_breakdown.phase("rack_reduce_scatter").seconds == pytest.approx(
            cheap_breakdown.phase("rack_reduce_scatter").seconds
        )

    def test_bounded_switch_memory_adds_chunk_overheads(self):
        big_pool = multirack_cluster(2).with_fabric(
            two_tier_fabric(2, 2.0, switch=SwitchModel(aggregation_memory_bytes=1 << 30))
        )
        small_pool = multirack_cluster(2).with_fabric(
            two_tier_fabric(2, 2.0, switch=SwitchModel(aggregation_memory_bytes=1 << 12))
        )
        payload = 1e9
        big = CollectiveCostModel(big_pool).switch_breakdown(payload)
        small = CollectiveCostModel(small_pool).switch_breakdown(payload)
        assert big.num_chunks == 1
        assert small.num_chunks > 1
        assert small.seconds > big.seconds

    def test_slow_nic_tier_gates_switch_aggregation_too(self):
        """A quarter-bandwidth host NIC slows the in-network up/down phases:
        the switch cannot receive faster than the host can physically send."""
        base = multirack_cluster(2)
        degraded = base.with_nic_tier(0, 4.0)
        payload = 1e9
        nominal = CollectiveCostModel(base).switch_aggregation(payload)
        slowed = CollectiveCostModel(degraded).switch_aggregation(payload)
        assert slowed.seconds > nominal.seconds
        # ...but never below the port line-rate lower bound.
        switch = base.fabric.switch
        assert slowed.seconds >= switch.line_rate_seconds(payload)

    def test_per_bucket_supports_switch_aggregation(self):
        model = CollectiveCostModel(multirack_cluster(2))
        buckets = model.per_bucket("switch_aggregation", 1e8, 4)
        assert len(buckets) == 4
        assert sum(b.seconds for b in buckets) >= model.switch_aggregation(1e8).seconds


class TestFabricGenerators:
    def test_fat_tree_shape_and_domains(self):
        fabric = fat_tree_fabric(8)
        assert fabric.num_racks == 32
        assert fabric.racks_per_domain == 4  # one pod of k/2 edge switches
        assert fabric.num_domains == 8
        assert fabric.topology == "fat_tree"
        assert fabric.label() == "32r:fat_tree"

    def test_fat_tree_rejects_odd_arity(self):
        with pytest.raises(ValueError, match="even"):
            fat_tree_fabric(7)

    def test_torus_bisection_and_planes(self):
        fabric = torus_fabric((8, 4, 4))
        assert fabric.num_racks == 128
        assert fabric.oversubscription == pytest.approx(2.0)  # 8/4 along the long side
        assert fabric.racks_per_domain == 16  # a plane perpendicular to dim 0
        assert fabric.num_domains == 8

    def test_small_torus_has_full_bisection(self):
        assert torus_fabric((4, 4)).oversubscription == 1.0

    def test_dcell_recurrence(self):
        assert dcell_size(4, 0) == 4
        assert dcell_size(4, 1) == 20
        assert dcell_size(4, 2) == 420
        assert dcell_size(32, 2) > 1_000_000

    def test_dcell_fabric_latency_scales_with_level(self):
        level1 = dcell_fabric(4, 1, spine_latency_s=1e-6)
        level2 = dcell_fabric(4, 2, spine_latency_s=1e-6)
        assert level1.spine_latency_s == pytest.approx(3e-6)  # 2^2 - 1 hops
        assert level2.spine_latency_s == pytest.approx(7e-6)  # 2^3 - 1 hops
        assert level2.racks_per_domain == level1.num_racks

    def test_domain_helpers(self):
        fabric = fat_tree_fabric(4)  # 8 racks, 2 per pod
        assert fabric.domain_of(0) == 0
        assert fabric.domain_of(3) == 1
        assert list(fabric.racks_in_domain(1)) == [2, 3]
        with pytest.raises(ValueError):
            fabric.domain_of(8)
        with pytest.raises(ValueError):
            fabric.racks_in_domain(4)

    def test_racks_per_domain_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            FabricSpec(num_racks=4, racks_per_domain=3)


class TestTieredHierarchicalPricing:
    def test_single_rack_domains_reproduce_two_tier_pricing(self):
        """racks_per_domain=1 (every historical fabric) prices bit-exactly
        like before the domain phase existed: no domain phase, same tiers."""
        model = CollectiveCostModel(multirack_cluster(4))
        breakdown = model.hierarchical_breakdown(1e9)
        names = [phase.name for phase in breakdown.phases]
        assert names == ["rack_reduce_scatter", "spine_allreduce", "rack_broadcast"]
        assert [tier.tier for tier in breakdown.tiers] == ["tor", "spine"]

    def _pod_cluster(self):
        # 16 nodes over 8 racks grouped into 2 failure domains of 4 racks.
        fabric = FabricSpec(
            num_racks=8, oversubscription=2.0, topology="fat_tree", racks_per_domain=4
        )
        return ClusterSpec(num_nodes=16, gpus_per_node=2, fabric=fabric)

    def test_multi_rack_domains_insert_domain_phase_and_pod_tier(self):
        breakdown = CollectiveCostModel(self._pod_cluster()).hierarchical_breakdown(1e9)
        names = [phase.name for phase in breakdown.phases]
        assert names == [
            "rack_reduce_scatter",
            "domain_allreduce",
            "spine_allreduce",
            "rack_broadcast",
        ]
        assert [tier.tier for tier in breakdown.tiers] == ["tor", "pod", "spine"]
        domain = breakdown.phase("domain_allreduce")
        assert domain.steps == 2 * (4 - 1)
        spine = breakdown.phase("spine_allreduce")
        assert spine.steps == 2 * (2 - 1)  # over num_domains, not num_racks

    def test_pod_tier_conserves_bits(self):
        breakdown = CollectiveCostModel(self._pod_cluster()).hierarchical_breakdown(1e9)
        for tier in breakdown.tiers:
            assert not tier.aggregates
            assert tier.bits_in == pytest.approx(tier.bits_out)
            assert tier.aggregated_bits == pytest.approx(0.0)

    def test_domain_phase_runs_below_the_oversubscribed_core(self):
        """Only the spine phase pays oversubscription: the domain phase's
        per-step cost is full-rate, so raising oversubscription moves
        spine_allreduce but leaves domain_allreduce untouched."""
        cheap_fabric = FabricSpec(
            num_racks=8, oversubscription=1.0 + 1e-9, topology="fat_tree", racks_per_domain=4
        )
        pricey_fabric = FabricSpec(
            num_racks=8, oversubscription=8.0, topology="fat_tree", racks_per_domain=4
        )
        cluster = ClusterSpec(num_nodes=16, gpus_per_node=2)
        payload = 1e9
        cheap = CollectiveCostModel(cluster.with_fabric(cheap_fabric)).hierarchical_breakdown(payload)
        pricey = CollectiveCostModel(cluster.with_fabric(pricey_fabric)).hierarchical_breakdown(payload)
        assert pricey.phase("spine_allreduce").seconds > cheap.phase("spine_allreduce").seconds
        assert pricey.phase("domain_allreduce").seconds == pytest.approx(
            cheap.phase("domain_allreduce").seconds
        )

    def test_domains_cut_core_traffic(self):
        """Grouping 8 racks into 2 pods sends less through the core than 8
        independent racks (the spine ring shrinks from 8 to 2 members)."""
        pod = CollectiveCostModel(self._pod_cluster()).hierarchical_breakdown(1e9)
        flat_fabric = FabricSpec(num_racks=8, oversubscription=2.0)
        flat = CollectiveCostModel(
            ClusterSpec(num_nodes=16, gpus_per_node=2, fabric=flat_fabric)
        ).hierarchical_breakdown(1e9)
        assert pod.tier("spine").bits_in < flat.tier("spine").bits_in

    def test_fleet_scale_pricing_is_fast_and_finite(self):
        import time

        from repro.simulator.cluster import fat_tree_cluster

        model = CollectiveCostModel(fat_tree_cluster(128, gpus_per_node=2))
        start = time.perf_counter()
        cost = model.ring_allreduce(8e9)
        assert time.perf_counter() - start < 0.1
        assert cost.seconds > 0
        assert cost.bits_on_bottleneck > 0
