"""Distributional <-> materialized equivalence: one population, two forms.

The distributional representation (:class:`WorkerClass` blocks + sparse
overrides) is only admissible because it is *bit-exact* with the expanded
per-rank twin everywhere the population is consumed.  This suite holds that
contract across the whole surface:

* **Pricing** -- ``session.throughput`` (serialized and bucketed pipeline)
  agrees exactly between the two forms, for every registered scheme;
* **Pipeline simulation** -- ``simulate_schedule`` produces identical
  makespans, traces, and per-worker finish times;
* **Scenarios** -- every effective cluster a scenario derives from the two
  forms stays canonically equal round by round, and scenario pricing
  agrees exactly;
* **Cache identity** -- the two forms memoize as a *single* sweep point and
  digest identically in the advisor service's point keys.

Shapes are randomized with Hypothesis; the registry-wide sweeps are
deterministic parametrizations (small n, so the materialized twin exists).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSession
from repro.compression.registry import ALIASES
from repro.simulator.cluster import (
    ClusterSpec,
    WorkerClass,
    WorkerProfile,
    multirack_cluster,
)
from repro.simulator.pipeline import bucketed_schedule, simulate_schedule
from repro.simulator.scenario import scenario
from repro.training.workloads import bert_large_wikitext

MAX_EXAMPLES = int(os.environ.get("SCENARIO_FUZZ_EXAMPLES", "25"))

#: Profile palette the population generator draws from.
PROFILES = (
    WorkerProfile(),
    WorkerProfile(slowdown=1.5),
    WorkerProfile(slowdown=2.0),
    WorkerProfile(nic_scale=4.0),
    WorkerProfile(slowdown=1.5, nic_scale=2.0),
)

populations = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6), st.sampled_from(PROFILES)),
    min_size=1,
    max_size=5,
)


def twins(population, gpus_per_node=2):
    """A (materialized, distributional) cluster pair from class counts.

    The world size is padded with nominal workers to a node multiple.
    """
    total = sum(count for count, _ in population)
    num_nodes = -(-total // gpus_per_node)
    pad = num_nodes * gpus_per_node - total
    classes = [WorkerClass(count, profile) for count, profile in population]
    if pad:
        classes.append(WorkerClass(pad, WorkerProfile()))
    distributional = ClusterSpec(
        num_nodes=num_nodes, gpus_per_node=gpus_per_node, worker_classes=tuple(classes)
    )
    return distributional.materialize(), distributional


class TestCanonicalIdentity:
    @given(population=populations)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_twins_equal_hash_equal_and_share_cache_key(self, population):
        materialized, distributional = twins(population)
        assert materialized == distributional
        assert hash(materialized) == hash(distributional)
        assert materialized.cache_key() == distributional.cache_key()
        assert materialized.profile_segments() == distributional.profile_segments()

    @given(population=populations, rank_seed=st.integers(0, 1000))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_override_mutations_preserve_equivalence(self, population, rank_seed):
        materialized, distributional = twins(population)
        rank = rank_seed % materialized.world_size
        assert materialized.with_straggler(rank, 3.0) == distributional.with_straggler(rank, 3.0)
        assert materialized.with_nic_tier(rank, 8.0) == distributional.with_nic_tier(rank, 8.0)


class TestPipelineEquivalence:
    @given(population=populations, num_buckets=st.integers(1, 12))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_simulate_schedule_is_bit_exact(self, population, num_buckets):
        materialized, distributional = twins(population)
        schedule = bucketed_schedule(
            0.01, [(0.001, 0.002, 0.0005)] * num_buckets
        )
        a = simulate_schedule(schedule, materialized, optimizer_seconds=0.003)
        b = simulate_schedule(schedule, distributional, optimizer_seconds=0.003)
        assert a.makespan_seconds == b.makespan_seconds
        assert a.serialized_seconds == b.serialized_seconds
        assert a.traces == b.traces
        assert a.worker_finish_seconds == b.worker_finish_seconds


class TestSchemeRegistryEquivalence:
    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_throughput_is_bit_exact_across_registry(self, alias):
        materialized, distributional = twins([(3, WorkerProfile(slowdown=1.5)), (5, WorkerProfile())])
        workload = bert_large_wikitext()
        estimates = [
            ExperimentSession(cluster=cluster).throughput(
                alias, workload, num_buckets=4
            )
            for cluster in (materialized, distributional)
        ]
        assert estimates[0].rounds_per_second == estimates[1].rounds_per_second
        assert estimates[0].cost.communication_seconds == estimates[1].cost.communication_seconds

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_scenario_pricing_is_bit_exact_across_registry(self, alias):
        materialized, distributional = twins(
            [(2, WorkerProfile(slowdown=2.0)), (6, WorkerProfile())]
        )
        workload = bert_large_wikitext()
        spec = "slowdown(w=1, x=4)@2..5 + churn(p=0.3)@0..8"
        estimates = [
            ExperimentSession(cluster=cluster, seed=9).throughput(
                alias, workload, scenario=spec, num_rounds=10
            )
            for cluster in (materialized, distributional)
        ]
        assert estimates[0].rounds_per_second == estimates[1].rounds_per_second
        metrics = [estimate.scenario_metrics for estimate in estimates]
        assert metrics[0].p99_round_seconds == metrics[1].p99_round_seconds


class TestScenarioEquivalence:
    @given(
        population=populations,
        seed=st.integers(0, 50),
        round_index=st.integers(0, 12),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_effective_clusters_stay_equal_round_by_round(
        self, population, seed, round_index
    ):
        materialized, distributional = twins(population)
        sc = scenario(
            "slowdown(w=0, x=3)@1..4 + churn(p=0.25)@0..10 + nic_degrade(w=0, x=2)@3..8",
            seed=seed,
        )
        a = sc.cluster_at(materialized, round_index)
        b = sc.cluster_at(distributional, round_index)
        assert a == b
        assert a.cache_key() == b.cache_key()


class TestCacheIdentity:
    def test_twin_clusters_memoize_as_one_sweep_point(self):
        materialized, distributional = twins(
            [(3, WorkerProfile(slowdown=1.5)), (5, WorkerProfile())]
        )
        session = ExperimentSession()
        assert session.cached_points == 0
        session.sweep(
            ["thc(q=4, rot=partial, agg=sat)"],
            workloads=[bert_large_wikitext()],
            clusters=[materialized, distributional],
        )
        # Two grid entries, one canonical cluster identity: one memo entry.
        assert session.cached_points == 1

    def test_memo_key_is_representation_independent(self):
        # The sweep memo keys clusters by cache_key(); the two forms share it.
        materialized, distributional = twins(
            [(2, WorkerProfile(nic_scale=4.0)), (6, WorkerProfile())]
        )
        assert materialized.cache_key() == distributional.cache_key()
        # And a repriced point lands on the memoized twin entry.
        session = ExperimentSession()
        workload = bert_large_wikitext()
        session.sweep(["thc(q=4)"], workloads=[workload], clusters=[materialized])
        before = session.cached_points
        session.sweep(["thc(q=4)"], workloads=[workload], clusters=[distributional])
        assert session.cached_points == before

    def test_service_digest_is_representation_independent(self):
        from repro.service.models import _cluster_digest

        materialized, distributional = twins(
            [(3, WorkerProfile(slowdown=2.0)), (5, WorkerProfile())]
        )
        assert _cluster_digest(materialized) == _cluster_digest(distributional)

    def test_fleet_scale_sweep_point_is_addressable(self):
        # A cluster too large to materialize still sweeps and memoizes.
        from repro.simulator.cluster import fat_tree_cluster

        fleet = fat_tree_cluster(
            16,
            gpus_per_node=2,
            worker_classes=(
                WorkerClass(2000, WorkerProfile(slowdown=1.2)),
                WorkerClass(48, WorkerProfile()),
            ),
        )
        session = ExperimentSession()
        grid = session.sweep(
            ["topkc(b=2)"], workloads=[bert_large_wikitext()], clusters=[fleet]
        )
        assert len(grid) == 1
        assert grid.points[0].value > 0
        assert session.cached_points == 1
