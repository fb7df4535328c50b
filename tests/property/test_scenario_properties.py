"""A Scenario with zero events is bit-exact with the static path.

The scenario engine's core contract: adding the scenario machinery must not
perturb a single bit of the static simulator's numbers.  Rounds with no
active events return the base cluster *object* (identity, not a copy), so an
empty scenario's pricing runs through exactly the same arithmetic as a
scenario-free call.  This suite enforces that across the whole scheme
registry for

* **round times and pricing** -- ``estimate_throughput`` with
  ``scenario=Scenario()`` equals the plain static estimate field for field
  (exact float equality, no tolerance);
* **aggregates** -- a ``DDPTrainer`` run under the empty scenario reproduces
  the static run's losses, metrics, and simulated times exactly;
* **sweeps** -- a static-scenario sweep point equals its scenario-free twin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentSession
from repro.compression.registry import ALIASES
from repro.core.evaluation import run_end_to_end
from repro.simulator.cluster import multirack_cluster
from repro.simulator.scenario import Scenario
from repro.training.workloads import bert_large_wikitext

#: Every registered alias spells a spec; deduplicated, they cover the whole
#: registry (every family at its paper configurations).
REGISTRY_SPECS = sorted(set(ALIASES.values()))

#: Schemes exercising the distinct functional paths (plain, sparsification,
#: stochastic quantization, low-rank, error feedback) in the trainer check.
TRAINER_SPECS = [
    "baseline(p=fp16)",
    "topk(b=2)",
    "thc(q=4, rot=partial, agg=sat)",
    "powersgd(r=2)",
    "ef(topkc(b=2))",
]


class TestPricingBitExact:
    @pytest.mark.parametrize("spec", REGISTRY_SPECS)
    def test_empty_scenario_prices_identically(self, spec):
        workload = bert_large_wikitext()
        session = ExperimentSession()
        static = session.throughput(spec, workload)
        scenario_run = session.throughput(
            spec, workload, scenario=Scenario(), num_rounds=7
        )
        assert scenario_run.round_seconds == static.round_seconds
        assert scenario_run.rounds_per_second == static.rounds_per_second
        assert scenario_run.cost == static.cost
        assert scenario_run.num_buckets == static.num_buckets
        assert scenario_run.pipeline == static.pipeline
        metrics = scenario_run.scenario_metrics
        assert metrics is not None
        assert metrics.num_rounds == 7
        assert metrics.p50_round_seconds == static.round_seconds
        assert metrics.p99_round_seconds == static.round_seconds
        assert metrics.baseline_round_seconds == static.round_seconds
        assert metrics.degraded_rounds == 0
        assert metrics.excess_seconds == 0.0

    @pytest.mark.parametrize("spec", ["thc(q=4, rot=partial, agg=switch)", "topkc(b=2)"])
    def test_empty_scenario_bit_exact_on_multirack(self, spec):
        workload = bert_large_wikitext()
        session = ExperimentSession(cluster=multirack_cluster(4, oversubscription=2.0))
        static = session.throughput(spec, workload, num_buckets=4)
        scenario_run = session.throughput(
            spec, workload, num_buckets=4, scenario=Scenario(), num_rounds=3
        )
        assert scenario_run.round_seconds == static.round_seconds
        assert scenario_run.pipeline == static.pipeline


class TestAggregatesBitExact:
    @pytest.mark.parametrize("spec", TRAINER_SPECS)
    def test_empty_scenario_training_is_bit_exact(self, spec):
        workload = bert_large_wikitext()

        def run(scenario):
            return run_end_to_end(
                spec,
                workload,
                num_rounds=4,
                eval_every=2,
                seed=11,
                scenario=scenario,
            )

        static = run(None)
        empty = run(Scenario())
        assert empty.history.train_losses == static.history.train_losses
        assert empty.history.round_seconds == static.history.round_seconds
        assert empty.history.round_times == [static.history.round_seconds] * 4
        assert empty.rounds_per_second == static.rounds_per_second
        assert empty.bits_per_coordinate == static.bits_per_coordinate
        for record_a, record_b in zip(static.history.evaluations, empty.history.evaluations):
            assert record_a.sim_time_seconds == record_b.sim_time_seconds
            assert record_a.metrics == record_b.metrics
        assert np.array_equal(static.curve.values, empty.curve.values) or (
            list(static.curve.values) == list(empty.curve.values)
        )


class TestSweepBitExact:
    def test_static_scenario_sweep_point_matches_scenario_free(self):
        workload = bert_large_wikitext()
        session = ExperimentSession()
        plain = session.sweep(REGISTRY_SPECS, workloads=workload, metric="throughput")
        under_static = session.sweep(
            REGISTRY_SPECS,
            workloads=workload,
            scenarios=Scenario(name="static"),
            metric="throughput",
            num_rounds=3,
        )
        for spec in REGISTRY_SPECS:
            assert under_static.value(spec, workload) == plain.value(spec, workload)
