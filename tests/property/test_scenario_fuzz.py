"""Randomized differential fuzzing of the scenario engine.

Hypothesis generates scenarios mixing every event type (stragglers, NIC
degradation, link flaps, switch memory pressure, churn, join/leave) with
random windows and magnitudes, and the suite holds the engine to its
differential contracts:

* **Reference equivalence** -- functional training under a scenario agrees
  with the float64 per-worker reference of the scheme
  (``tests/reference.py``) to float32 rounding, on the identical clock.
* **Tier traffic conservation** -- every effective cluster a scenario
  produces (shrunken switch pools included) still conserves bits at every
  fabric tier: bits in == bits out + aggregated delta.
* **Static-prefix equivalence** -- rounds before the first event price
  exactly like the static cluster.
* **Determinism** -- identical scenarios (same events, same seed) replay
  identical round times; different seeds may not (churn).

The example budget is bounded: set ``SCENARIO_FUZZ_EXAMPLES`` (CI uses a
small fixed budget) to trade coverage for wall-clock.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSession
from repro.collectives.cost_model import CollectiveCostModel
from repro.compression.error_feedback import ErrorFeedback
from repro.core.evaluation import build_trainer
from repro.simulator.cluster import multirack_cluster, paper_testbed
from repro.simulator.scenario import (
    Scenario,
    ScenarioApplicationError,
    churn,
    join,
    leave,
    link_flap,
    nic_degrade,
    slowdown,
    switch_memory_pressure,
)
from repro.training.workloads import bert_large_wikitext
from reference import Reference


def _applies_cleanly(scenario: Scenario, base, num_rounds: int) -> bool:
    """Whether the scenario's events all fit the cluster they meet.

    Randomly composed events can legally conflict (two leaves emptying the
    cluster, a worker event after a leave shrank the world); those raise a
    clear :class:`ScenarioApplicationError` at application time and are
    rejected from the fuzz corpus rather than constrained away, so the
    generator keeps covering the full event space.
    """
    try:
        scenario.clusters(base, num_rounds)
    except ScenarioApplicationError:
        return False
    return True

#: Bounded example budget so the CI fuzz step has a predictable wall-clock.
MAX_EXAMPLES = int(os.environ.get("SCENARIO_FUZZ_EXAMPLES", "25"))

#: Schemes the pricing fuzz draws from (distinct kernel/collective mixes).
PRICING_SPECS = [
    "baseline(p=fp16)",
    "topk(b=2)",
    "thc(q=4, rot=partial, agg=sat)",
    "powersgd(r=4)",
]

factors = st.floats(min_value=1.1, max_value=10.0, allow_nan=False)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
pool_fractions = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


@st.composite
def windows(draw, max_start: int = 12, max_length: int = 10):
    start = draw(st.integers(min_value=0, max_value=max_start))
    length = draw(st.integers(min_value=1, max_value=max_length))
    return start, start + length


def _event_strategies(world_size: int, num_racks: int, rack_safe_nodes: int):
    """One strategy per event type, parameterized for the target cluster."""
    workers = st.integers(min_value=0, max_value=world_size - 1)
    racks = st.integers(min_value=0, max_value=num_racks - 1)
    return [
        st.builds(
            lambda w, x, win: slowdown(w, x, at_round=win[0], until=win[1]),
            workers,
            factors,
            windows(),
        ),
        st.builds(
            lambda w, x, win: nic_degrade(w, x, at_round=win[0], until=win[1]),
            workers,
            factors,
            windows(),
        ),
        st.builds(
            lambda r, x, win: link_flap(r, x, at_round=win[0], until=win[1]),
            racks,
            factors,
            windows(),
        ),
        st.builds(
            lambda f, win: switch_memory_pressure(f, at_round=win[0], until=win[1]),
            pool_fractions,
            windows(),
        ),
        st.builds(
            lambda p, x, win: churn(p, x, at_round=win[0], until=win[1]),
            probabilities,
            factors,
            windows(),
        ),
        st.builds(
            lambda n, win: join(n * rack_safe_nodes, at_round=win[0], until=win[1]),
            st.integers(min_value=1, max_value=2),
            windows(),
        ),
        st.builds(
            lambda win: leave(rack_safe_nodes, at_round=win[0], until=win[1]),
            windows(),
        ),
    ]


def scenarios_for(world_size: int, num_racks: int, rack_safe_nodes: int):
    """Scenarios of 1-3 events drawn across every event type."""
    event = st.one_of(*_event_strategies(world_size, num_racks, rack_safe_nodes))
    return st.builds(
        lambda events, seed: Scenario(events=tuple(events), seed=seed),
        st.lists(event, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=3),
    )


#: Scenarios valid on the flat 2x2 paper testbed (leave whole nodes).
flat_scenarios = scenarios_for(world_size=4, num_racks=1, rack_safe_nodes=1)

#: Scenarios valid on a 2-rack, 4-node fabric cluster (rack-multiple churn).
fabric_scenarios = scenarios_for(world_size=8, num_racks=2, rack_safe_nodes=2)


class TestReferenceEquivalence:
    @given(scenario=scenarios_for(world_size=4, num_racks=1, rack_safe_nodes=1))
    @settings(max_examples=max(5, MAX_EXAMPLES // 3), deadline=None)
    def test_functional_training_agrees_with_reference(self, scenario):
        """A deterministic scheme trains like its reference (to f32)."""
        workload = bert_large_wikitext()
        assume(_applies_cleanly(scenario, paper_testbed(), 5))

        def run(reference: bool):
            trainer = build_trainer(
                "topk(b=2)",
                workload,
                eval_every=5,
                seed=3,
                total_rounds_hint=5,
                scenario=scenario,
            )
            if reference:
                trainer.scheme = ErrorFeedback(Reference(trainer.scheme.scheme))
            return trainer.run(5)

        kernels = run(reference=False)
        reference = run(reference=True)
        # Pricing and the simulated clock agree exactly; the functional
        # trajectories agree to float32 rounding accumulated over rounds.
        assert kernels.round_times == reference.round_times
        np.testing.assert_allclose(
            kernels.train_losses, reference.train_losses, rtol=1e-4
        )
        for record_a, record_b in zip(kernels.evaluations, reference.evaluations):
            assert record_a.sim_time_seconds == record_b.sim_time_seconds


class TestTierTrafficConservation:
    @given(
        scenario=fabric_scenarios,
        payload=st.floats(min_value=1.0, max_value=1e11, allow_nan=False),
        round_index=st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_effective_clusters_conserve_bits(self, scenario, payload, round_index):
        """Every effective cluster a scenario produces conserves tier traffic."""
        base = multirack_cluster(num_racks=2, nodes_per_rack=2)
        try:
            effective = scenario.cluster_at(base, round_index)
        except ScenarioApplicationError:
            assume(False)
        model = CollectiveCostModel(effective)
        switch = model.switch_breakdown(payload)
        for tier in switch.tiers:
            assert tier.bits_in == pytest.approx(tier.bits_out + tier.aggregated_bits)
            assert tier.aggregated_bits == pytest.approx((tier.fan_in - 1) * payload)
        hierarchical = model.hierarchical_breakdown(payload)
        for tier in hierarchical.tiers:
            assert tier.aggregated_bits == pytest.approx(0.0)
            assert tier.bits_in == pytest.approx(tier.bits_out)


class TestStaticPrefixAndDeterminism:
    @given(scenario=flat_scenarios, spec_index=st.integers(0, len(PRICING_SPECS) - 1))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_rounds_outside_windows_price_static(self, scenario, spec_index):
        """A round no event covers prices exactly like the static cluster."""
        spec = PRICING_SPECS[spec_index]
        workload = bert_large_wikitext()
        session = ExperimentSession()
        base = session.cluster
        static_seconds = session.throughput(spec, workload).round_seconds
        quiet_rounds = [
            r for r in range(scenario.horizon() + 2)
            if not any(event.active_at(r) for event in scenario.events)
        ]
        for round_index in quiet_rounds[:3]:
            assert scenario.cluster_at(base, round_index) is base
        if quiet_rounds:
            effective = scenario.cluster_at(base, quiet_rounds[0])
            assert (
                session.throughput(spec, workload, cluster=effective).round_seconds
                == static_seconds
            )

    @given(scenario=flat_scenarios)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_identical_scenarios_replay_identically(self, scenario):
        """Same events + same seed -> the same effective clusters every time."""
        base = paper_testbed()
        twin = Scenario(events=scenario.events, seed=scenario.seed)
        num_rounds = min(scenario.default_num_rounds(), 16)
        assume(_applies_cleanly(scenario, base, num_rounds))
        assert scenario.clusters(base, num_rounds) == twin.clusters(base, num_rounds)
