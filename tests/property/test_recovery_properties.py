"""Recovery-policy differential contracts, property-tested.

Two guarantees the recovery layer (PR 9) makes:

* **Spec-language round-trip** -- any valid policy, however spelled
  (aliases, shuffled rule order, arbitrary spacing, positional args),
  parses to a canonical :class:`RecoveryPolicy` whose ``spec()`` re-parses
  to an equal policy (the printed-spec round trip itself is fuzzed for all
  three grammars in ``test_spec_roundtrip.py``).
* **The empty policy is bit-exact** -- ``policy("")`` must not perturb a
  single bit of the PR 5 scenario path: round times, pricing fields, and
  tail metrics are exactly equal (no tolerance) across the whole scheme
  registry, and a trainer run under it
  reproduces the plain scenario run's losses and clock exactly.

A third contract ties the two drivers together: a trainer and a throughput
estimate of the same scheme, cluster, scenario and policy charge the same
rounds, so the estimate's tail metrics are exactly the trainer's clock.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSession
from repro.compression.registry import ALIASES
from repro.api.measures import estimate_throughput
from repro.core.evaluation import build_scheme_pair, build_trainer, run_end_to_end
from repro.simulator.cluster import multirack_cluster, paper_testbed
from repro.simulator.recovery import (
    DropRule,
    RecoveryPolicy,
    RetryRule,
    StaleRule,
    TimeoutRule,
    parse_policy,
    policy,
)
from repro.simulator.scenario import scenario_metrics
from repro.training.workloads import bert_large_wikitext

REGISTRY_SPECS = sorted(set(ALIASES.values()))

#: A scenario with real faults, so the scenario path (not the static
#: shortcut) is what the empty policy must leave untouched.
FAULT_SCENARIO = "slowdown(w=0, x=5)@1..4 + churn(p=0.4, x=3)@3..8"

#: Schemes exercising the distinct functional paths in the trainer check.
TRAINER_SPECS = [
    "baseline(p=fp16)",
    "topk(b=2)",
    "thc(q=4, rot=partial, agg=sat)",
    "powersgd(r=2)",
]

#: Finite, parse-time-valid parameter ranges for each rule family.
timeout_rules = st.builds(
    TimeoutRule, k=st.floats(min_value=1.0, max_value=64.0, allow_nan=False)
)
retry_rules = st.builds(
    RetryRule,
    max_attempts=st.integers(min_value=0, max_value=6),
    backoff=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
drop_rules = st.builds(DropRule, max_workers=st.integers(min_value=1, max_value=16))
stale_rules = st.builds(StaleRule, max_stale=st.integers(min_value=0, max_value=8))


@st.composite
def policies(draw):
    """Random policies: any subset of the four rule kinds (empty included)."""
    rules = []
    for strategy in (timeout_rules, retry_rules, drop_rules, stale_rules):
        if draw(st.booleans()):
            rules.append(draw(strategy))
    return RecoveryPolicy(rules=tuple(rules))


#: Alias spellings for each rule, exercising positional and named args.
_SPELLINGS = {
    "timeout": lambda r: [f"timeout(k={r.k!r})", f"deadline({r.k!r})"],
    "retry": lambda r: [
        f"retry(max={r.max_attempts}, backoff={r.backoff!r})",
        f"retry(max_attempts={r.max_attempts}, backoff={r.backoff!r})",
        f"retry({r.max_attempts}, {r.backoff!r})",
    ],
    "drop": lambda r: [
        f"drop(max_workers={r.max_workers})",
        f"drop_stragglers(f={r.max_workers})",
        f"drop({r.max_workers})",
    ],
    "stale": lambda r: [
        f"stale(max={r.max_stale})",
        f"stale_gradients(max_stale={r.max_stale})",
    ],
}


class TestPolicyRoundTrip:
    @given(subject=policies(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_spelling_and_order_parse_to_the_same_policy(self, subject, data):
        terms = []
        for rule in subject.rules:
            spellings = _SPELLINGS[rule.kind](rule)
            terms.append(data.draw(st.sampled_from(spellings)))
        order = data.draw(st.permutations(terms))
        joiner = data.draw(st.sampled_from([" + ", "+", "  +   "]))
        text = joiner.join(order)
        assert parse_policy(text) == subject

    @given(subject=policies())
    @settings(max_examples=50, deadline=None)
    def test_policy_is_hashable_cache_identity(self, subject):
        twin = parse_policy(subject.spec())
        assert hash(subject.cache_key()) == hash(twin.cache_key())
        assert len({subject, twin}) == 1


class TestEmptyPolicyBitExact:
    @pytest.mark.parametrize("spec", REGISTRY_SPECS)
    def test_pricing_bit_exact_across_registry(self, spec):
        workload = bert_large_wikitext()
        session = ExperimentSession()

        def run(recovery):
            return session.throughput(
                spec, workload, scenario=FAULT_SCENARIO, num_rounds=12, policy=recovery
            )

        plain = run(None)
        for empty in ("", "none", policy(""), RecoveryPolicy()):
            recovered = run(empty)
            assert recovered.round_seconds == plain.round_seconds
            assert recovered.rounds_per_second == plain.rounds_per_second
            assert recovered.cost == plain.cost
            assert recovered.pipeline == plain.pipeline
            assert recovered.scenario_metrics == plain.scenario_metrics
            assert recovered.policy is None  # empty never reports a policy
        metrics = plain.scenario_metrics
        assert metrics is not None
        assert metrics.timed_out_rounds == 0
        assert metrics.retries == 0
        assert metrics.dropped_worker_rounds == 0
        assert metrics.stale_rounds == 0

    @pytest.mark.parametrize("spec", TRAINER_SPECS)
    def test_training_bit_exact_under_empty_policy(self, spec):
        workload = bert_large_wikitext()

        def run(recovery):
            return run_end_to_end(
                spec,
                workload,
                num_rounds=5,
                eval_every=5,
                seed=7,
                scenario=FAULT_SCENARIO,
                policy=recovery,
            )

        plain = run(None)
        empty = run(policy(""))
        assert empty.history.train_losses == plain.history.train_losses
        assert empty.history.round_times == plain.history.round_times
        assert empty.rounds_per_second == plain.rounds_per_second
        for record_a, record_b in zip(
            plain.history.evaluations, empty.history.evaluations
        ):
            assert record_a.sim_time_seconds == record_b.sim_time_seconds
            assert record_a.metrics == record_b.metrics
        assert np.array_equal(plain.curve.values, empty.curve.values)


#: A chaos run every recovery rule reacts to: a deterministic straggler
#: window (drop and timeout) overlapping transient churn (retry re-draws).
AGREEMENT_SCENARIO = "slowdown(w=1, x=8)@5..15 + churn(p=0.05, x=4)@10..30"
AGREEMENT_POLICY = "timeout(k=2) + retry(max=1, backoff=0.1) + drop(max_workers=1)"
AGREEMENT_ROUNDS = 35

#: A registry sample covering dense, sparse (with error feedback in
#: training), quantized and low-rank pricing.
AGREEMENT_SPECS = [
    "baseline(p=fp16)",
    "topkc(b=2)",
    "thc(q=4, rot=partial, agg=sat)",
    "powersgd(r=2)",
]

AGREEMENT_CLUSTERS = {
    "testbed": paper_testbed,
    "multirack": lambda: multirack_cluster(2, nodes_per_rack=2, gpus_per_node=2),
}


class TestTrainerThroughputAgreement:
    @pytest.mark.parametrize("num_buckets", [1, 4])
    @pytest.mark.parametrize("cluster_name", sorted(AGREEMENT_CLUSTERS))
    @pytest.mark.parametrize("spec", AGREEMENT_SPECS)
    def test_trainer_clock_matches_throughput_estimate(
        self, spec, cluster_name, num_buckets
    ):
        workload = bert_large_wikitext()
        cluster = AGREEMENT_CLUSTERS[cluster_name]()
        history = build_trainer(
            spec,
            workload,
            cluster=cluster,
            num_buckets=num_buckets,
            scenario=AGREEMENT_SCENARIO,
            policy=AGREEMENT_POLICY,
        ).run(AGREEMENT_ROUNDS)
        # Price the trainer's own pricing scheme: training adds error
        # feedback to some families, which changes what a round costs.
        _, pricing = build_scheme_pair(spec, workload)
        estimate = estimate_throughput(
            pricing,
            workload,
            cluster=cluster,
            num_buckets=num_buckets,
            scenario=AGREEMENT_SCENARIO,
            num_rounds=AGREEMENT_ROUNDS,
            policy=AGREEMENT_POLICY,
        )
        assert history.round_seconds == estimate.pipeline.makespan_seconds
        expected = estimate.scenario_metrics
        observed = scenario_metrics(history.round_times, history.round_seconds)
        assert observed.total_seconds == expected.total_seconds
        assert observed.p99_round_seconds == expected.p99_round_seconds
        assert history.retries == expected.retries
        assert history.dropped_worker_rounds == expected.dropped_worker_rounds
        assert history.timed_out_rounds == expected.timed_out_rounds
        assert history.stale_rounds == expected.stale_rounds
