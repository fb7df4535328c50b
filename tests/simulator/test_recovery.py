"""Unit tests for the fault-recovery policy layer (PR 9 tentpole).

The spec language (parse / round-trip / suggestion UX mirroring
``scenario(...)``), parameter validation at parse time, and the
:class:`PolicyEngine`'s per-round resolution semantics: timeout aborts,
retry budgets on deterministic vs stochastic faults, straggler drops with
their explicit variance price, and stale-gradient degradation.
"""

from __future__ import annotations

import pytest

from repro.simulator.cluster import paper_testbed
from repro.simulator.recovery import (
    DropRule,
    PolicyEngine,
    PolicyParamError,
    PolicySyntaxError,
    RecoveryPolicy,
    RetryRule,
    StaleRule,
    TimeoutRule,
    UnknownPolicyRuleError,
    available_policy_rules,
    deadline_clamp,
    drop_stragglers,
    excuse_stragglers,
    parse_policy,
    policy,
    retry,
    run_recovered_scenario,
    stale_gradients,
    timeout,
)
from repro.simulator.scenario import Scenario, parse_scenario, run_scenario

CHAOS = "timeout(k=3) + retry(max=2, backoff=0.1) + drop(max_workers=1) + stale(max=2)"


def price_by_slowdown(cluster):
    """Toy pricing: the worst slowdown factor gates the round."""
    return max(profile.slowdown for profile, _ in cluster.profile_segments())


# --------------------------------------------------------------------------- #
# The spec language
# --------------------------------------------------------------------------- #
class TestPolicySpecs:
    def test_full_spec_round_trips(self):
        parsed = policy(CHAOS)
        assert parsed.spec() == CHAOS
        assert policy(parsed.spec()) == parsed

    def test_rules_are_canonically_ordered(self):
        shuffled = policy("stale(max=2) + drop(max_workers=1) + timeout(k=3)")
        assert shuffled.spec() == "timeout(k=3) + drop(max_workers=1) + stale(max=2)"
        assert shuffled == policy(shuffled.spec())

    @pytest.mark.parametrize("text", ["", "   ", "none"])
    def test_empty_spellings(self, text):
        parsed = policy(text)
        assert parsed.is_empty
        assert parsed.rules == ()
        assert parsed.spec() == "none"

    def test_none_coerces_to_empty(self):
        assert policy(None).is_empty

    def test_existing_policy_passes_through(self):
        original = policy(CHAOS)
        assert policy(original) is original

    def test_single_rule_and_sequence_coerce(self):
        assert policy(timeout(k=2.0)).spec() == "timeout(k=2)"
        composed = policy([drop_stragglers(2), timeout(2.0)])
        assert composed.spec() == "timeout(k=2) + drop(max_workers=2)"

    def test_aliases_and_positional_args(self):
        assert policy("deadline(2)") == policy("timeout(k=2)")
        assert policy("drop_stragglers(f=2)") == policy("drop(max_workers=2)")
        assert policy("stale_gradients(max_stale=3)") == policy("stale(max=3)")
        assert policy("retry(max_attempts=4)") == policy("retry(max=4, backoff=0.1)")

    def test_defaults_fill_omitted_params(self):
        assert policy("retry") == policy("retry(max=2, backoff=0.1)")
        assert policy("timeout") == policy("timeout(k=3)")

    def test_unknown_rule_suggests(self):
        with pytest.raises(UnknownPolicyRuleError) as excinfo:
            policy("timout(k=3)")
        message = str(excinfo.value)
        assert "timout" in message
        assert "timeout" in message
        assert "did you mean" in message

    def test_windows_are_rejected_with_guidance(self):
        with pytest.raises(PolicySyntaxError, match="windows belong to scenario"):
            policy("timeout(k=3)@5..10")

    @pytest.mark.parametrize(
        "text",
        [
            "timeout(k=oops)",
            "timeout(k=3) drop",
            "+ timeout(k=3)",
            "timeout(1 2=3)",
        ],
    )
    def test_malformed_specs_point_at_the_error(self, text):
        with pytest.raises(PolicySyntaxError) as excinfo:
            policy(text)
        assert "^" in str(excinfo.value)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("timeout(k=0.5)", "must be >= 1"),
            ("retry(max=-1)", "must be >= 0"),
            ("retry(backoff=-0.1)", "must be >= 0"),
            ("drop(max_workers=0)", "must be >= 1"),
            ("stale(max=-1)", "must be >= 0"),
            ("drop(max_workers=1.5)", "expects int"),
            ("timeout(k=1, k=2)", "given twice"),
            ("timeout(zzz=1)", "unknown parameter"),
            ("timeout(1, 2)", "too many positional"),
            ("timeout(k=2) + timeout(k=3)", "at most one rule of each kind"),
        ],
    )
    def test_bad_params_fail_at_parse_time(self, text, match):
        with pytest.raises(PolicyParamError, match=match):
            policy(text)

    def test_rule_constructors_validate_like_the_parser(self):
        with pytest.raises(ValueError):
            TimeoutRule(k=0.0)
        with pytest.raises(ValueError):
            RetryRule(max_attempts=-2)
        with pytest.raises(ValueError):
            DropRule(max_workers=0)
        with pytest.raises(ValueError):
            StaleRule(max_stale=-1)

    def test_nan_timeout_rejected(self):
        # NaN passes ``k < 1``; the deadline would compare False forever.
        with pytest.raises(ValueError, match="must be >= 1"):
            TimeoutRule(k=float("nan"))

    def test_nan_backoff_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            RetryRule(backoff=float("nan"))

    def test_available_rules(self):
        assert available_policy_rules() == ["drop", "retry", "stale", "timeout"]

    def test_name_is_display_only(self):
        named = policy(CHAOS, name="chaos")
        assert named.label() == "chaos"
        assert named == policy(CHAOS)  # name is not identity
        assert policy(CHAOS).label() == CHAOS
        assert named.cache_key() == policy(CHAOS).cache_key()


# --------------------------------------------------------------------------- #
# Per-round resolution
# --------------------------------------------------------------------------- #
def make_engine(spec: str, scenario_spec: str = "slowdown(w=0, x=10)@2..4"):
    base = paper_testbed()
    scenario = parse_scenario(scenario_spec)
    return PolicyEngine(
        base, scenario, policy(spec), deadline_clamp(price_by_slowdown)
    )


class TestPolicyEngine:
    def test_empty_policy_resolution_is_the_raw_round(self):
        engine = make_engine("none")
        quiet = engine.resolve(0)
        hit = engine.resolve(2)
        assert (quiet.seconds, hit.seconds) == (1.0, 10.0)
        for resolution in (quiet, hit):
            assert resolution.attempts == 1
            assert not resolution.timed_out
            assert not resolution.stale
            assert not resolution.skipped
            assert resolution.dropped_workers == 0
        assert engine.timed_out_rounds == engine.retries == 0

    def test_timeout_clamps_and_skips(self):
        engine = make_engine("timeout(k=3)")
        assert engine.deadline_seconds == 3.0
        hit = engine.resolve(2)
        assert hit.seconds == 3.0  # aborted at the deadline, not 10.0
        assert hit.timed_out
        assert hit.skipped  # no stale rule: the update is lost
        assert not hit.stale
        assert engine.timed_out_rounds == 1

    def test_stale_budget_is_consecutive(self):
        engine = make_engine(
            "timeout(k=3) + stale(max=1)",
            "slowdown(w=0, x=10)@2..4 + slowdown(w=0, x=10)@5..7",
        )
        first, second = engine.resolve(2), engine.resolve(3)
        assert first.stale and not first.skipped
        assert second.skipped and not second.stale  # budget of 1 exhausted
        quiet = engine.resolve(4)  # quiet round resets the consecutive counter
        assert not quiet.timed_out
        third = engine.resolve(5)
        assert third.stale  # a fresh fault window gets a fresh stale budget
        assert engine.stale_rounds == 2

    def test_round_zero_abort_cannot_go_stale(self):
        engine = make_engine("timeout(k=3) + stale(max=2)", "slowdown(w=0, x=10)@0..2")
        first = engine.resolve(0, can_stale=False)
        assert first.timed_out and first.skipped and not first.stale

    def test_retry_on_deterministic_window_wastes_budget_honestly(self):
        engine = make_engine("retry(max=2, backoff=0.1)")
        hit = engine.resolve(2)
        # Two failed attempts at 10.0 each, backoff 0.1 then 0.2 nominal
        # rounds, then the accepted (still degraded) third attempt.
        assert hit.attempts == 3
        assert hit.retries == 2
        assert hit.seconds == pytest.approx(10.0 + 0.1 + 10.0 + 0.2 + 10.0)
        assert engine.retries == 2

    def test_retry_not_triggered_on_quiet_round(self):
        engine = make_engine("retry(max=2, backoff=0.1)")
        quiet = engine.resolve(0)
        assert quiet.attempts == 1
        assert quiet.seconds == 1.0

    def test_drop_excuses_the_straggler(self):
        engine = make_engine("drop(max_workers=1)")
        hit = engine.resolve(2)
        assert hit.dropped_workers == 1
        assert hit.excused_ranks == (0,)
        assert hit.seconds == 1.0  # collective stops waiting for the straggler
        assert hit.vnmse_penalty == pytest.approx(4 / 3)  # n/(n-f) on 4 workers
        assert engine.dropped_worker_rounds == 1

    def test_drop_without_stragglers_is_a_noop(self):
        engine = make_engine("drop(max_workers=2)", "churn(p=0.0, x=4)@0..2")
        quiet = engine.resolve(0)
        assert quiet.dropped_workers == 0
        assert quiet.seconds == 1.0

    def test_pricing_is_memoized_per_distinct_cluster(self):
        calls = []

        def counting(cluster):
            calls.append(cluster)
            return price_by_slowdown(cluster)

        base = paper_testbed()
        scenario = parse_scenario("slowdown(w=0, x=10)@2..6")
        engine = PolicyEngine(base, scenario, policy("none"), deadline_clamp(counting))
        for index in range(8):
            engine.resolve(index)
        assert engine.distinct_clusters == 2  # base + the one perturbed config
        assert len(calls) == 2

    def test_adopt_state_carries_run_level_counters(self):
        first = make_engine("timeout(k=3) + stale(max=3)")
        first.resolve(2)
        first.resolve(3)
        successor = make_engine("timeout(k=2)")
        successor.adopt_state(first)
        assert successor.timed_out_rounds == first.timed_out_rounds
        assert successor.stale_rounds == first.stale_rounds
        assert successor._consecutive_stale == first._consecutive_stale

    def test_metrics_carry_recovery_counters(self):
        engine = make_engine("timeout(k=3)")
        seconds = [engine.resolve(index).seconds for index in range(6)]
        metrics = engine.metrics(seconds)
        assert metrics.timed_out_rounds == 2  # rounds 2 and 3 abort
        assert metrics.num_rounds == 6
        assert metrics.p99_round_seconds <= 3.0  # the deadline caps the tail


class TestExcuseStragglers:
    def test_membership_change_disables_dropping(self):
        base = paper_testbed()
        scenario = parse_scenario("leave(n=1)@0..4")
        shrunk = scenario.cluster_at(base, 0)
        rewritten, ranks = excuse_stragglers(shrunk, base, max_workers=2)
        assert rewritten is shrunk
        assert ranks == ()

    def test_budget_takes_worst_first(self):
        base = paper_testbed()
        scenario = parse_scenario("slowdown(w=0, x=4)@0..2 + slowdown(w=2, x=9)@0..2")
        perturbed = scenario.cluster_at(base, 0)
        _, ranks = excuse_stragglers(perturbed, base, max_workers=1)
        assert ranks == (2,)  # x=9 beats x=4
        rewritten, both = excuse_stragglers(perturbed, base, max_workers=2)
        assert both == (0, 2)
        assert price_by_slowdown(rewritten) == 1.0


class TestRunRecoveredScenario:
    def test_empty_policy_matches_run_scenario_bit_exactly(self):
        base = paper_testbed()
        scenario = parse_scenario("slowdown(w=1, x=6)@1..4 + churn(p=0.3, x=3)@2..8")
        plain = run_scenario(base, scenario, 10, price_by_slowdown)
        recovered = run_recovered_scenario(
            base, scenario, policy("none"), 10, deadline_clamp(price_by_slowdown)
        )
        assert recovered.round_seconds == plain.round_seconds
        assert recovered.metrics == plain.metrics
        assert recovered.distinct_clusters == plain.distinct_clusters
        assert recovered.mean_vnmse_penalty == 1.0

    def test_chaos_policy_tames_the_tail(self):
        base = paper_testbed()
        scenario = parse_scenario("slowdown(w=0, x=10)@2..6")
        plain = run_scenario(base, scenario, 10, price_by_slowdown)
        recovered = run_recovered_scenario(
            base,
            scenario,
            policy("timeout(k=2) + drop(max_workers=1)"),
            10,
            deadline_clamp(price_by_slowdown),
        )
        assert recovered.metrics.p99_round_seconds < plain.metrics.p99_round_seconds
        assert recovered.metrics.dropped_worker_rounds == 4
        assert recovered.metrics.timed_out_rounds == 0  # drop beats the deadline

    def test_rejects_empty_runs(self):
        with pytest.raises(ValueError, match="num_rounds"):
            run_recovered_scenario(
                paper_testbed(),
                Scenario(),
                policy("none"),
                0,
                deadline_clamp(price_by_slowdown),
            )


class TestPolicyContainerValidation:
    def test_duplicate_kinds_rejected_programmatically(self):
        with pytest.raises(PolicyParamError, match="at most one"):
            RecoveryPolicy.of(timeout(2.0), timeout(3.0))

    def test_non_rule_rejected(self):
        with pytest.raises(TypeError, match="not a PolicyRule"):
            RecoveryPolicy(rules=("timeout",))  # type: ignore[arg-type]

    def test_constructor_helpers_match_specs(self):
        assert retry(3, 0.5) == policy("retry(max=3, backoff=0.5)").retry_rule
        assert stale_gradients(2) == policy("stale(max=2)").stale_rule
        assert timeout(2.5) == policy("timeout(k=2.5)").timeout_rule
        assert drop_stragglers(3) == policy("drop(max_workers=3)").drop_rule
