"""Unit tests for the dynamic-events scenario engine."""

from __future__ import annotations

import pytest

from repro.simulator.cluster import ClusterSpec, multirack_cluster, paper_testbed
from repro.simulator.scenario import (
    STATIC_SPEC,
    ChurnEvent,
    Scenario,
    ScenarioApplicationError,
    ScenarioParamError,
    ScenarioSyntaxError,
    SlowdownEvent,
    UnknownEventError,
    available_events,
    churn,
    domain_fail,
    join,
    leave,
    link_flap,
    nic_degrade,
    parse_scenario,
    run_scenario,
    scenario,
    scenario_metrics,
    slowdown,
    switch_memory_pressure,
)


class TestEventWindows:
    def test_half_open_window(self):
        event = slowdown(0, 2.0, at_round=10, until=40)
        assert not event.active_at(9)
        assert event.active_at(10)
        assert event.active_at(39)
        assert not event.active_at(40)

    def test_open_ended_window(self):
        event = slowdown(0, 2.0, at_round=5)
        assert not event.active_at(4)
        assert all(event.active_at(r) for r in (5, 100, 10_000))

    def test_default_window_is_always(self):
        assert slowdown(0, 2.0).active_at(0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="until_round"):
            slowdown(0, 2.0, at_round=9, until=9)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_round"):
            SlowdownEvent(worker=0, factor=2.0, start_round=-1)


class TestEventApplication:
    def test_slowdown_multiplies_profile(self):
        base = paper_testbed().with_straggler(1, 1.5)
        effective = slowdown(1, 2.0).apply(base, 0, None)
        assert effective.slowdown_of(1) == pytest.approx(3.0)
        assert effective.slowdown_of(0) == 1.0

    def test_nic_degrade_scales_nic(self):
        effective = nic_degrade(2, 4.0).apply(paper_testbed(), 0, None)
        assert effective.profile_of(2).nic_scale == 4.0
        assert effective.profile_of(2).slowdown == 1.0

    def test_flap_hits_whole_rack(self):
        base = multirack_cluster(2)
        effective = link_flap(1, x=8.0).apply(base, 0, None)
        scales = [effective.profile_of(r).nic_scale for r in range(base.world_size)]
        expected = [8.0 if base.rack_of(r) == 1 else 1.0 for r in range(base.world_size)]
        assert scales == expected

    def test_flap_rack_out_of_range(self):
        with pytest.raises(ScenarioApplicationError, match="rack"):
            link_flap(3).apply(paper_testbed(), 0, None)

    def test_worker_out_of_range(self):
        with pytest.raises(ScenarioApplicationError, match="world size"):
            slowdown(99, 2.0).apply(paper_testbed(), 0, None)

    def test_switch_memory_pressure_shrinks_pool(self):
        base = multirack_cluster(2)
        effective = switch_memory_pressure(0.25).apply(base, 0, None)
        assert (
            effective.fabric.switch.aggregation_memory_bytes
            == base.fabric.switch.aggregation_memory_bytes // 4
        )

    def test_switch_memory_pressure_noop_without_fabric(self):
        base = paper_testbed()
        assert switch_memory_pressure(0.25).apply(base, 0, None) is base

    def test_leave_drops_highest_nodes(self):
        base = paper_testbed().with_straggler(3, 2.0)
        effective = leave(1).apply(base, 0, None)
        assert effective.num_nodes == 1
        assert effective.world_size == 2
        assert sum(count for _, count in effective.profile_segments()) == 2
        assert effective.slowdown_of(1) == 1.0

    def test_join_adds_nominal_nodes(self):
        base = paper_testbed().with_straggler(0, 2.0)
        effective = join(2).apply(base, 0, None)
        assert effective.num_nodes == 4
        assert effective.slowdown_of(0) == 2.0
        assert effective.slowdown_of(7) == 1.0

    def test_leave_cannot_empty_cluster(self):
        with pytest.raises(ScenarioApplicationError, match="empty"):
            leave(2).apply(paper_testbed(), 0, None)

    def test_membership_respects_rack_divisibility(self):
        base = multirack_cluster(2)  # 4 nodes over 2 racks
        with pytest.raises(ScenarioApplicationError, match="racks"):
            leave(1).apply(base, 0, None)
        effective = leave(2).apply(base, 0, None)
        assert effective.num_nodes == 2

    def test_churn_is_deterministic_per_round(self):
        sc = scenario("churn(p=0.5)", seed=7)
        base = paper_testbed()
        assert sc.cluster_at(base, 3) == sc.cluster_at(base, 3)

    def test_churn_varies_across_rounds_and_seeds(self):
        base = paper_testbed()
        draws = {scenario("churn(p=0.5)", seed=0).cluster_at(base, r) for r in range(16)}
        assert len(draws) > 1
        seeded = [
            scenario("churn(p=0.5)", seed=s).clusters(base, 16) for s in range(2)
        ]
        assert seeded[0] != seeded[1]

    def test_events_compose_in_order(self):
        sc = Scenario.of(slowdown(0, 2.0), slowdown(0, 3.0))
        assert sc.cluster_at(paper_testbed(), 0).slowdown_of(0) == pytest.approx(6.0)


class TestScenarioContainer:
    def test_inactive_round_returns_base_identity(self):
        base = paper_testbed()
        sc = scenario("slowdown(w=0, x=2)@10..20")
        assert sc.cluster_at(base, 0) is base
        assert sc.cluster_at(base, 25) is base

    def test_static_scenario(self):
        assert Scenario().is_static
        assert Scenario().spec() == STATIC_SPEC
        assert scenario(STATIC_SPEC).is_static

    def test_horizon_and_default_rounds(self):
        sc = scenario("slowdown(w=0, x=2)@10..40 + flap(rack=0)@5..15")
        assert sc.horizon() == 40
        assert sc.default_num_rounds() == 45
        assert Scenario().default_num_rounds() == 1

    def test_open_ended_horizon_is_finite(self):
        assert scenario("slowdown(w=0, x=2)@10").horizon() == 11

    def test_seed_part_of_identity_name_not(self):
        a = scenario("churn(p=0.5)", seed=0, name="a")
        b = scenario("churn(p=0.5)", seed=0, name="b")
        c = scenario("churn(p=0.5)", seed=1)
        assert a == b
        assert a.cache_key() == b.cache_key()
        assert a != c
        assert a.label() == "a"

    def test_is_deterministic(self):
        assert scenario("slowdown(w=0, x=2)").is_deterministic
        assert not scenario("churn(p=0.1)").is_deterministic

    def test_max_world_size_sees_joins(self):
        sc = scenario("join(n=2)@3..5")
        assert sc.max_world_size(paper_testbed(), 10) == 8
        assert sc.max_world_size(paper_testbed(), 2) == 4

    def test_scenario_coercions(self):
        event = slowdown(0, 2.0)
        assert scenario(event).events == (event,)
        assert scenario([event]).events == (event,)
        sc = Scenario.of(event)
        assert scenario(sc) is sc


class TestSpecLanguage:
    ROUND_TRIPS = [
        "slowdown(w=3, x=2.5)@10..40",
        "nic_degrade(w=1, x=4)",
        "flap(rack=1, x=8)@20..25",
        "switch_mem(x=0.25)@7",
        "churn(p=0.05, x=4)",
        "join(n=2)@5..9",
        "leave(n=1)@3..4",
        "flap(rack=1, x=8)@20..25 + churn(p=0.05, x=4)",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        parsed = parse_scenario(text)
        assert parsed.spec() == text
        assert parse_scenario(parsed.spec()) == parsed

    def test_float_beyond_six_digits_round_trips(self):
        original = scenario("slowdown(w=1, x=1.2345678)@3..9")
        assert original.spec() == "slowdown(w=1, x=1.2345678)@3..9"
        reparsed = scenario(original.spec())
        assert reparsed == original
        assert reparsed.cache_key() == original.cache_key()
        churn_spec = "churn(p=0.0123456789, x=3.14159265)"
        assert parse_scenario(churn_spec).spec() == churn_spec

    def test_aliases_and_defaults(self):
        assert parse_scenario("link_flap(rack=1)") == parse_scenario("flap(rack=1, x=8)")
        assert parse_scenario("nic(w=0, x=2)") == parse_scenario("nic_degrade(w=0, x=2)")
        assert parse_scenario("switch_memory_pressure") == parse_scenario(
            "switch_mem(x=0.25)"
        )
        assert parse_scenario("churn(p=0.1)").events[0].factor == 4.0

    def test_positional_arguments(self):
        assert parse_scenario("slowdown(3, 2.5)") == parse_scenario("slowdown(w=3, x=2.5)")

    def test_whitespace_insensitive(self):
        a = parse_scenario("flap( rack = 1 , x = 2 ) @ 3 .. 5 + churn( p = 0.1 )")
        b = parse_scenario("flap(rack=1, x=2)@3..5+churn(p=0.1)")
        assert a == b

    def test_unknown_event_suggests(self):
        with pytest.raises(UnknownEventError, match="did you mean.*flap"):
            parse_scenario("flapp(rack=1)")

    def test_unknown_parameter(self):
        with pytest.raises(ScenarioParamError, match="valid parameters"):
            parse_scenario("slowdown(q=3)")

    def test_missing_required_parameter(self):
        with pytest.raises(ScenarioParamError, match="missing required"):
            parse_scenario("churn")

    def test_wrong_type(self):
        with pytest.raises(ScenarioParamError, match="expects int"):
            parse_scenario("slowdown(w=1.5, x=2)")

    def test_bad_value_reported_with_position(self):
        with pytest.raises(ScenarioSyntaxError, match="expected a number"):
            parse_scenario("slowdown(w=yes, x=2)")

    def test_empty_spec_rejected(self):
        with pytest.raises(ScenarioSyntaxError, match="empty"):
            parse_scenario("   ")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ScenarioSyntaxError, match="expected '\\+'"):
            parse_scenario("churn(p=0.1) churn(p=0.2)")

    def test_invalid_window_values(self):
        with pytest.raises(ScenarioSyntaxError, match="half-open"):
            parse_scenario("churn(p=0.1)@9..3")

    def test_empty_window_rejected_at_parse_time(self):
        with pytest.raises(ScenarioSyntaxError, match=r"@5\.\.5.*half-open"):
            parse_scenario("slowdown(w=1, x=8)@5..5")
        # The actionable message suggests the single-round spelling, which parses.
        event = parse_scenario("slowdown(w=1, x=8)@5..6").events[0]
        assert (event.start_round, event.until_round) == (5, 6)

    def test_available_events(self):
        assert set(available_events()) == {
            "slowdown",
            "nic_degrade",
            "flap",
            "domain_fail",
            "switch_mem",
            "churn",
            "join",
            "leave",
        }


class TestMetricsAndRun:
    def test_metrics_static_run(self):
        metrics = scenario_metrics([2.0, 2.0, 2.0], 2.0)
        assert metrics.degraded_rounds == 0
        assert metrics.excess_seconds == 0.0
        assert metrics.recovery_round is None
        assert metrics.p99_round_seconds == 2.0
        assert metrics.tail_amplification == 1.0

    def test_metrics_degraded_window(self):
        metrics = scenario_metrics([1.0, 3.0, 3.0, 1.0], 1.0)
        assert metrics.degraded_rounds == 2
        assert metrics.excess_seconds == pytest.approx(4.0)
        assert metrics.recovery_round == 3
        assert metrics.recovery_seconds == pytest.approx(6.0)
        assert metrics.max_round_seconds == 3.0

    def test_metrics_never_recovers(self):
        metrics = scenario_metrics([1.0, 1.0, 5.0], 1.0)
        assert metrics.recovery_round is None
        assert metrics.degraded_rounds == 1

    def test_run_scenario_memoizes_pricing(self):
        calls = []

        def price(cluster: ClusterSpec) -> float:
            calls.append(cluster)
            return 1.0 + (cluster.max_slowdown() - 1.0)

        run = run_scenario(
            paper_testbed(), scenario("slowdown(w=1, x=3)@10..90"), 100, price
        )
        assert len(calls) == 2  # base + one perturbed configuration
        assert run.distinct_clusters == 2
        assert run.metrics.degraded_rounds == 80
        assert run.round_seconds[0] == 1.0
        assert run.round_seconds[10] == 3.0

    def test_run_scenario_baseline_is_base_cluster(self):
        run = run_scenario(
            paper_testbed(),
            scenario("slowdown(w=0, x=2)@0..5"),
            10,
            lambda c: c.max_slowdown(),
        )
        assert run.metrics.baseline_round_seconds == 1.0
        assert run.metrics.recovery_round == 5


class TestChurnEventValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="p must be"):
            ChurnEvent(p=1.5)

    def test_factor_bounds(self):
        with pytest.raises(ValueError, match="factor"):
            churn(0.1, x=0.0)

    def test_switch_mem_factor_bounds(self):
        with pytest.raises(ValueError, match="factor"):
            switch_memory_pressure(0.0)


NAN = float("nan")


class TestNanFactorsRejected:
    """NaN passes ``factor <= 0``; each factor event rejects it up front."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: slowdown(1, NAN),
            lambda: nic_degrade(1, NAN),
            lambda: link_flap(0, x=NAN),
            lambda: domain_fail(0, x=NAN),
            lambda: churn(0.1, x=NAN),
        ],
        ids=["slowdown", "nic_degrade", "flap", "domain_fail", "churn"],
    )
    def test_nan_factor_rejected(self, build):
        with pytest.raises(ValueError, match="factor must be positive"):
            build()

    def test_infinite_factor_allowed(self):
        effective = slowdown(1, float("inf")).apply(paper_testbed(), 0, None)
        assert effective.max_slowdown() == float("inf")


class TestDomainFail:
    def fleet(self):
        from repro.simulator.cluster import fat_tree_cluster

        return fat_tree_cluster(8, gpus_per_node=2)  # 256 workers, 8 pods of 4 racks

    def test_parse_round_trips(self):
        sc = parse_scenario("domain_fail(d=3, x=4)@5..9")
        assert sc.spec() == "domain_fail(d=3, x=4)@5..9"
        event = sc.events[0]
        assert event.domain == 3
        assert event.factor == 4.0

    def test_domain_alias(self):
        assert parse_scenario("domain(d=1)").events[0].kind == "domain_fail"

    def test_apply_degrades_exactly_one_domain(self):
        fleet = self.fleet()
        effective = domain_fail(2, x=8.0).apply(fleet, 0, None)
        workers_per_domain = fleet.workers_per_rack * fleet.fabric.racks_per_domain
        start = 2 * workers_per_domain
        assert effective.profile_of(start).nic_scale == 8.0
        assert effective.profile_of(start + workers_per_domain - 1).nic_scale == 8.0
        assert effective.profile_of(start - 1).nic_scale == 1.0
        assert effective.profile_of(start + workers_per_domain).nic_scale == 1.0
        # O(#segments): the degraded range splices the nominal population.
        assert len(effective.profile_segments()) <= 3

    def test_apply_is_distributional_on_fleet_scale(self):
        from repro.simulator.cluster import fat_tree_cluster

        fleet = fat_tree_cluster(128, gpus_per_node=2)  # 1M workers
        effective = domain_fail(0, x=2.0).apply(fleet, 0, None)
        assert len(effective.profile_segments()) == 2
        assert effective.worst_nic_scale() == 2.0

    def test_out_of_range_domain_rejected(self):
        with pytest.raises(ScenarioApplicationError, match="domain"):
            domain_fail(8).apply(self.fleet(), 0, None)

    def test_fabricless_cluster_is_one_domain(self):
        effective = domain_fail(0, x=2.0).apply(paper_testbed(), 0, None)
        assert effective.worst_nic_scale() == 2.0
        with pytest.raises(ScenarioApplicationError, match="domain"):
            domain_fail(1).apply(paper_testbed(), 0, None)

    def test_window_bounds_the_degradation(self):
        sc = scenario("domain_fail(d=1, x=4)@2..4")
        fleet = self.fleet()
        assert sc.cluster_at(fleet, 1) == fleet
        assert sc.cluster_at(fleet, 2).worst_nic_scale() == 4.0
        assert sc.cluster_at(fleet, 4) == fleet

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            domain_fail(-1)
        with pytest.raises(ValueError, match="factor"):
            domain_fail(0, x=0.0)
