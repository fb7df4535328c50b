"""Scenario-aware sweeps: the scenarios axis, memo keys, and executors.

Three contracts:

* **Memo-key regression** -- two scenarios on the same cluster (or one
  scenario at two seeds) never share a memo entry; scenario-free points and
  static-scenario points are likewise distinct keys.
* **Seed reproducibility** -- the serial, thread, and process executors
  produce bit-identical sweep results for the same scenario and seed
  (catches executor-order nondeterminism: churn randomness must derive from
  the scenario seed and round index, never from execution order).
* **Axis mechanics** -- grid expansion, point addressing, and the tidy-table
  scenario column.
"""

from __future__ import annotations

import pytest

from repro.api import ANY, ExperimentSession, expand_grid, scenario
from repro.simulator.cluster import paper_testbed
from repro.simulator.scenario import Scenario
from repro.training.workloads import bert_large_wikitext, vgg19_tinyimagenet

FAULTY = "slowdown(w=1, x=4)@2..8"
CHURNY = "churn(p=0.3, x=3)@0..10"


@pytest.fixture
def session() -> ExperimentSession:
    return ExperimentSession(seed=0)


class TestScenarioAxis:
    def test_expand_grid_scenarios_axis(self):
        workload = bert_large_wikitext()
        scenarios = [Scenario(), scenario(FAULTY)]
        grid = expand_grid(["a", "b"], workload, None, scenarios)
        assert len(grid) == 4
        assert [entry[3] for entry in grid] == [
            scenarios[0],
            scenarios[0],
            scenarios[1],
            scenarios[1],
        ]

    def test_expand_grid_empty_scenarios_rejected(self):
        with pytest.raises(ValueError, match="scenarios axis"):
            expand_grid(["a"], None, None, [])

    def test_no_axis_keeps_scenario_free_points(self, session):
        grid = session.sweep(["topk(b=2)"], workloads=bert_large_wikitext())
        assert grid.points[0].scenario is None
        assert not grid.has_scenarios
        assert grid.header() == ["Scheme", "Workload", "Cluster", "throughput"]

    def test_points_addressable_by_scenario(self, session):
        workload = bert_large_wikitext()
        faulty = scenario(FAULTY, name="straggler")
        grid = session.sweep(
            ["topk(b=2)"],
            workloads=workload,
            scenarios=[Scenario(name="quiet"), faulty],
            metric="throughput",
            num_rounds=10,
        )
        assert grid.has_scenarios
        assert grid.scenarios == ["quiet", "straggler"]
        quiet = grid.value("topk(b=2)", scenario="quiet")
        slow = grid.value("topk(b=2)", scenario="straggler")
        assert slow < quiet
        # Scenario objects and labels both address the point.
        assert grid.value("topk(b=2)", scenario=faulty) == slow
        with pytest.raises(KeyError):
            grid.point("topk(b=2)", scenario="nonexistent")

    def test_scenario_column_in_rows(self, session):
        grid = session.sweep(
            ["topk(b=2)"],
            workloads=bert_large_wikitext(),
            scenarios=scenario(FAULTY),
            metric="throughput",
            num_rounds=10,
        )
        assert grid.header() == ["Scheme", "Workload", "Cluster", "Scenario", "throughput"]
        assert grid.rows()[0][3] == FAULTY
        assert len(grid.rows()[0]) == len(grid.header())

    def test_spec_strings_accepted_for_scenarios(self, session):
        grid = session.sweep(
            ["topk(b=2)"],
            workloads=bert_large_wikitext(),
            scenarios=[FAULTY],
            metric="throughput",
            num_rounds=10,
        )
        assert grid.points[0].scenario == FAULTY

    def test_vnmse_rejects_scenarios(self, session):
        with pytest.raises(ValueError, match="no time dimension"):
            session.sweep(
                ["topk(b=2)"],
                metric="vnmse",
                scenarios=scenario(FAULTY),
                parallel=False,
            )

    def test_callable_metric_receives_scenario(self, session):
        seen = []

        def metric(inner_session, spec, workload, cluster, scenario=None):
            seen.append(scenario)
            return 1.0

        session.sweep(
            ["topk(b=2)"],
            workloads=bert_large_wikitext(),
            scenarios=scenario(FAULTY),
            metric=metric,
            parallel=False,
        )
        assert [s.spec() for s in seen] == [FAULTY]


class TestScenarioMemoKeys:
    """Regression: the sweep memo key must incorporate the scenario identity."""

    def test_two_scenarios_on_same_cluster_never_share_memo(self, session):
        workload = bert_large_wikitext()
        grid = session.sweep(
            ["topk(b=2)"],
            workloads=workload,
            scenarios=[FAULTY, "slowdown(w=1, x=9)@2..8"],
            metric="throughput",
            num_rounds=10,
        )
        # Same spec, same workload, same (session) cluster -- different
        # scenarios must be measured separately, not served from one entry.
        assert session.cached_points == 2
        values = [point.value for point in grid]
        assert values[0] != values[1]

    def test_same_scenario_at_two_seeds_never_shares_memo(self, session):
        workload = bert_large_wikitext()
        grid = session.sweep(
            ["topk(b=2)"],
            workloads=workload,
            scenarios=[scenario(CHURNY, seed=0), scenario(CHURNY, seed=1)],
            metric="throughput",
            num_rounds=10,
        )
        assert session.cached_points == 2
        assert grid.points[0].value != grid.points[1].value

    def test_renamed_identical_scenarios_stay_addressable(self, session):
        """Regression: one memo entry, but each point keeps its own label."""
        workload = bert_large_wikitext()
        named_a = scenario(CHURNY, name="first")
        named_b = scenario(CHURNY, name="second")
        grid = session.sweep(
            ["topk(b=2)"],
            workloads=workload,
            scenarios=[named_a, named_b],
            metric="throughput",
            num_rounds=10,
        )
        assert session.cached_points == 1  # identical identity -> one entry
        assert [point.scenario for point in grid] == ["first", "second"]
        assert grid.value("topk(b=2)", scenario=named_b) == grid.value(
            "topk(b=2)", scenario=named_a
        )

    def test_identical_scenarios_do_share_memo(self, session):
        workload = bert_large_wikitext()
        session.sweep(
            ["topk(b=2)"],
            workloads=workload,
            scenarios=[scenario(FAULTY)],
            metric="throughput",
            num_rounds=10,
        )
        assert session.cached_points == 1
        session.sweep(
            ["topk(b=2)"],
            workloads=workload,
            scenarios=[scenario(FAULTY, name="renamed-but-identical")],
            metric="throughput",
            num_rounds=10,
        )
        assert session.cached_points == 1  # display name is not identity

    def test_scenario_free_and_static_scenario_points_are_distinct_keys(self, session):
        workload = bert_large_wikitext()
        session.sweep(["topk(b=2)"], workloads=workload)
        assert session.cached_points == 1
        session.sweep(
            ["topk(b=2)"], workloads=workload, scenarios=Scenario(), num_rounds=5
        )
        assert session.cached_points == 2


class TestExecutorSeedReproducibility:
    """Identical sweep results for serial/thread/process executors."""

    GRID_SPECS = ["topk(b=2)", "thc(q=4, rot=partial, agg=sat)", "powersgd(r=4)"]

    def _run(self, executor: str) -> list[tuple]:
        session = ExperimentSession(seed=7, executor=executor)
        grid = session.sweep(
            self.GRID_SPECS,
            workloads=[bert_large_wikitext(), vgg19_tinyimagenet()],
            scenarios=[scenario(CHURNY, seed=13), FAULTY],
            metric="throughput",
            num_rounds=12,
            executor=executor,
            memoize=False,
        )
        return [
            (point.spec, point.workload, point.scenario, point.value) for point in grid
        ]

    def test_serial_thread_process_agree(self):
        serial = self._run("serial")
        thread = self._run("thread")
        assert thread == serial
        process = self._run("process")
        assert process == serial

    def test_tta_process_executor_reproduces_serial(self):
        def run(executor: str):
            session = ExperimentSession(seed=3, executor=executor)
            grid = session.sweep(
                ["topk(b=2)"],
                workloads=bert_large_wikitext(),
                scenarios=[scenario(CHURNY, seed=5)],
                metric="tta",
                num_rounds=8,
                eval_every=4,
                executor=executor,
            )
            detail = grid.points[0].detail
            return grid.points[0].value, detail.history.round_times

        serial_value, serial_times = run("serial")
        process_value, process_times = run("process")
        assert process_value == serial_value
        assert process_times == serial_times

    def test_churn_reproducible_across_sessions(self):
        workload = bert_large_wikitext()
        values = [
            ExperimentSession(seed=0)
            .throughput(
                "topk(b=2)", workload, scenario=scenario(CHURNY, seed=4), num_rounds=12
            )
            .rounds_per_second
            for _ in range(2)
        ]
        assert values[0] == values[1]


class TestTrainerScenarioBehaviour:
    def test_round_times_follow_events(self):
        session = ExperimentSession(seed=0)
        result = session.tta(
            "topk(b=2)",
            bert_large_wikitext(),
            num_rounds=6,
            eval_every=3,
            scenario="slowdown(w=0, x=5)@2..4",
        )
        times = result.history.round_times
        assert len(times) == 6
        assert times[0] == times[1] == times[4] == times[5]
        assert times[2] == times[3] > times[0]
        # The evaluation clock accumulates the per-round times.
        final = result.history.evaluations[-1]
        assert final.sim_time_seconds == pytest.approx(sum(times))

    def test_tta_throughput_reflects_the_scenario(self):
        """Regression: EndToEndResult.rounds_per_second must not report the
        static throughput for a run whose rounds were scenario-perturbed."""
        session = ExperimentSession(seed=0)
        workload = bert_large_wikitext()
        static = session.tta("topk(b=2)", workload, num_rounds=6, eval_every=3)
        perturbed = session.tta(
            "topk(b=2)",
            workload,
            num_rounds=6,
            eval_every=3,
            scenario="slowdown(w=0, x=5)@0..6",
        )
        assert perturbed.rounds_per_second < static.rounds_per_second
        times = perturbed.history.round_times
        assert perturbed.rounds_per_second == pytest.approx(len(times) / sum(times))

    def test_scenario_pricing_keeps_custom_kernel_cost_model(self):
        """Regression: perturbed rounds must be priced with the caller's
        kernel cost model, not a default-factor rebuild."""
        import numpy as np

        from repro.api.measures import estimate_throughput
        from repro.collectives.api import CollectiveBackend
        from repro.compression.base import SimContext
        from repro.compression.registry import make_scheme
        from repro.simulator.kernel_cost import KernelCostModel

        base = paper_testbed()
        ctx = SimContext(
            backend=CollectiveBackend(base),
            kernels=KernelCostModel(gpu=base.gpu, topk_selection_factor=300.0),
            rng=np.random.default_rng(0),
        )
        estimate = estimate_throughput(
            make_scheme("topk(b=2)"),
            bert_large_wikitext(),
            ctx=ctx,
            scenario="slowdown(w=1, x=8)@1..2",
            num_rounds=4,
        )
        metrics = estimate.scenario_metrics
        # The straggler multiplies the (inflated) kernel time, so the excess
        # must scale with the custom factor; with the default-factor rebuild
        # the degraded round was priced on a different model entirely.
        baseline = metrics.baseline_round_seconds
        assert metrics.max_round_seconds > 5 * baseline

    def test_context_for_an_effective_cluster_keeps_kernels_on_the_same_gpu(self):
        import dataclasses

        from repro.collectives.api import CollectiveBackend
        from repro.compression.base import SimContext
        from repro.simulator.kernel_cost import KernelCostModel

        base = paper_testbed()
        kernels = KernelCostModel(gpu=base.gpu, topk_selection_factor=300.0)
        ctx = SimContext(
            backend=CollectiveBackend(base), kernels=kernels, kernel_backend="legacy"
        )
        perturbed = scenario("slowdown(w=1, x=8)").cluster_at(base, 0)
        moved = ctx.for_cluster(perturbed)
        assert moved.backend.cluster is perturbed
        assert moved.kernels is kernels
        assert moved.kernel_backend is ctx.kernel_backend
        other_gpu = dataclasses.replace(base, gpu=dataclasses.replace(base.gpu, name="other"))
        rebuilt = ctx.for_cluster(other_gpu)
        assert rebuilt.kernels is not kernels
        assert rebuilt.kernels.gpu == other_gpu.gpu

    def test_elastic_membership_changes_worker_count(self):
        session = ExperimentSession(seed=0)
        result = session.tta(
            "topk(b=2)",
            bert_large_wikitext(),
            num_rounds=6,
            eval_every=3,
            scenario="leave(n=1)@1..3 + join(n=1)@4..6",
        )
        assert len(result.history.round_times) == 6
        assert result.history.scenario == "leave(n=1)@1..3 + join(n=1)@4..6"

    def test_error_feedback_survives_membership_change(self):
        session = ExperimentSession(seed=0)
        result = session.tta(
            "ef(topk(b=2))",
            bert_large_wikitext(),
            num_rounds=6,
            eval_every=3,
            scenario="leave(n=1)@2..4",
        )
        assert len(result.history.train_losses) == 6

    def test_scenario_trainer_on_multirack_switch_pressure(self):
        from repro.simulator.cluster import multirack_cluster

        session = ExperimentSession(cluster=multirack_cluster(2), seed=0)
        estimate = session.throughput(
            "thc(q=4, rot=partial, agg=switch)",
            bert_large_wikitext(),
            scenario="switch_mem(x=0.05)@3..6",
            num_rounds=10,
        )
        metrics = estimate.scenario_metrics
        assert metrics.degraded_rounds == 3
        assert metrics.p99_round_seconds > metrics.baseline_round_seconds
