"""The distributed data-parallel trainer: where everything comes together.

Each round the trainer

1. lets every worker compute the gradient of the shared parameters on its own
   mini-batch (functional NumPy compute),
2. aggregates the per-worker gradients through the configured
   :class:`~repro.compression.AggregationScheme` (which applies the real
   compression math and records its cost),
3. applies the aggregated gradient with the optimizer, and
4. advances the *simulated clock* by the per-round time of the paper-scale
   workload: testbed compute time plus the scheme's compression and
   communication time priced at the real model size.

The result is a :class:`TrainingHistory` whose metric-versus-simulated-time
trajectory is exactly the raw material of the paper's TTA figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.collectives.api import CollectiveBackend
from repro.compression.base import AggregationScheme, CostEstimate, SimContext, price_round
from repro.compression.kernels import KernelBackend
from repro.simulator.cluster import ClusterSpec, paper_testbed
from repro.simulator.gpu import Precision
from repro.simulator.kernel_cost import KernelCostModel
from repro.simulator.pipeline import PipelineResult
from repro.simulator.recovery import PolicyEngine, RecoveryPolicy, policy as as_policy
from repro.simulator.scenario import Scenario, scenario as as_scenario
from repro.training.adaptive import AdaptiveController, SwitchEvent
from repro.training.data import SyntheticTeacherDataset
from repro.training.models import Model
from repro.training.optimizer import SGD
from repro.training.worker import DDPWorker
from repro.training.workloads import WorkloadSpec


class StoppingCriterion(Protocol):
    """Anything that can decide when a metric trajectory has converged."""

    def update(self, value: float) -> bool:
        """Feed one metric observation; return True when training should stop."""


@dataclass(frozen=True)
class EvaluationRecord:
    """One held-out evaluation point along the training trajectory."""

    round_index: int
    sim_time_seconds: float
    metrics: dict[str, float]


@dataclass
class TrainingHistory:
    """The full trajectory of one training run under one aggregation scheme.

    Attributes:
        workload_name: Which workload preset produced the run.
        scheme_name: Name of the aggregation scheme.
        metric_name: The goal metric ("perplexity" or "accuracy").
        metric_improves: "up" or "down".
        round_seconds: Nominal simulated duration of one round on the
            unperturbed cluster (the constant round time of a static run).
        train_losses: Per-round training loss of worker 0's batch.
        evaluations: Periodic held-out evaluations.
        round_times: Simulated duration of every executed round, in round
            order.  Constant (== ``round_seconds``) for static runs; under a
            dynamic scenario each round is priced on its effective cluster.
        scenario: Canonical spec of the scenario the run executed under, or
            None for a static run.
        policy: Canonical spec of the recovery policy the run executed
            under, or None when no policy was active.
        timed_out_rounds: Rounds whose collective was aborted at the policy
            deadline (their updates were stale-applied or skipped).
        retries: Total collective re-issues across the run.
        dropped_worker_rounds: Sum over rounds of stragglers excused from
            the collective by the drop rule.
        stale_rounds: Timed-out rounds that re-applied the previous
            aggregate instead of skipping the update.
        scheme_switches: The adaptive controller's switch decisions, in
            round order (empty for static-scheme runs).
    """

    workload_name: str
    scheme_name: str
    metric_name: str
    metric_improves: str
    round_seconds: float
    train_losses: list[float] = field(default_factory=list)
    evaluations: list[EvaluationRecord] = field(default_factory=list)
    round_times: list[float] = field(default_factory=list)
    scenario: str | None = None
    policy: str | None = None
    timed_out_rounds: int = 0
    retries: int = 0
    dropped_worker_rounds: int = 0
    stale_rounds: int = 0
    scheme_switches: list[SwitchEvent] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        """Number of training rounds executed."""
        return len(self.train_losses)

    def times(self) -> np.ndarray:
        """Simulated times (seconds) of the evaluation points."""
        return np.array([record.sim_time_seconds for record in self.evaluations])

    def metric_values(self) -> np.ndarray:
        """Goal-metric values at the evaluation points."""
        return np.array([record.metrics[self.metric_name] for record in self.evaluations])

    def final_metric(self) -> float:
        """Goal metric at the last evaluation point."""
        if not self.evaluations:
            raise ValueError("no evaluations recorded")
        return self.evaluations[-1].metrics[self.metric_name]

    def best_metric(self) -> float:
        """Best goal-metric value seen at any evaluation point."""
        values = self.metric_values()
        if values.size == 0:
            raise ValueError("no evaluations recorded")
        return float(values.max() if self.metric_improves == "up" else values.min())

    def throughput_rounds_per_second(self) -> float:
        """Simulated training throughput implied by the per-round time."""
        if self.round_seconds <= 0:
            raise ValueError("round_seconds must be positive")
        return 1.0 / self.round_seconds

    def effective_rounds_per_second(self) -> float:
        """Throughput over the rounds actually simulated.

        Under a dynamic scenario this is ``num_rounds / total_time`` of the
        recorded per-round times -- the run-level throughput the tail events
        actually allowed -- while static runs keep the exact nominal
        ``1 / round_seconds`` (no re-derivation through a sum, so static
        numbers stay bit-identical to the historical closed form).
        """
        if not self.round_times or all(
            time == self.round_seconds for time in self.round_times
        ):
            return self.throughput_rounds_per_second()
        total = sum(self.round_times)
        if total <= 0:
            raise ValueError("round times must be positive")
        return len(self.round_times) / total


class DDPTrainer:
    """Trains one model with one aggregation scheme on a simulated cluster.

    Every run goes through one round loop: a
    :class:`~repro.simulator.recovery.PolicyEngine` resolves each round's
    effective cluster, charged time and contributing workers from the
    run's scenario (no events when none is given) and recovery policy
    (empty when none is given).  A static run is the scenario with no
    events, and a scenario run is the empty policy, both bit-exactly; a
    static run also keeps the closed-form clock ``round_index *
    round_seconds``.  Rounds are priced once per distinct (scheme,
    effective cluster, deadline) and memoized for the whole run.

    Args:
        model: The NumPy model being trained (shared by all workers).
        dataset: Synthetic dataset providing per-worker shards and a test set.
        scheme: Aggregation scheme applied to the per-worker gradients.
        workload: Paper-scale workload facts used to price each round.
        cluster: Simulated cluster (defaults to the paper testbed).
        optimizer: Parameter update rule (defaults to SGD with momentum).
        pricing_scheme: Optional second scheme instance used only to price
            the round at ``workload.paper_num_coordinates`` (useful when the
            functional scheme is configured for the small simulation model,
            e.g. PowerSGD layer shapes).  Defaults to ``scheme``.
        training_precision: Precision of the forward/backward compute used to
            look up the workload's per-round compute time.
        eval_every: Rounds between held-out evaluations.
        seed: Seed for worker batch sampling and scheme randomness.
        num_buckets: Gradient buckets per round.  With more than one bucket
            the round is priced by the bucketed pipeline simulator: early
            buckets' collectives interleave with the rest of the backward
            pass and with later buckets' compression, and heterogeneous
            clusters (stragglers, mixed NIC tiers) are priced exactly.
        kernel_backend: Compression hot-path implementation: ``"batched"``
            (default, fused vectorized kernels over the stacked worker
            matrix) or ``"legacy"`` (per-worker float64 reference loops).
        scenario: Optional dynamic-events scenario
            (:class:`~repro.simulator.scenario.Scenario` or a spec string).
            Each round is then priced on the scenario's effective cluster for
            that round (stragglers, link flaps, switch memory pressure), and
            elastic membership events (join/leave) change which workers
            contribute gradients: leave drops the highest ranks, join adds
            fresh workers (error-feedback residuals reset on membership
            changes, as a real elastic job's would).
        policy: Optional fault-recovery policy
            (:class:`~repro.simulator.recovery.RecoveryPolicy` or a spec
            string like ``"timeout(k=3) + retry(max=2)"``) applied to the
            scenario's rounds: deadlines abort degraded collectives, retries
            re-issue them, the drop rule excuses stragglers from the
            collective (their gradients do not contribute -- the explicit
            variance penalty of partial aggregation), and timed-out rounds
            re-apply the previous aggregate (stale) or skip the update.
            Requires ``scenario``.
        controller: Optional online
            :class:`~repro.training.adaptive.AdaptiveController` that
            watches windowed round-time telemetry and switches the active
            scheme mid-run when the cost model says another candidate is
            now faster (with hysteresis, cooldown, and an explicit switch
            cost).  Requires ``candidate_schemes`` and ``active_spec``.
        candidate_schemes: ``spec -> (functional, pricing)`` scheme pairs
            the controller may switch between; must cover every controller
            candidate.
        active_spec: Spec label of the initial scheme (must be one of the
            controller's candidates).
    """

    def __init__(
        self,
        model: Model,
        dataset: SyntheticTeacherDataset,
        scheme: AggregationScheme,
        workload: WorkloadSpec,
        *,
        cluster: ClusterSpec | None = None,
        optimizer: SGD | None = None,
        pricing_scheme: AggregationScheme | None = None,
        training_precision: Precision = Precision.TF32,
        eval_every: int = 10,
        seed: int = 0,
        num_buckets: int = 1,
        kernel_backend: KernelBackend | str = KernelBackend.BATCHED,
        scenario: Scenario | str | None = None,
        policy: RecoveryPolicy | str | None = None,
        controller: AdaptiveController | None = None,
        candidate_schemes: (
            dict[str, tuple[AggregationScheme, AggregationScheme]] | None
        ) = None,
        active_spec: str | None = None,
    ):
        if eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.model = model
        self.dataset = dataset
        self.scheme = scheme
        self.workload = workload
        self.cluster = cluster or paper_testbed()
        self.optimizer = optimizer or SGD(workload.sim_base_lr)
        self.training_precision = training_precision
        self.eval_every = eval_every
        self.seed = seed
        self.num_buckets = num_buckets
        self.scenario = as_scenario(scenario) if scenario is not None else None
        self.policy = as_policy(policy)
        if not self.policy.is_empty and self.scenario is None:
            raise ValueError(
                "a recovery policy only applies to scenario runs; pass "
                'scenario= as well (scenario="static" for an explicit '
                "no-event run)"
            )
        self.controller = controller
        if controller is not None:
            if candidate_schemes is None:
                raise ValueError(
                    "controller requires candidate_schemes: a spec -> "
                    "(functional, pricing) mapping covering its candidates"
                )
            missing = [
                spec for spec in controller.candidates if spec not in candidate_schemes
            ]
            if missing:
                raise ValueError(
                    f"candidate_schemes is missing controller candidates: {missing}"
                )
            if active_spec is None or active_spec not in controller.candidates:
                raise ValueError(
                    "active_spec must name the initial scheme and be one of "
                    f"the controller's candidates {controller.candidates}"
                )
        self._candidate_schemes = dict(candidate_schemes or {})
        self._active_spec = active_spec

        backend = CollectiveBackend(self.cluster)
        # One context for the whole run: the batched kernels' workspace is
        # reused round after round, so steady-state rounds allocate nothing.
        self._ctx = SimContext(
            backend=backend,
            kernels=KernelCostModel(gpu=self.cluster.gpu),
            rng=np.random.default_rng(seed),
            kernel_backend=KernelBackend.coerce(kernel_backend),
        )
        self.workers: list[DDPWorker] = []
        self._active_workers(self.cluster.world_size)

        self._pricing = pricing_scheme or scheme
        self._compute_seconds = workload.compute_seconds_for(training_precision)
        # Priced rounds by (scheme spec, effective cluster, deadline): one memo
        # for the recovery engine and the controller's consultations.
        self._round_prices: dict[tuple, tuple[CostEstimate, PipelineResult]] = {}
        self.round_cost_estimate, self.round_pipeline = self._priced_round(self.cluster)
        self.round_seconds = self.round_pipeline.makespan_seconds
        self._ctx_by_world: dict[int, SimContext] = {self.cluster.world_size: self._ctx}

    # ------------------------------------------------------------------ #
    def _priced_round(
        self,
        cluster: ClusterSpec,
        deadline_seconds: float | None = None,
        spec: str | None = None,
    ) -> tuple[CostEstimate, PipelineResult]:
        """Scheme ``spec``'s paper-scale round (default: the active one), memoized."""
        spec = self._active_spec if spec is None else spec
        key = (spec, cluster.cache_key(), deadline_seconds)
        priced = self._round_prices.get(key)
        if priced is None:
            priced = price_round(
                self._pricing
                if spec == self._active_spec
                else self._candidate_schemes[spec][1],
                self.workload.paper_num_coordinates,
                self._compute_seconds,
                self._ctx.for_cluster(cluster),
                num_buckets=self.num_buckets,
                deadline_seconds=deadline_seconds,
            )
            self._round_prices[key] = priced
        return priced

    def _make_engine(self) -> PolicyEngine:
        """A recovery engine over the run's scenario, pricing the active scheme."""

        def price(cluster: ClusterSpec, deadline: float | None) -> tuple[float, bool]:
            result = self._priced_round(cluster, deadline)[1]
            return result.makespan_seconds, result.aborted

        scenario = self.scenario if self.scenario is not None else Scenario()
        return PolicyEngine(self.cluster, scenario, self.policy, price)

    def _switch_to(self, spec: str) -> None:
        """Activate a candidate scheme pair (fresh residual/compressor state)."""
        functional, pricing = self._candidate_schemes[spec]
        self.scheme = functional
        self._pricing = pricing
        self._active_spec = spec

    def _functional_ctx(self, effective: ClusterSpec, world_size: int) -> SimContext:
        """The aggregation context for an effective cluster's world size.

        Contexts are cached per world size; all of them share the base
        context's rng stream, keeping scheme randomness a single
        deterministic sequence.  Passing ``world_size`` smaller than the
        effective cluster's models a partial aggregation (drop-straggler
        rounds contribute n - f gradients without a membership change).

        Known gap: world size is not all the functional math depends on.  On
        a cluster with an active fabric the collective folds hierarchically
        by :meth:`~repro.simulator.cluster.ClusterSpec.rack_assignment`, but
        a partial aggregation runs on a flat ``n - f`` worker cluster with
        no fabric, so the survivors of a drop round on a multi-rack cluster
        fold on a flat ring (and the per-size cache then serves that flat
        context to any later round of the same world size).
        """
        ctx = self._ctx_by_world.get(world_size)
        if ctx is None:
            backend_cluster = (
                effective
                if effective.world_size == world_size
                else ClusterSpec(
                    num_nodes=world_size,
                    gpus_per_node=1,
                    gpu=self.cluster.gpu,
                    inter_node_nic=self.cluster.inter_node_nic,
                    intra_node_nic=self.cluster.intra_node_nic,
                )
            )
            ctx = self._ctx.for_cluster(backend_cluster, rng=self._ctx.rng)
            self._ctx_by_world[world_size] = ctx
        return ctx

    def _active_workers(self, world_size: int) -> list[DDPWorker]:
        """The first ``world_size`` workers, growing the pool on join events."""
        while len(self.workers) < world_size:
            rank = len(self.workers)
            self.workers.append(
                DDPWorker(
                    rank=rank,
                    shard=self.dataset.worker_shard(rank, world_size),
                    batch_size=self.workload.sim_batch_size,
                    seed=self.seed,
                )
            )
        return self.workers[:world_size]

    # ------------------------------------------------------------------ #
    def _evaluate(self, round_index: int, sim_time: float) -> EvaluationRecord:
        metrics = self.model.evaluate(self.dataset.test_batch())
        return EvaluationRecord(
            round_index=round_index, sim_time_seconds=sim_time, metrics=metrics
        )

    def run(
        self,
        num_rounds: int,
        *,
        stopping: StoppingCriterion | None = None,
    ) -> TrainingHistory:
        """Train for up to ``num_rounds`` rounds (less if ``stopping`` fires).

        Returns:
            The metric-versus-simulated-time trajectory of the run.
        """
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")

        adaptive = self.controller is not None
        # A static run keeps the historical closed-form clock (round_index *
        # round_seconds), which keeps it bit-exact with the static simulator.
        closed_form = not adaptive and (
            self.scenario is None or self.scenario.is_static
        )
        engine = self._make_engine()
        history = TrainingHistory(
            workload_name=self.workload.name,
            scheme_name=self.scheme.name,
            metric_name=self.workload.metric,
            metric_improves=self.workload.metric_improves,
            round_seconds=self.round_seconds,
            scenario=self.scenario.spec() if self.scenario is not None else None,
            policy=None if self.policy.is_empty else self.policy.spec(),
        )
        history.evaluations.append(self._evaluate(0, 0.0))

        params = self.model.get_flat_params()
        last_aggregate: np.ndarray | None = None
        sim_time = 0.0
        for round_index in range(1, num_rounds + 1):
            resolution = engine.resolve(
                round_index - 1, can_stale=last_aggregate is not None
            )
            effective = resolution.cluster
            workers = self._active_workers(effective.world_size)
            if resolution.excused_ranks:
                excused = set(resolution.excused_ranks)
                workers = [w for w in workers if w.rank not in excused]
            ctx = self._functional_ctx(effective, len(workers))
            losses = []
            gradients = []
            for worker in workers:
                loss, gradient = worker.compute_gradient(self.model)
                losses.append(loss)
                gradients.append(gradient)
            history.train_losses.append(float(losses[0]))
            history.round_times.append(resolution.seconds)

            if resolution.timed_out:
                # The collective aborted at the deadline: either re-apply the
                # previous round's aggregate (stale) or skip the update.
                if resolution.stale and last_aggregate is not None:
                    params = self.optimizer.step(params, last_aggregate)
                    self.model.set_flat_params(params)
            else:
                result = self.scheme.aggregate(gradients, ctx)
                last_aggregate = result.mean_estimate
                params = self.optimizer.step(params, result.mean_estimate)
                self.model.set_flat_params(params)

            sim_time = (
                round_index * self.round_seconds
                if closed_form
                else sim_time + resolution.seconds
            )
            if adaptive:
                chosen = self.controller.observe(
                    round_index,
                    self._active_spec,
                    resolution.seconds,
                    engine.nominal_seconds,
                    lambda spec: self._priced_round(effective, spec=spec)[1].makespan_seconds,
                )
                if chosen != self._active_spec:
                    self._switch_to(chosen)
                    # The deadline and nominal round are scheme-specific; the
                    # recovery counters belong to the run.
                    successor = self._make_engine()
                    successor.adopt_state(engine)
                    engine = successor
                    # Re-bucketing and residual warmup are not free: charge
                    # the controller's switch cost to the simulated clock.
                    sim_time += self.controller.switch_cost_rounds * engine.nominal_seconds
                    # The old scheme's aggregate is not a valid stale update
                    # for the new one (different compression error profile).
                    last_aggregate = None
            if round_index % self.eval_every == 0 or round_index == num_rounds:
                record = self._evaluate(round_index, sim_time)
                history.evaluations.append(record)
                if stopping is not None and stopping.update(
                    record.metrics[self.workload.metric]
                ):
                    break
        history.timed_out_rounds = engine.timed_out_rounds
        history.retries = engine.retries
        history.dropped_worker_rounds = engine.dropped_worker_rounds
        history.stale_rounds = engine.stale_rounds
        if adaptive:
            history.scheme_switches = list(self.controller.switches)
        return history
