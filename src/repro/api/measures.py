"""The measurement primitives behind :class:`repro.api.ExperimentSession`.

These are the low-level, functional building blocks -- build a simulation
context, price a round, average a scheme's vNMSE -- that the session composes
into its high-level methods.  ``repro.experiments.common`` re-exports them for
backwards compatibility with the original driver-oriented layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.collectives.api import CollectiveBackend
from repro.compression.base import AggregationScheme, CostEstimate, SimContext, price_round
from repro.compression.registry import configure_scheme_for_shapes
from repro.core.metrics import vnmse
from repro.simulator.cluster import ClusterSpec, paper_testbed
from repro.simulator.gpu import Precision
from repro.simulator.kernel_cost import KernelCostModel
from repro.simulator.pipeline import PipelineResult
from repro.simulator.recovery import (
    RecoveryPolicy,
    policy as as_policy,
    run_recovered_scenario,
)
from repro.simulator.scenario import Scenario, ScenarioMetrics, scenario as as_scenario
from repro.training.gradients import SyntheticGradientModel
from repro.training.workloads import WorkloadSpec


def paper_context(
    cluster: ClusterSpec | None = None,
    *,
    seed: int = 0,
) -> SimContext:
    """A simulation context on the paper's testbed (or a custom cluster)."""
    cluster = cluster or paper_testbed()
    return SimContext(
        backend=CollectiveBackend(cluster),
        kernels=KernelCostModel(gpu=cluster.gpu),
        rng=np.random.default_rng(seed),
    )


def configure_for_workload(
    scheme: AggregationScheme, workload: WorkloadSpec
) -> AggregationScheme:
    """A copy of ``scheme`` configured with the workload's real layer shapes.

    Layer-structured schemes (PowerSGD) need the paper-scale shapes to price
    their factor matrices; all other schemes are returned unchanged.  The
    input is never mutated, so one scheme object can be reused across the
    workloads of a sweep.
    """
    return configure_scheme_for_shapes(scheme, list(workload.paper_layer_shapes))


@dataclass(frozen=True)
class ThroughputEstimate:
    """Throughput of one scheme on one workload, with the cost breakdown.

    Attributes:
        cost: Per-round kernel and collective costs (summed over all buckets
            when the round is bucketed).  Under a scenario this is the
            *nominal* breakdown on the unperturbed cluster.
        num_buckets: How many gradient buckets the round was scheduled with
            (1 = fully serialized, the historical model).
        pipeline: The bucket-level schedule behind the nominal round time.
        scenario: Canonical spec of the scenario the estimate was priced
            under, or None for a plain static estimate.
        scenario_metrics: Tail summary of the scenario run (p50/p95/p99 round
            time, excess cost, recovery); None for a plain static estimate.
            Under a scenario, ``round_seconds`` is the mean round time and
            ``rounds_per_second`` the run-level throughput
            (``num_rounds / total_seconds``).
        policy: Canonical spec of the recovery policy governing the scenario
            run, or None when no (non-empty) policy was given.  With a
            policy the scenario metrics carry the recovery counters
            (timed_out_rounds, retries, dropped_worker_rounds, stale_rounds).
    """

    scheme_name: str
    workload_name: str
    rounds_per_second: float
    round_seconds: float
    cost: CostEstimate
    num_buckets: int = 1
    pipeline: PipelineResult | None = None
    scenario: str | None = None
    scenario_metrics: ScenarioMetrics | None = None
    policy: str | None = None

    def compression_fraction(self) -> float:
        """Fraction of the round spent in compression kernels (Table 6 metric)."""
        if self.round_seconds <= 0:
            raise ValueError("round_seconds must be positive")
        return self.cost.compression_seconds / self.round_seconds


def estimate_throughput(
    scheme: AggregationScheme,
    workload: WorkloadSpec,
    *,
    cluster: ClusterSpec | None = None,
    training_precision: Precision = Precision.TF32,
    ctx: SimContext | None = None,
    num_buckets: int = 1,
    scenario: "Scenario | str | None" = None,
    num_rounds: int | None = None,
    policy: "RecoveryPolicy | str | None" = None,
) -> ThroughputEstimate:
    """Price one training round of ``scheme`` on ``workload`` at paper scale.

    The round is scheduled through the bucketed pipeline simulator:

    * ``num_buckets=1`` (default) serializes compute, compression, and
      communication -- the historical fully exposed round;
    * ``num_buckets>1`` splits the gradient into buckets whose collectives
      interleave with the backward pass and with later buckets' compression.

    Heterogeneous clusters (worker straggler slowdowns, mixed NIC tiers) are
    priced exactly: the schedule runs on the cluster's worker profiles.

    ``scenario`` (a :class:`~repro.simulator.scenario.Scenario` or a spec
    string like ``"flap(rack=1)@20..25 + churn(p=0.05)"``) prices a
    ``num_rounds``-round run under dynamic events instead of one steady-state
    round: every round is scheduled on the scenario's effective cluster for
    that round (pricing memoized per distinct configuration), and the
    estimate carries per-scenario tail metrics (p50/p95/p99 round time,
    excess cost, recovery).  ``num_rounds`` defaults to the scenario's
    horizon plus a small recovery margin.

    ``policy`` (a :class:`~repro.simulator.recovery.RecoveryPolicy` or a
    spec string like ``"timeout(k=3) + retry(max=2, backoff=0.1)"``) makes
    the scenario run *react* to its faults: degraded rounds are retried,
    stragglers dropped, and over-deadline rounds aborted, with the recovery
    counters reported on the scenario metrics.

    Every scenario run, with or without a policy, goes through one driver
    (:func:`~repro.simulator.recovery.run_recovered_scenario`): a plain
    scenario run is the empty policy (``policy("")``/``"none"``), and a
    scenario with no events is the static estimate, bit-exactly.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    if num_rounds is not None and scenario is None:
        raise ValueError("num_rounds only applies to scenario runs; pass scenario=")
    policy_obj = as_policy(policy)
    if not policy_obj.is_empty and scenario is None:
        raise ValueError(
            "policy only applies to scenario runs (there is nothing to recover "
            "from on a static cluster); pass scenario="
        )
    ctx = ctx or paper_context(cluster)
    scheme = configure_for_workload(scheme, workload)
    compute_seconds = workload.compute_seconds_for(training_precision)
    base_cluster = ctx.backend.cluster

    def price(effective_ctx: SimContext, deadline_seconds: float | None = None):
        return price_round(
            scheme,
            workload.paper_num_coordinates,
            compute_seconds,
            effective_ctx,
            num_buckets=num_buckets,
            deadline_seconds=deadline_seconds,
        )

    cost, result = price(ctx)
    round_seconds = result.makespan_seconds
    rounds_per_second = 1.0 / round_seconds
    scenario_obj = None if scenario is None else as_scenario(scenario)
    metrics = None
    if scenario_obj is not None:

        def price_effective(
            effective: ClusterSpec, deadline: float | None
        ) -> tuple[float, bool]:
            if effective is base_cluster and deadline is None:
                return round_seconds, False
            priced = price(ctx.for_cluster(effective), deadline)[1]
            return priced.makespan_seconds, priced.aborted

        rounds = num_rounds if num_rounds is not None else scenario_obj.default_num_rounds()
        metrics = run_recovered_scenario(
            base_cluster,
            scenario_obj,
            policy_obj,
            rounds,
            price_effective,
        ).metrics
        # No events: every round is the static round, so the closed form
        # stays exact; otherwise report the run-level throughput.
        if not scenario_obj.is_static:
            rounds_per_second = metrics.num_rounds / metrics.total_seconds
            round_seconds = metrics.mean_round_seconds

    return ThroughputEstimate(
        scheme_name=scheme.name,
        workload_name=workload.name,
        rounds_per_second=rounds_per_second,
        round_seconds=round_seconds,
        cost=cost,
        num_buckets=len(result.traces),
        pipeline=result,
        scenario=scenario_obj.spec() if scenario_obj is not None else None,
        scenario_metrics=metrics,
        policy=None if policy_obj.is_empty else policy_obj.spec(),
    )


#: Gradient-structure preset used for the BERT-style compression-error studies
#: (Tables 4 and 7): heavy-tailed block scales, strong spatial locality, and
#: per-worker mini-batch noise comparable to the shared signal.
BERT_GRADIENT_PRESET = dict(
    locality_block=256,
    block_scale_sigma=1.5,
    worker_noise=1.0,
    low_rank_fraction=0.3,
    rank=8,
)


def bert_like_gradients(
    num_coordinates: int = 1 << 17, *, seed: int = 3
) -> SyntheticGradientModel:
    """The synthetic gradient model used by the vNMSE experiments."""
    return SyntheticGradientModel(num_coordinates, seed=seed, **BERT_GRADIENT_PRESET)


#: One vNMSE gradient round: the ``(n, d)`` worker rows and their exact mean.
GradientRound = tuple[np.ndarray, np.ndarray]


def check_vnmse_call(
    num_coordinates: int, num_rounds: int, num_workers: int, ctx: SimContext
) -> None:
    """Reject a vNMSE call before any gradient round is drawn for it."""
    if num_coordinates <= 0:
        raise ValueError("num_coordinates must be positive")
    if num_rounds <= 0:
        raise ValueError("num_rounds must be positive")
    if num_workers != ctx.world_size:
        raise ValueError(
            f"num_workers={num_workers} does not match the cluster's world size "
            f"{ctx.world_size}; pass num_workers={ctx.world_size} or a cluster "
            f"of {num_workers} workers"
        )


def draw_round(generator: SyntheticGradientModel, num_workers: int) -> GradientRound:
    """The generator's next round of worker rows, with its true mean."""
    rows = generator.next_round(num_workers)
    return rows, generator.true_mean(rows)


def vnmse_over_rounds(
    scheme: AggregationScheme, rounds: Iterable[GradientRound], ctx: SimContext
) -> float:
    """Average vNMSE of a scheme's aggregate over the given rounds.

    Only each round's mean estimate outlives its ``aggregate`` call: the
    rest of the result is dropped before the next round is aggregated.
    """
    errors = [
        vnmse(scheme.aggregate(rows, ctx).mean_estimate, true_mean)
        for rows, true_mean in rounds
    ]
    return float(np.mean(errors))


def mean_vnmse(
    scheme: AggregationScheme,
    generator: SyntheticGradientModel,
    *,
    num_rounds: int = 3,
    num_workers: int = 4,
    ctx: SimContext | None = None,
) -> float:
    """Average vNMSE of a scheme's aggregate over the generator's next rounds."""
    ctx = ctx or paper_context()
    check_vnmse_call(generator.num_coordinates, num_rounds, num_workers, ctx)
    rounds = (draw_round(generator, num_workers) for _ in range(num_rounds))
    return vnmse_over_rounds(scheme, rounds, ctx)
