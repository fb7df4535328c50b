"""End-to-end evaluation orchestrator.

This module wires the whole system together the way the paper's case study
does: pick a workload (BERT-large-like or VGG19-like), pick an aggregation
scheme by name, train to convergence on the simulated cluster, and come back
with the TTA curve and the utility against the FP16 baseline.

It is the highest-level entry point of the library; the examples and the
figure benchmarks are thin wrappers around :func:`run_end_to_end` and
:func:`compare_schemes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.base import AggregationScheme
from repro.compression.registry import configure_scheme_for_shapes, make_scheme
from repro.compression.spec import SpecSyntaxError, parse_spec
from repro.core.early_stopping import EarlyStopping
from repro.core.tta import TTACurve
from repro.core.utility import UtilityReport
from repro.simulator.cluster import ClusterSpec, paper_testbed
from repro.simulator.recovery import RecoveryPolicy
from repro.simulator.scenario import Scenario
from repro.training.adaptive import AdaptiveController
from repro.training.data import SyntheticTeacherDataset
from repro.training.ddp import DDPTrainer, TrainingHistory
from repro.training.models import MLPClassifier
from repro.training.optimizer import SGD, LearningRateSchedule
from repro.training.workloads import WorkloadSpec

#: Scheme families the paper runs with error feedback enabled.
_ERROR_FEEDBACK_FAMILIES = ("topk", "topkc")


@dataclass(frozen=True)
class EndToEndResult:
    """Everything produced by one end-to-end run of one scheme."""

    scheme_name: str
    workload_name: str
    history: TrainingHistory
    curve: TTACurve
    rounds_per_second: float
    bits_per_coordinate: float


def needs_error_feedback(scheme_name: str) -> bool:
    """Whether the paper's configuration wraps this scheme in error feedback.

    Accepts spec strings and legacy aliases alike; specs already wrapped in
    ``ef(...)`` never get a second wrapper.
    """
    from repro.compression.registry import ALIASES

    resolved = ALIASES.get(scheme_name, scheme_name)
    try:
        family = parse_spec(resolved).family
    except SpecSyntaxError:
        return resolved.startswith(_ERROR_FEEDBACK_FAMILIES)
    if family == "ef":
        return False
    return family in _ERROR_FEEDBACK_FAMILIES


def build_scheme_pair(
    scheme_name: str, workload: WorkloadSpec, *, error_feedback: bool | None = None
) -> tuple[AggregationScheme, AggregationScheme]:
    """Construct the (functional, pricing) scheme instances for a workload.

    The functional instance aggregates the small simulation model's gradients;
    the pricing instance is configured with the paper-scale layer shapes so
    per-round costs are evaluated at the real model size.  For most schemes
    the two are configured identically; PowerSGD needs the layer-shape split.
    """
    if error_feedback is None:
        error_feedback = needs_error_feedback(scheme_name)

    functional = make_scheme(scheme_name, error_feedback=error_feedback)
    pricing = configure_scheme_for_shapes(
        make_scheme(scheme_name, error_feedback=error_feedback),
        list(workload.paper_layer_shapes),
    )
    return functional, pricing


def build_trainer(
    scheme_name: str,
    workload: WorkloadSpec,
    *,
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    eval_every: int = 10,
    error_feedback: bool | None = None,
    total_rounds_hint: int | None = None,
    num_buckets: int = 1,
    scenario: Scenario | str | None = None,
    policy: RecoveryPolicy | str | None = None,
    controller: AdaptiveController | None = None,
) -> DDPTrainer:
    """Assemble dataset, model, optimizer, and trainer for one scheme.

    When a ``controller`` is given, ``scheme_name`` must be one of its
    candidate specs; the candidate scheme pairs are built here so the
    trainer can switch between them mid-run.
    """
    cluster = cluster or paper_testbed()
    dataset = SyntheticTeacherDataset(
        input_dim=workload.sim_input_dim,
        num_classes=workload.sim_num_classes,
        seed=seed,
    )
    model = MLPClassifier(
        input_dim=workload.sim_input_dim,
        hidden_dims=workload.sim_hidden_dims,
        num_classes=workload.sim_num_classes,
        seed=seed + 1,
    )
    functional, pricing = build_scheme_pair(
        scheme_name, workload, error_feedback=error_feedback
    )
    schedule = LearningRateSchedule(
        base_lr=workload.sim_base_lr, warmup_rounds=20, total_rounds=total_rounds_hint
    )
    optimizer = SGD(schedule, momentum=0.9)
    candidate_schemes = None
    if controller is not None:
        candidate_schemes = {
            spec: build_scheme_pair(spec, workload) for spec in controller.candidates
        }
    return DDPTrainer(
        model=model,
        dataset=dataset,
        scheme=functional,
        workload=workload,
        cluster=cluster,
        optimizer=optimizer,
        pricing_scheme=pricing,
        eval_every=eval_every,
        seed=seed,
        num_buckets=num_buckets,
        scenario=scenario,
        policy=policy,
        controller=controller,
        candidate_schemes=candidate_schemes,
        active_spec=scheme_name if controller is not None else None,
    )


def run_end_to_end(
    scheme_name: str,
    workload: WorkloadSpec,
    *,
    num_rounds: int = 600,
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    eval_every: int = 10,
    error_feedback: bool | None = None,
    early_stopping: EarlyStopping | None = None,
    rolling_window: int = 5,
    num_buckets: int = 1,
    scenario: Scenario | str | None = None,
    policy: RecoveryPolicy | str | None = None,
    controller: AdaptiveController | None = None,
) -> EndToEndResult:
    """Train one scheme on one workload and return its TTA curve.

    Args:
        scheme_name: A registry name (see
            :func:`repro.compression.available_schemes`).
        workload: The workload preset to train.
        num_rounds: Maximum number of training rounds.
        cluster: Simulated cluster; defaults to the paper testbed.
        seed: Seed shared by the dataset, model init, and batch sampling so
            all schemes see identical data and initialisation.
        eval_every: Rounds between held-out evaluations.
        error_feedback: Force error feedback on/off; None uses the paper's
            configuration for that scheme family.
        early_stopping: Optional convergence criterion; defaults to the
            paper's early-stopping practice.
        rolling_window: Rolling-average window (in evaluation points) applied
            to the TTA curve, mirroring the paper's smoothing.
        num_buckets: Gradient buckets per simulated round; more than one
            prices the round through the bucketed pipeline simulator.
        scenario: Optional dynamic-events scenario
            (:class:`~repro.simulator.scenario.Scenario` or spec string):
            rounds are priced on the scenario's per-round effective cluster
            and membership events change the contributing workers.
        policy: Optional fault-recovery policy
            (:class:`~repro.simulator.recovery.RecoveryPolicy` or spec
            string): round deadlines, retries, straggler drops, and
            stale/skip degradation applied to the scenario's rounds.
            Requires ``scenario``; an empty policy is bit-exact with the
            plain scenario path.
        controller: Optional
            :class:`~repro.training.adaptive.AdaptiveController` switching
            the active scheme online; ``scheme_name`` must then be one of
            its candidate specs.
    """
    trainer = build_trainer(
        scheme_name,
        workload,
        cluster=cluster,
        seed=seed,
        eval_every=eval_every,
        error_feedback=error_feedback,
        total_rounds_hint=num_rounds,
        num_buckets=num_buckets,
        scenario=scenario,
        policy=policy,
        controller=controller,
    )
    if early_stopping is None:
        early_stopping = EarlyStopping(
            patience=15, min_delta=1e-4, mode=workload.metric_improves
        )
    history = trainer.run(num_rounds, stopping=early_stopping)
    curve = TTACurve.from_history(history, window=rolling_window)
    return EndToEndResult(
        scheme_name=scheme_name,
        workload_name=workload.name,
        history=history,
        curve=curve,
        # Scenario-aware: under dynamic events this is the run-level
        # throughput over the recorded round times; static runs keep the
        # exact nominal 1 / round_seconds.
        rounds_per_second=history.effective_rounds_per_second(),
        bits_per_coordinate=trainer.round_cost_estimate.bits_per_coordinate,
    )


def compare_schemes(
    scheme_names: list[str],
    workload: WorkloadSpec,
    *,
    baseline_name: str = "baseline_fp16",
    num_rounds: int = 600,
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    eval_every: int = 10,
    rolling_window: int = 5,
) -> tuple[dict[str, EndToEndResult], dict[str, UtilityReport]]:
    """Run several schemes plus the baseline and compute each one's utility.

    Returns:
        A dict of results keyed by scheme name (the baseline included) and a
        dict of utility reports keyed by scheme name (baseline excluded).
    """
    # Delegated to the session facade; imported lazily because repro.api sits
    # above this module in the layering.
    from repro.api import ExperimentSession

    session = ExperimentSession(cluster=cluster, seed=seed)
    return session.compare(
        list(scheme_names),
        workload,
        baseline=baseline_name,
        num_rounds=num_rounds,
        eval_every=eval_every,
        rolling_window=rolling_window,
    )
