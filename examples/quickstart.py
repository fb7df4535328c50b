"""Quickstart: one session, every measurement the paper advocates.

This walks through the library's levels in ~60 lines, all through the unified
``repro.api`` session and the compositional scheme-spec language:

1. aggregate one round of per-worker gradients with schemes named by spec
   strings and inspect their error and simulated cost;
2. sweep a spec x workload grid of paper-scale throughput estimates (the
   throughput-table view) -- one declarative call, executed concurrently;
3. run a short end-to-end training comparison against the FP16 baseline and
   compute each scheme's utility (the TTA view the paper advocates).

Run with:  python examples/quickstart.py
"""

from repro.api import ExperimentSession
from repro.core import compute_utility, vnmse
from repro.training import SyntheticGradientModel, vgg19_tinyimagenet

#: Scheme configurations are spec strings: parameterized, composable
#: (``ef(...)`` wraps error feedback), and round-trippable via ``.spec()``.
SPECS = (
    "baseline(p=fp16)",
    "topkc(b=2)",
    "thc(q=4, rot=partial, agg=sat)",
    "powersgd(r=4)",
)


def step_1_single_round(session: ExperimentSession) -> None:
    """Compress-and-aggregate one round of gradients, report error and cost."""
    print("=== 1. One aggregation round ===")
    generator = SyntheticGradientModel(num_coordinates=1 << 16, seed=7)
    gradients = generator.next_round(session.cluster.world_size)
    true_mean = generator.true_mean(gradients)
    d = generator.num_coordinates

    for spec in SPECS:
        # aggregate computes the round's values; estimate_costs prices it.
        result = session.aggregate(spec, gradients)
        cost = session.scheme(spec).estimate_costs(d, session.context())
        print(
            f"  {spec:32s} b={result.bits_per_coordinate:6.2f}  "
            f"vNMSE={vnmse(result.mean_estimate, true_mean):.4f}  "
            f"comm={cost.communication_seconds * 1e3:6.3f} ms"
        )


def step_2_throughput_sweep(session: ExperimentSession) -> None:
    """Price one training round of each scheme at the real model size."""
    print("\n=== 2. Paper-scale throughput sweep (VGG19, 140M coordinates) ===")
    grid = session.sweep(
        ["baseline(p=fp32)", "baseline(p=fp16)", "topk(b=2)", "topkc(b=2)"],
        workloads=vgg19_tinyimagenet(),
        metric="throughput",
    )
    for point in grid:
        estimate = point.detail
        print(
            f"  {point.spec:18s} {estimate.rounds_per_second:6.2f} rounds/s  "
            f"(compression {estimate.cost.compression_seconds * 1e3:6.2f} ms, "
            f"communication {estimate.cost.communication_seconds * 1e3:6.2f} ms)"
        )


def step_3_end_to_end_utility(session: ExperimentSession) -> None:
    """Short end-to-end runs: TTA curves and utility against FP16."""
    print("\n=== 3. End-to-end utility vs the FP16 baseline ===")
    workload = vgg19_tinyimagenet()
    baseline = session.tta("baseline(p=fp16)", workload, num_rounds=200, eval_every=20)
    candidate = session.tta("topkc(b=2)", workload, num_rounds=200, eval_every=20)
    report = compute_utility(candidate.curve, baseline.curve)
    print(f"  baseline(p=fp16) best accuracy: {baseline.curve.best_value():.3f}")
    print(f"  topkc(b=2)       best accuracy: {candidate.curve.best_value():.3f}")
    for target, speedup in zip(report.targets, report.speedups):
        rendered = "never reached" if speedup is None else f"{speedup:.2f}x"
        print(f"  target {target:.3f}: speedup over FP16 = {rendered}")
    print(f"  positive utility: {report.has_positive_utility}")


if __name__ == "__main__":
    session = ExperimentSession(seed=0)
    step_1_single_round(session)
    step_2_throughput_sweep(session)
    step_3_end_to_end_utility(session)
