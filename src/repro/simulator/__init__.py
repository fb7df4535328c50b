"""Hardware and timing simulator substrate.

The paper's prototypes run on a physical testbed (2 nodes x 2 NVIDIA A100
GPUs, Mellanox ConnectX-6 100 Gbps NICs).  This package provides the analytic
stand-in for that hardware: a GPU model with precision-dependent arithmetic
rates and a shared/global memory hierarchy, a NIC model, per-kernel cost
models for the computationally heavy components the paper profiles (top-k
selection, randomized Hadamard transform, Gram-Schmidt orthogonalization,
quantization), and the bucketed pipeline simulator
(:mod:`repro.simulator.pipeline`) that schedules per-bucket
compress/collective/decompress events on per-worker resources -- including
heterogeneous clusters with stragglers and mixed NIC tiers.

All times are in seconds of *simulated* time.  Absolute values are calibrated
against the paper's reported throughputs (Tables 2, 5, 8, 9) but only the
relative behaviour -- which component dominates, how design changes shift the
balance -- is claimed to reproduce.
"""

from repro.simulator.gpu import GpuModel, MemoryHierarchy, Precision
from repro.simulator.nic import NicModel
from repro.simulator.kernel_cost import KernelCostModel
from repro.simulator.pipeline import (
    BucketCost,
    BucketTrace,
    PipelineResult,
    bucketed_schedule,
    serialized_schedule,
    simulate_schedule,
    split_coordinates,
)
from repro.simulator.cluster import (
    PER_RANK_LIMIT,
    ClusterSpec,
    WorkerClass,
    WorkerProfile,
    dcell_cluster,
    fat_tree_cluster,
    multirack_cluster,
    paper_testbed,
    torus_cluster,
)
from repro.simulator.recovery import (
    PolicyEngine,
    PolicyRule,
    RecoveredRun,
    RecoveryPolicy,
    RoundResolution,
    available_policy_rules,
    deadline_clamp,
    drop_stragglers,
    parse_policy,
    policy,
    retry,
    run_recovered_scenario,
    stale_gradients,
    timeout,
)
from repro.simulator.scenario import (
    Scenario,
    ScenarioEvent,
    ScenarioMetrics,
    ScenarioRun,
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

__all__ = [
    "BucketCost",
    "BucketTrace",
    "ClusterSpec",
    "GpuModel",
    "KernelCostModel",
    "MemoryHierarchy",
    "NicModel",
    "PER_RANK_LIMIT",
    "PipelineResult",
    "PolicyEngine",
    "PolicyRule",
    "Precision",
    "RecoveredRun",
    "RecoveryPolicy",
    "RoundResolution",
    "Scenario",
    "ScenarioEvent",
    "ScenarioMetrics",
    "ScenarioRun",
    "WorkerClass",
    "WorkerProfile",
    "available_events",
    "available_policy_rules",
    "bucketed_schedule",
    "churn",
    "dcell_cluster",
    "deadline_clamp",
    "domain_fail",
    "drop_stragglers",
    "fat_tree_cluster",
    "join",
    "leave",
    "link_flap",
    "multirack_cluster",
    "nic_degrade",
    "paper_testbed",
    "parse_policy",
    "parse_scenario",
    "policy",
    "retry",
    "run_recovered_scenario",
    "run_scenario",
    "scenario",
    "scenario_metrics",
    "serialized_schedule",
    "simulate_schedule",
    "slowdown",
    "split_coordinates",
    "stale_gradients",
    "switch_memory_pressure",
    "timeout",
    "torus_cluster",
]
