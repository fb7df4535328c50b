"""``repro.api`` -- the unified public experiment API.

Two pieces redesigned around the paper's methodology:

* the **compositional scheme-spec language**
  (:mod:`repro.compression.spec`), in which every scheme configuration is a
  parameterized, round-trippable string such as ``"thc(q=4, rot=partial,
  agg=sat)"`` or ``"ef(topk(b=2))"``;
* the **experiment session** (:class:`ExperimentSession`), which bundles
  cluster, kernel models and seeds, and exposes every measurement
  the paper uses -- ``aggregate``, ``throughput``, ``vnmse``, ``tta`` -- plus
  a concurrent, memoizing :meth:`~ExperimentSession.sweep` over
  spec x workload x cluster grids.

Typical use::

    from repro.api import ExperimentSession
    from repro.training import bert_large_wikitext, vgg19_tinyimagenet

    session = ExperimentSession()
    grid = session.sweep(
        ["baseline(p=fp16)", "topkc(b=2)", "thc(q=4, rot=partial, agg=sat)"],
        workloads=[bert_large_wikitext(), vgg19_tinyimagenet()],
        metric="throughput",
    )
    print(grid.pivot())
"""

from repro.api.executors import EXECUTORS, available_cpus
from repro.api.measures import (
    BERT_GRADIENT_PRESET,
    ThroughputEstimate,
    bert_like_gradients,
    configure_for_workload,
    estimate_throughput,
    mean_vnmse,
    paper_context,
)
from repro.compression.kernels import KernelBackend
from repro.api.session import (
    DEFAULT_BASELINE_SPEC,
    SWEEP_METRICS,
    ExperimentSession,
)
from repro.api.sweep import ANY, SweepPoint, SweepResult, cluster_label, expand_grid
from repro.simulator.scenario import Scenario, ScenarioMetrics, scenario

__all__ = [
    "ANY",
    "BERT_GRADIENT_PRESET",
    "DEFAULT_BASELINE_SPEC",
    "EXECUTORS",
    "ExperimentSession",
    "KernelBackend",
    "SWEEP_METRICS",
    "Scenario",
    "ScenarioMetrics",
    "SweepPoint",
    "SweepResult",
    "ThroughputEstimate",
    "available_cpus",
    "bert_like_gradients",
    "cluster_label",
    "configure_for_workload",
    "estimate_throughput",
    "expand_grid",
    "mean_vnmse",
    "paper_context",
    "scenario",
]
