"""Reproduction of "Beyond Throughput and Compression Ratios: Towards High
End-to-end Utility of Gradient Compression" (HotNets 2024).

The package is organised by subsystem:

* :mod:`repro.simulator` -- GPU/NIC timing models (the testbed stand-in).
* :mod:`repro.topology` -- multi-rack fabrics (ToR/spine tiers,
  oversubscription) and in-network switch aggregation.
* :mod:`repro.collectives` -- collective folds and their alpha-beta cost model.
* :mod:`repro.compression` -- the compression schemes of the case study.
* :mod:`repro.training` -- the distributed data-parallel training substrate.
* :mod:`repro.core` -- the utility-centric evaluation framework (TTA, vNMSE,
  FP16-baseline utility), the paper's primary methodological contribution.
* :mod:`repro.experiments` -- drivers that regenerate every table and figure.
"""

__version__ = "1.1.0"

from repro.blas import pin_blas_to_one_thread
from repro.compression import (
    available_families,
    available_schemes,
    make_scheme,
    parse_spec,
)
from repro.simulator.cluster import ClusterSpec, multirack_cluster, paper_testbed
from repro.simulator.scenario import Scenario, parse_scenario, scenario
from repro.topology import FabricSpec, SwitchModel, two_tier_fabric

# One BLAS thread for the whole process: see repro.blas for why.
pin_blas_to_one_thread()


def __getattr__(name: str):
    # ``repro.api`` imports training/evaluation modules; load it lazily so
    # ``import repro`` stays light.
    if name in ("ExperimentSession", "SweepResult"):
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "__version__",
    "ExperimentSession",
    "SweepResult",
    "available_families",
    "available_schemes",
    "make_scheme",
    "parse_spec",
    "ClusterSpec",
    "FabricSpec",
    "Scenario",
    "SwitchModel",
    "multirack_cluster",
    "paper_testbed",
    "parse_scenario",
    "scenario",
    "two_tier_fabric",
]
