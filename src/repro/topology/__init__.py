"""Multi-rack fabric topology and in-network aggregation subsystem.

The paper's flat two-node testbed cannot express where collective cost
structure changes qualitatively: multi-tier fabrics with oversubscribed rack
uplinks, and ToR switches that aggregate quantized payloads in the network.
This package provides

* :class:`FabricSpec` / :class:`SwitchModel` -- the physical fabric
  description (racks, spine oversubscription, failure domains, switch
  aggregation memory and line rate), composable with a cluster via
  :meth:`repro.simulator.ClusterSpec.with_fabric`;
* fabric generators (:func:`fat_tree_fabric`, :func:`torus_fabric`,
  :func:`dcell_fabric`) -- datacenter-scale topologies projected onto the
  rack / domain / spine abstraction, with failure-domain metadata the
  scenario engine's ``domain_fail`` event and the tiered cost model consume;
* the phase/tier accounting types (:class:`HierarchicalBreakdown`,
  :class:`PhaseCost`, :class:`TierTraffic`) the cost model returns, which the
  property suite uses to check traffic conservation and line-rate bounds.

Pricing lives on :class:`repro.collectives.CollectiveCostModel`
(``hierarchical_allreduce``, ``switch_aggregation``); schemes opt into
in-network aggregation through the spec language (``thc(q=4, agg=switch)``).
"""

from repro.topology.fabric import (
    FabricSpec,
    SwitchModel,
    dcell_fabric,
    dcell_size,
    fat_tree_fabric,
    single_rack_fabric,
    torus_fabric,
    two_tier_fabric,
)
from repro.topology.hierarchical import (
    HierarchicalBreakdown,
    PhaseCost,
    TierTraffic,
)

__all__ = [
    "FabricSpec",
    "HierarchicalBreakdown",
    "PhaseCost",
    "SwitchModel",
    "TierTraffic",
    "dcell_fabric",
    "dcell_size",
    "fat_tree_fabric",
    "single_rack_fabric",
    "torus_fabric",
    "two_tier_fabric",
]
