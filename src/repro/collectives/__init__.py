"""Collective communication substrate.

The paper's prototypes aggregate gradients with NCCL collectives (ring and
tree all-reduce, all-gather) or a parameter server.  This package simulates
those aggregation schemes in two separate halves:

* *folds* (:class:`CollectiveBackend`): given one row per worker, each
  collective actually steps through its algorithm and returns the values
  every worker would hold, applying the reduction operator at intermediate
  hops exactly as a real all-reduce would.  This matters because the paper's
  saturation-based aggregation (section 3.2.2) is a
  *non-associative-in-precision* per-hop operation -- applying it hop by hop
  is what the scheme actually does.  A fold computes values only.
* *pricing* (:class:`CollectiveCostModel`): an alpha-beta cost model turns
  the per-worker payload size into a simulated collective completion time on
  a :class:`~repro.simulator.ClusterSpec`.  Schemes call it from
  ``estimate_costs``, the one place a round is priced.

On multi-rack clusters (:meth:`ClusterSpec.with_fabric`) folds and prices add
hierarchical all-reduce (rack-local reduce -> spine all-reduce -> rack
broadcast) and in-network :data:`Collective.SWITCH_AGGREGATION`, where ToR
switches reduce quantized payloads at line rate within bounded aggregation
memory (see :mod:`repro.topology`).
"""

from repro.collectives.ops import ReduceOp, SumOp, SaturatingSumOp, MaxOp, MeanOp
from repro.collectives.cost_model import CollectiveCostModel, CollectiveCost
from repro.collectives.topology import RingTopology, TreeTopology
from repro.collectives.api import Collective, CollectiveBackend

__all__ = [
    "ReduceOp",
    "SumOp",
    "SaturatingSumOp",
    "MaxOp",
    "MeanOp",
    "CollectiveCostModel",
    "CollectiveCost",
    "RingTopology",
    "TreeTopology",
    "Collective",
    "CollectiveBackend",
]
