"""The functional path never prices: collectives fold values and nothing else.

A round's simulated seconds come from ``estimate_costs`` alone (see
``test_one_ledger.py``).  This suite pins the other half of that contract:
with every public method of :class:`CollectiveCostModel` patched to raise,
every registered scheme still aggregates, in the simulator and on the
bridge's in-process harness, where both the workers' transport backend and
the server's fold run.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.bridge import run_harness, synthetic_trace
from repro.collectives.api import CollectiveBackend
from repro.collectives.cost_model import CollectiveCostModel
from repro.compression.base import SimContext
from repro.compression.registry import make_scheme
from repro.experiments.validation import REGISTRY_SPECS
from repro.simulator.cluster import paper_testbed

#: Every public method of the cost model: what a fold would call to price.
PRICING_METHODS = sorted(
    name
    for name, member in vars(CollectiveCostModel).items()
    if not name.startswith("_")
    and (inspect.isfunction(member) or isinstance(member, staticmethod))
)


class PricedOnFunctionalPath(AssertionError):
    """A collective priced itself while folding values."""


@pytest.fixture
def pricing_forbidden(monkeypatch):
    def forbid(name):
        def raiser(*args, **kwargs):
            raise PricedOnFunctionalPath(f"CollectiveCostModel.{name} called")

        return raiser

    for name in PRICING_METHODS:
        monkeypatch.setattr(CollectiveCostModel, name, forbid(name))


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(num_steps=2, num_workers=4, seed=5)


def test_patch_covers_the_pricing_methods(pricing_forbidden):
    assert {"ring_allreduce", "tree_allreduce", "allgather", "switch_aggregation"} <= set(
        PRICING_METHODS
    )
    with pytest.raises(PricedOnFunctionalPath):
        CollectiveBackend(paper_testbed()).cost_model.ring_allreduce(1.0)


@pytest.mark.parametrize("spec", REGISTRY_SPECS)
def test_aggregate_never_prices(spec, trace, pricing_forbidden):
    ctx = SimContext(backend=CollectiveBackend(paper_testbed()))
    scheme = make_scheme(spec)
    for step in trace.steps:
        result = scheme.aggregate(step.flats(), ctx)
        assert np.all(np.isfinite(result.mean_estimate))


@pytest.mark.parametrize("spec", REGISTRY_SPECS)
def test_inprocess_harness_never_prices(spec, trace, pricing_forbidden):
    measured = run_harness(spec, trace, seed=0)
    assert len(measured.rounds) == trace.num_steps
