"""One cost ledger: ``estimate_costs`` is where a round's seconds come from.

Simulated seconds are priced in exactly one place.  ``estimate_costs`` prices
a monolithic round, ``estimate_bucket_costs`` splits it (and with one bucket
must be that same estimate), and ``price_round`` -- the one round pricer
behind every throughput, TTA and advisor number -- sums the bucket estimates
it schedules.  This suite pins the chain with exact float equality across the
whole registry, the error-feedback wrappers (whose residual update is priced
on top of the inner scheme), and gradient sizes from a small odd vector up to
a paper-scale model.
"""

from __future__ import annotations

import pytest

from repro.api.measures import paper_context
from repro.compression.base import price_round
from repro.compression.registry import ALIASES, make_scheme
from repro.simulator.cluster import paper_testbed

#: Every registered alias spells a spec; deduplicated, they cover the whole
#: registry (every family at its paper configurations).
REGISTRY_SPECS = sorted(set(ALIASES.values()))

#: Error-feedback wrappers over every family that takes one.
EF_SPECS = [
    "ef(topk(b=2))",
    "ef(topkc(b=2))",
    "ef(qsgd(q=4))",
    "ef(thc(q=4, rot=full, agg=sat))",
]

#: An odd size (padding, uneven chunks), a power of two, and VGG19's size.
SIZES = [5773, 2**14, 143_667_240]

#: Backward compute of the priced round; any positive value will do.
COMPUTE_SECONDS = 0.05


@pytest.mark.parametrize("num_coordinates", SIZES)
@pytest.mark.parametrize("spec", REGISTRY_SPECS + EF_SPECS)
def test_one_ledger(spec, num_coordinates):
    scheme = make_scheme(spec)
    ctx = paper_context(paper_testbed())
    costs = scheme.estimate_costs(num_coordinates, ctx)

    assert scheme.estimate_bucket_costs(num_coordinates, 1, ctx) == [costs]
    priced, _ = price_round(scheme, num_coordinates, COMPUTE_SECONDS, ctx, num_buckets=1)
    assert priced == costs
