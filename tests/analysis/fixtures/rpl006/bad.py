"""Deliberate RPL006 violation: a registered scheme missing the registry
contract (it would silently fall back to the base implementations)."""

from repro.compression.base import AggregationScheme
from repro.compression.spec import register


@register("fixture_scheme")
class FixtureScheme(AggregationScheme):
    def aggregate(self, worker_gradients, ctx):
        return worker_gradients
