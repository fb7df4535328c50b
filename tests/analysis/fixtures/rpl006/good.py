"""The clean counterpart: aggregation body defined, default inheritance stated."""

from repro.compression.base import AggregationScheme
from repro.compression.spec import register


@register("fixture_scheme")
class FixtureScheme(AggregationScheme):
    # Uniform near-equal bucket pricing is correct here; stated explicitly.
    estimate_bucket_costs = AggregationScheme.estimate_bucket_costs

    def aggregate_rows(self, rows, ctx, d):
        return rows
