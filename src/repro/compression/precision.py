"""Uncompressed precision baselines: FP32 and the stronger FP16.

The paper's central evaluation point is that FP16 communication is the bar a
compression scheme must clear: it halves the wire volume, is natively
supported by the hardware, and loses essentially no accuracy.  Both baselines
aggregate with a plain ring all-reduce.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.ops import MeanOp
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    CostEstimate,
    SimContext,
)
from repro.compression.spec import Param, register
from repro.simulator.gpu import Precision


@register(
    "baseline",
    params=(
        Param("p", Precision, kwarg="wire_precision", doc="wire precision (fp16 or fp32)"),
    ),
    description="Uncompressed ring all-reduce at FP16 or FP32 wire precision",
)
class PrecisionBaseline(AggregationScheme):
    """All-reduce the raw gradients at a given wire precision.

    Args:
        wire_precision: Precision of the values on the wire (FP16 or FP32).
    """

    def __init__(self, wire_precision: Precision = Precision.FP16):
        if wire_precision not in (Precision.FP16, Precision.FP32):
            raise ValueError("precision baselines support FP16 or FP32 wire formats")
        self.wire_precision = wire_precision
        self.name = f"baseline_{wire_precision.value}"

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del num_coordinates, world_size
        return float(self.wire_precision.bits)

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        if num_coordinates <= 0:
            raise ValueError("num_coordinates must be positive")
        if self.wire_precision is Precision.FP16:
            cast_seconds = ctx.kernels.cast_time(num_coordinates, 32, 16) + ctx.kernels.cast_time(
                num_coordinates, 16, 32
            )
        else:
            cast_seconds = 0.0
        payload_bits = num_coordinates * float(self.wire_precision.bits)
        cost = ctx.backend.cost_model.ring_allreduce(payload_bits)
        return CostEstimate(
            compression_seconds=cast_seconds,
            communication_seconds=cost.seconds,
            bits_per_coordinate=float(self.wire_precision.bits),
        )

    # RPL006: the uniform near-equal coordinate split of the base
    # implementation is the right bucket pricing here (no layer
    # structure to respect), so the inheritance is stated explicitly.
    estimate_bucket_costs = AggregationScheme.estimate_bucket_costs

    def aggregate_rows(self, rows, ctx: SimContext, d: int) -> AggregationResult:
        """One float32 matrix fold (bit-identical to the per-worker path)."""
        n = ctx.world_size
        wire = np.empty((n, d), dtype=np.float32)
        self._gather_rows(rows, wire)
        if self.wire_precision is Precision.FP16:
            np.copyto(wire, wire.astype(np.float16), casting="unsafe")

        aggregate = ctx.backend.allreduce_matrix(
            wire, wire_bits_per_value=self.wire_precision.bits, op=MeanOp()
        )
        mean = np.asarray(aggregate, dtype=np.float32)
        transmitted = list(wire) if self.wire_precision is Precision.FP16 else None
        return AggregationResult(
            mean_estimate=mean,
            bits_per_coordinate=float(self.wire_precision.bits),
            per_worker_transmitted=transmitted,
        )
