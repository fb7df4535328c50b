"""signSGD with majority vote, expressed in the utility framework.

signSGD (Bernstein et al., 2018) transmits only the sign of every gradient
coordinate -- exactly one bit per coordinate -- and aggregates by majority
vote.  The paper lists it among the quantization schemes whose integer
summation overflow its saturation technique addresses; here the sign counts
are aggregated with a ring all-reduce over small signed integers, which never
overflows a ceil(log2(n))+1-bit wire format, and the result is the
majority-vote sign scaled by the mean gradient magnitude.

Included both as a classic baseline the paper's framework should be able to
evaluate and as a second extension example beyond the paper's case study.
"""

from __future__ import annotations

import math

import numpy as np

from repro.collectives.ops import MeanOp, SumOp
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    CostEstimate,
    SimContext,
)
from repro.compression.spec import Param, register


@register(
    "signsgd",
    params=(
        Param(
            "scale",
            bool,
            kwarg="scale_by_mean_magnitude",
            default=True,
            doc="scale voted signs by the mean gradient magnitude",
        ),
    ),
    description="Majority-vote signSGD over ring all-reduce",
)
class SignSGDCompressor(AggregationScheme):
    """Majority-vote signSGD over ring all-reduce.

    Args:
        scale_by_mean_magnitude: Multiply the voted signs by the mean absolute
            gradient value (the "scaled" signSGD variant, which removes the
            need to retune the learning rate); the magnitude is agreed with a
            one-scalar all-reduce.
    """

    def __init__(self, *, scale_by_mean_magnitude: bool = True):
        self.scale_by_mean_magnitude = scale_by_mean_magnitude
        self.name = "signsgd_majority"

    def wire_bits_for(self, world_size: int) -> int:
        """Signed sign-count width: enough for values in [-n, n]."""
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        return max(2, math.ceil(math.log2(world_size + 1)) + 1)

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del num_coordinates
        return float(self.wire_bits_for(world_size))

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        if num_coordinates <= 0:
            raise ValueError("num_coordinates must be positive")
        bits = self.wire_bits_for(ctx.world_size)
        compression = 2 * ctx.kernels.quantize_time(num_coordinates, 1)
        communication = ctx.backend.cost_model.ring_allreduce(
            num_coordinates * float(bits)
        ).seconds
        if self.scale_by_mean_magnitude:
            communication += ctx.backend.cost_model.ring_allreduce(32.0).seconds
        return CostEstimate(
            compression_seconds=compression,
            communication_seconds=communication,
            bits_per_coordinate=float(bits),
        )

    # RPL006: the uniform near-equal coordinate split of the base
    # implementation is the right bucket pricing here (no layer
    # structure to respect), so the inheritance is stated explicitly.
    estimate_bucket_costs = AggregationScheme.estimate_bucket_costs

    def aggregate_rows(self, rows, ctx: SimContext, d: int) -> AggregationResult:
        """Vectorized sign voting over the stacked worker matrix.

        Sign values and vote counts are small exact integers, so the float32
        matrix fold is value-identical to a float64 per-worker fold; only the
        mean-magnitude scalar can differ in its last float32 bits.
        """
        n = ctx.world_size
        bits = self.wire_bits_for(n)
        workspace = ctx.workspace

        signs = np.empty((n, d), dtype=np.float32)
        self._gather_rows(rows, signs)
        np.sign(signs, out=signs)

        vote_reduce = ctx.backend.allreduce_matrix(
            signs, wire_bits_per_value=float(bits), op=SumOp()
        )
        majority = np.sign(np.asarray(vote_reduce.aggregate))

        magnitude = 1.0
        if self.scale_by_mean_magnitude:
            magnitudes = workspace.buf("signsgd.magnitude", (n, 1), np.float64)  # reprolint: disable=RPL002 - n float64 magnitude scalars, one per worker
            for index in range(n):
                magnitudes[index, 0] = float(np.mean(np.abs(rows[index])))
            magnitude_reduce = ctx.backend.allreduce_matrix(
                magnitudes, wire_bits_per_value=32.0, op=MeanOp()
            )
            magnitude = float(np.asarray(magnitude_reduce.aggregate)[0])

        mean = (majority * magnitude).astype(np.float32)

        signs *= np.float32(magnitude)
        return AggregationResult(
            mean_estimate=mean,
            bits_per_coordinate=float(bits),
            per_worker_transmitted=list(signs),
        )
