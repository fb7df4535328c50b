"""QSGD-style quantization with the paper's proposed adaptations.

The paper suggests its techniques "may generalize to other quantization
schemes, e.g., addressing integer summation overflow through saturation for
[QSGD, signSGD, TernGrad] and enhancing speed by replacing full RHT with
partial rotation".  This module provides that generalization for QSGD
(Alistarh et al., 2017): per-vector L2-norm scaling, stochastic quantization
onto ``q``-bit signed levels, and aggregation over ring all-reduce with either
a widened wire format or the saturating operator.

It doubles as an extension example: a scheme the paper does not evaluate
directly, expressed entirely through the existing building blocks
(quantizer, saturating ops, collective backend, kernel cost model).
"""

from __future__ import annotations

import numpy as np

from repro.collectives.ops import MaxOp
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    CostEstimate,
    SimContext,
)
from repro.compression.kernels import (
    LazyTransmitted,
    round_stochastically,
    smallest_int_dtype,
)
from repro.compression.quantization import StochasticQuantizer
from repro.compression.spec import Param, register
from repro.grammar import Interval
from repro.compression.thc import AggregationMode


@register(
    "qsgd",
    params=(
        Param("q", int, "quantization_bits", doc="quantization width q", domain=Interval(2)),
        Param("b", int, kwarg="wire_bits", doc="wire width b (defaults to q, or q+4 widened)"),
        Param("agg", AggregationMode, kwarg="aggregation", doc="overflow-handling strategy"),
    ),
    description="QSGD-style stochastic quantization with saturating all-reduce",
)
class QSGDCompressor(AggregationScheme):
    """QSGD: norm-scaled stochastic quantization aggregated with all-reduce.

    Each worker scales its gradient by its own L2 norm, stochastically rounds
    the scaled coordinates onto a ``q``-bit signed grid, and transmits the
    levels plus the scalar norm.  Aggregation sums the levels (saturating or
    widened) and rescales by the mean norm.

    Args:
        quantization_bits: Integer width ``q``.
        wire_bits: Wire width ``b`` during aggregation; defaults to ``q`` for
            saturation mode and ``q + 4`` for widened mode.
        aggregation: Overflow-handling strategy, as for THC.
    """

    def __init__(
        self,
        quantization_bits: int = 4,
        wire_bits: int | None = None,
        *,
        aggregation: AggregationMode = AggregationMode.SATURATION,
    ):
        if wire_bits is None:
            wire_bits = (
                quantization_bits + 4
                if aggregation is AggregationMode.WIDENED
                else quantization_bits
            )
        self.quantization_bits = quantization_bits
        self.wire_bits = wire_bits
        self.aggregation = aggregation
        QSGDCompressor._spec_family.check(self)
        if wire_bits < quantization_bits:
            raise ValueError("wire_bits must be at least quantization_bits")
        self.quantizer = StochasticQuantizer(bits=quantization_bits)
        self.name = f"qsgd_b{wire_bits}_q{quantization_bits}_{aggregation.value}"

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del world_size
        # Levels plus one FP32 norm scalar per worker (negligible per coordinate).
        return float(self.wire_bits) + 32.0 / num_coordinates

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        if num_coordinates <= 0:
            raise ValueError("num_coordinates must be positive")
        compression = ctx.kernels.quantize_time(
            num_coordinates, self.quantization_bits
        ) + ctx.kernels.dequantize_time(num_coordinates, self.quantization_bits)
        price = self.aggregation.price(ctx.backend.cost_model)
        communication = (
            price(32.0).seconds
            + price(num_coordinates * float(self.wire_bits)).seconds
        )
        return CostEstimate(
            compression_seconds=compression,
            communication_seconds=communication,
            bits_per_coordinate=self.expected_bits_per_coordinate(num_coordinates, 1),
        )

    # RPL006: the uniform near-equal coordinate split of the base
    # implementation is the right bucket pricing here (no layer
    # structure to respect), so the inheritance is stated explicitly.
    estimate_bucket_costs = AggregationScheme.estimate_bucket_costs

    def _wire_headroom(self, world_size: int) -> int:
        """Largest magnitude the integer wire buffer must represent."""
        if self.aggregation is AggregationMode.WIDENED:
            return world_size * self.quantizer.max_level
        return 2 * ((1 << (self.wire_bits - 1)) - 1)

    def aggregate_rows(self, rows, ctx: SimContext, d: int) -> AggregationResult:
        """Tiled float32 quantization over the stacked held rows."""
        n = ctx.world_size
        held = ctx.local_ranks
        workspace = ctx.workspace
        collective = self.aggregation.collective()

        # Agree on a shared norm so the dequantization scale is identical on
        # every worker -- the adaptation that makes QSGD all-reduce compatible
        # (the original scheme sends per-worker norms, which only a parameter
        # server can combine).
        per_worker_norms = np.array(  # reprolint: disable=RPL002 - float64 norm scalars, one per held worker
            [[float(np.linalg.norm(rows[i]))] for i in range(len(held))]
        )
        max_norm = ctx.backend.allreduce_matrix(
            per_worker_norms, wire_bits_per_value=32.0, op=MaxOp(), collective=collective
        )
        shared_norm = float(max_norm[0])
        if shared_norm == 0.0:
            zero = np.zeros(d, dtype=np.float32)
            return AggregationResult(
                mean_estimate=zero,
                bits_per_coordinate=self.expected_bits_per_coordinate(d, n),
                per_worker_transmitted=[zero.copy() for _ in held],
            )

        max_level = float(self.quantizer.max_level)
        scale = 1.0 / max_level  # value_range is exactly 1 after norm scaling
        # Copy, scale, clip and rounding run tile by tile straight from the
        # worker rows: the only (n, d) buffer is the integer levels.
        levels = workspace.buf(
            "qsgd.levels", (len(held), d), smallest_int_dtype(self._wire_headroom(n))
        )
        round_stochastically(
            rows,
            levels,
            ctx.rng,
            max_level,
            scale=np.float32(max_level / shared_norm),
            workspace=workspace,
            label="qsgd",
            first_row=held.start,
            stream_rows=n,
        )

        op = self.aggregation.reduce_op(self.wire_bits)
        level_sum = ctx.backend.allreduce_matrix(
            levels,
            wire_bits_per_value=float(self.wire_bits),
            op=op,
            collective=collective,
        )

        mean = level_sum.astype(np.float32)
        mean *= np.float32(scale * shared_norm / n)

        def materialize_transmitted(levels: np.ndarray) -> np.ndarray:
            dense = levels.astype(np.float32)
            dense *= np.float32(scale * shared_norm)
            return dense

        return AggregationResult(
            mean_estimate=mean,
            bits_per_coordinate=self.expected_bits_per_coordinate(d, n),
            per_worker_transmitted=LazyTransmitted(
                len(held), materialize_transmitted, borrowed=levels, workspace=workspace
            ),
        )
