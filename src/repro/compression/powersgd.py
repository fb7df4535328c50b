"""PowerSGD low-rank gradient compression.

PowerSGD approximates each gradient matrix ``M`` (a layer's weight gradient
reshaped to 2-D) with a rank-``r`` product ``P Q^T`` computed by one step of
subspace (power) iteration, warm-started from the previous round's ``Q``:

1. ``P_i = M_i Q`` on every worker; all-reduce ``P`` (mean).
2. Orthogonalize the aggregated ``P`` (Gram-Schmidt).
3. ``Q_i = M_i^T P`` on every worker; all-reduce ``Q`` (mean).
4. The aggregated gradient estimate is ``P Q^T``.

Both all-reduces carry dense low-rank factors, so PowerSGD is natively
all-reduce compatible (the property the paper highlights); its cost issue is
instead the orthogonalization, which dominates the round time at larger
ranks (section 3.3).

The compressor operates on a flat gradient vector partitioned into per-layer
matrices according to ``layer_shapes``; 1-D layers (biases, norms) are
aggregated uncompressed, as in the reference implementation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.collectives.ops import MeanOp
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    CostEstimate,
    SimContext,
)
from repro.compression.kernels import LazyTransmitted
from repro.compression.precision import gather_fp16_rows
from repro.compression.spec import Param, register
from repro.grammar import NON_NEGATIVE, Interval


def default_layer_shapes(num_coordinates: int) -> list[tuple[int, int]]:
    """A single near-square matrix covering (almost all of) the gradient.

    Uses floor division so the matrix never exceeds the gradient; the few
    remaining tail coordinates are aggregated uncompressed.
    """
    if num_coordinates <= 0:
        raise ValueError("num_coordinates must be positive")
    rows = max(1, int(math.sqrt(num_coordinates)))
    cols = max(1, num_coordinates // rows)
    return [(rows, cols)]


def _gram_schmidt(matrix: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt fallback for wide matrices (more columns than rows).

    Kept as the reference orthogonalization and for the ``cols > rows`` case,
    where a reduced QR cannot produce one output column per input column.
    """
    result = np.array(matrix, dtype=np.float64, copy=True)
    num_cols = result.shape[1]
    for col in range(num_cols):
        for prev in range(col):
            projection = result[:, prev] @ result[:, col]
            result[:, col] -= projection * result[:, prev]
        norm = np.linalg.norm(result[:, col])
        if norm > 1e-12:
            result[:, col] /= norm
        else:
            result[:, col] = 0.0
    return result


def orthogonalize(matrix: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``matrix``.

    Runs a LAPACK Householder QR -- O(rows * cols^2) in compiled code instead
    of the historical O(cols^2) *Python-loop* Gram-Schmidt, which dominated
    PowerSGD's round time at larger ranks.  The sign convention (diagonal of
    ``R`` non-negative) matches Gram-Schmidt's direction choice, and columns
    that vanish numerically are replaced by zero columns rather than the
    arbitrary orthonormal completion QR would return, matching the robustness
    of production implementations.  Wide matrices (more columns than rows)
    fall back to modified Gram-Schmidt.
    """
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rows, cols = matrix.shape
    if cols > rows:
        return _gram_schmidt(matrix)
    q, r = np.linalg.qr(np.asarray(matrix, dtype=np.float64))
    diagonal = np.diagonal(r)
    flip = np.where(diagonal < 0.0, -1.0, 1.0)
    q = q * flip
    q[:, np.abs(diagonal) <= 1e-12] = 0.0
    return q


@register(
    "powersgd",
    params=(
        Param("r", int, "rank", doc="target rank of the approximation", domain=Interval(1)),
        Param("bits", int, "factor_bits", default=32, doc="factor wire width", domain=(16, 32)),
        Param("warm", bool, kwarg="warm_start", default=True, doc="warm-start power iteration"),
        Param("seed", int, default=42, doc="seed of the initial Q factor", domain=NON_NEGATIVE),
    ),
    description="PowerSGD low-rank compression (layer shapes set per workload)",
)
class PowerSGDCompressor(AggregationScheme):
    """PowerSGD with warm-started power iteration.

    Args:
        rank: Target rank ``r`` of the per-layer approximation.
        layer_shapes: Per-layer matrix shapes whose sizes sum to at most the
            gradient length; remaining coordinates (and any 1-D layers the
            caller encodes as ``(d, 1)`` shapes with ``compress_rank_one``
            False) are aggregated uncompressed.  Defaults to one near-square
            matrix over the whole gradient.
        factor_bits: Wire width of the factor matrices (FP32 as in the
            reference PowerSGD implementation).
        warm_start: Reuse the previous round's ``Q`` as the power-iteration
            seed (the PowerSGD default; improves the approximation over time).
        seed: Seed of the initial random ``Q``.
    """

    def __init__(
        self,
        rank: int = 4,
        layer_shapes: list[tuple[int, int]] | None = None,
        *,
        factor_bits: int = 32,
        warm_start: bool = True,
        seed: int = 42,
    ):
        self.rank = rank
        self.layer_shapes = layer_shapes
        self.factor_bits = factor_bits
        self.warm_start = warm_start
        self.seed = seed
        PowerSGDCompressor._spec_family.check(self)
        self._q_state: dict[int, np.ndarray] = {}
        self.name = f"powersgd_r{rank}"

    # ------------------------------------------------------------------ #
    def _shapes_for(self, num_coordinates: int) -> list[tuple[int, int]]:
        shapes = self.layer_shapes or default_layer_shapes(num_coordinates)
        covered = sum(rows * cols for rows, cols in shapes)
        if covered < num_coordinates:
            # Tail coordinates that no layer covers travel uncompressed.
            shapes = list(shapes)
        elif covered > num_coordinates:
            raise ValueError(
                f"layer shapes cover {covered} coordinates but the gradient has "
                f"{num_coordinates}"
            )
        return shapes

    def factor_coordinates(self, num_coordinates: int) -> int:
        """Total number of factor-matrix entries communicated per all-reduce pair."""
        shapes = self._shapes_for(num_coordinates)
        return sum((rows + cols) * self.rank for rows, cols in shapes)

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del world_size
        shapes = self._shapes_for(num_coordinates)
        covered = sum(rows * cols for rows, cols in shapes)
        return self._bits_per_coordinate(
            num_coordinates, covered, self.factor_coordinates(num_coordinates)
        )

    def _bits_per_coordinate(
        self, num_coordinates: int, covered: int, factor_values: int
    ) -> float:
        """``b`` of ``factor_values`` factor entries plus the uncovered tail."""
        factor_bits = factor_values * self.factor_bits
        tail_bits = (num_coordinates - covered) * 16.0  # uncompressed tail travels in FP16
        return (factor_bits + tail_bits) / num_coordinates

    def reset_state(self) -> None:
        """Drop the warm-start state (e.g. between independent experiments)."""
        self._q_state.clear()

    def _initial_q(self, layer_index: int, cols: int, rng: np.random.Generator) -> np.ndarray:
        if self.warm_start and layer_index in self._q_state:
            return self._q_state[layer_index]
        seeded = np.random.default_rng(self.seed + layer_index)
        del rng
        return seeded.standard_normal((cols, self.rank))

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        """One round priced as a single bucket of all layers."""
        return self.estimate_bucket_costs(num_coordinates, 1, ctx)[0]

    def estimate_bucket_costs(
        self, num_coordinates: int, num_buckets: int, ctx: SimContext
    ) -> list[CostEstimate]:
        """Per-bucket pricing that partitions whole layers, not coordinates.

        PowerSGD's cost is structured by layer shapes, so a bucket is a
        contiguous group of layers (the uncompressed tail rides with the last
        bucket); splitting raw coordinate ranges would tear matrices apart.
        Each distinct layer shape is priced once, and every bucket adds its
        layers' times one at a time in layer order (a sum that multiplied by
        shape counts would round differently).
        """
        from repro.simulator.pipeline import split_coordinates

        if num_coordinates <= 0:
            raise ValueError("num_coordinates must be positive")
        shapes = self._shapes_for(num_coordinates)
        covered = sum(rows * cols for rows, cols in shapes)
        tail = num_coordinates - covered
        bits = self._bits_per_coordinate(
            num_coordinates, covered, sum((rows + cols) * self.rank for rows, cols in shapes)
        )
        layer_seconds = {
            (rows, cols): ctx.kernels.powersgd_time(rows * cols, self.rank, rows=rows)
            for rows, cols in dict.fromkeys(map(tuple, shapes))
        }
        num_groups = 1 if num_buckets <= 1 else min(num_buckets, len(shapes))
        group_sizes = split_coordinates(len(shapes), num_groups)

        estimates = []
        offset = 0
        for group_index, group_size in enumerate(group_sizes):
            group = shapes[offset : offset + group_size]
            offset += group_size
            last = group_index == len(group_sizes) - 1
            group_coordinates = sum(rows * cols for rows, cols in group)
            if last:
                group_coordinates += tail
            compression = ctx.kernels.elementwise_sum_time(group_coordinates)
            factor_values = 0
            for rows, cols in group:
                compression += layer_seconds[rows, cols]
                factor_values += (rows + cols) * self.rank
            # A bucket's P and Q factors travel in two all-reduces.
            communication = 2 * ctx.backend.cost_model.ring_allreduce(
                factor_values * float(self.factor_bits) / 2.0
            ).seconds
            if last and tail > 0:
                communication += ctx.backend.cost_model.ring_allreduce(tail * 16.0).seconds
            estimates.append(
                CostEstimate(
                    compression_seconds=compression,
                    communication_seconds=communication,
                    bits_per_coordinate=bits,
                )
            )
        return estimates

    # ------------------------------------------------------------------ #
    def aggregate_rows(self, rows_in, ctx: SimContext, d: int) -> AggregationResult:
        """Per-layer power iteration, one held row at a time.

        Each held row's layer segment is converted into one float64 buffer,
        sized for the largest layer and reused by every layer, row and round,
        and ``P_i = M_i Q`` is computed from it; after the all-reduce and the
        orthogonalization of ``P`` the row is converted again for
        ``Q_i = M_i^T P``.  The float64 working set is one layer matrix, not
        one per held row.  The factor all-reduces fold the stacked factors in
        the ring's per-hop order.  The initial ``Q`` and the
        orthogonalization of the all-reduced ``P`` are replicated on every
        rank.  The per-worker report is deferred.
        """
        m = len(ctx.local_ranks)
        shapes = self._shapes_for(d)
        covered = sum(rows * cols for rows, cols in shapes)

        mean_estimate = np.zeros(d, dtype=np.float32)
        largest = max(rows * cols for rows, cols in shapes)
        buffer = ctx.workspace.buf("powersgd.matrix", (largest,), np.float64)  # reprolint: disable=RPL002 - float64 power iteration keeps the factors' orthogonalization stable

        offset = 0
        for layer_index, (rows, cols) in enumerate(shapes):
            size = rows * cols
            segment = min(size, d - offset)

            def layer_matrix(index: int) -> np.ndarray:
                """Held row ``index``'s layer as a float64 matrix in ``buffer``.

                Only the part no gradient coordinate covers is zeroed.
                """
                np.copyto(
                    buffer[:segment],
                    rows_in[index][offset : offset + segment],
                    casting="unsafe",
                )
                buffer[segment:size] = 0.0
                return buffer[:size].reshape(rows, cols)

            q = self._initial_q(layer_index, cols, ctx.rng)

            # Step 1: P_i = M_i Q, all-reduce P (mean).
            p_locals = np.empty((m, rows, self.rank), dtype=buffer.dtype)
            for index in range(m):
                np.matmul(layer_matrix(index), q, out=p_locals[index])
            p_mean = ctx.backend.allreduce_matrix(
                p_locals.reshape(m, rows * self.rank),
                wire_bits_per_value=float(self.factor_bits),
                op=MeanOp(),
            ).reshape(rows, self.rank)

            # Step 2: orthogonalize P.
            p_hat = orthogonalize(p_mean)

            # Step 3: Q_i = M_i^T P_hat, all-reduce Q (mean).
            q_locals = np.empty((m, cols, self.rank), dtype=buffer.dtype)
            for index in range(m):
                np.matmul(layer_matrix(index).T, p_hat, out=q_locals[index])
            q_mean = ctx.backend.allreduce_matrix(
                q_locals.reshape(m, cols * self.rank),
                wire_bits_per_value=float(self.factor_bits),
                op=MeanOp(),
            ).reshape(cols, self.rank)

            if self.warm_start:
                self._q_state[layer_index] = q_mean

            # Step 4: rank-r reconstruction of the mean gradient.
            approx = (p_hat @ q_mean.T).reshape(-1)[:segment]
            mean_estimate[offset : offset + approx.size] = approx.astype(np.float32)

            offset += size

        # Uncompressed tail (coordinates not covered by any layer matrix).
        tail = d - covered
        if tail > 0:
            tail_matrix = np.empty((m, tail), dtype=np.float32)
            gather_fp16_rows(
                [np.asarray(rows_in[i])[covered:] for i in range(m)],
                tail_matrix,
                workspace=ctx.workspace,
                label="powersgd.tail",
            )
            mean_estimate[covered:] = ctx.backend.allreduce_matrix(
                tail_matrix, wire_bits_per_value=16.0, op=MeanOp()
            )

        # Every worker transmits the shared low-rank mean; the report is
        # deferred and holds one copy of it, not one per held row.
        mean_copy = np.array(mean_estimate, copy=True)
        return AggregationResult(
            mean_estimate=mean_estimate,
            bits_per_coordinate=self.expected_bits_per_coordinate(d, ctx.world_size),
            per_worker_transmitted=LazyTransmitted(
                m, lambda: np.repeat(mean_copy[None, :], m, axis=0)
            ),
        )
