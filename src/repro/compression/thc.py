"""THC quantization with the paper's all-reduce adaptations.

THC (Tensor Homomorphic Compression) stochastically quantizes rotated
gradients into ``q``-bit integers so they can be aggregated as integers.  It
was designed for the parameter-server architecture; this module implements
both the "simple adaptation" to all-reduce the THC paper suggests (widen the
wire format to ``b > q`` bits so partial sums cannot overflow) and the two
optimisations this paper proposes:

* **Partial rotation** -- stop the randomized Hadamard transform after
  ``l'`` passes chosen so the per-chunk working set fits in GPU shared
  memory, and compute the quantization range per chunk.
* **Saturation-based aggregation** -- keep ``b = q`` and replace the sum at
  every all-reduce hop with the saturating operator
  ``Sat(x, y) = clip(x + y, -(2^(b-1) - 1), 2^(b-1) - 1)``.  After rotation
  and normalisation the coordinates are concentrated around zero and largely
  cancel, so saturation events are rare.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.collectives.api import Collective
from repro.collectives.ops import MaxOp, SaturatingSumOp, SumOp
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    CostEstimate,
    SimContext,
)
from repro.compression.hadamard import (
    HadamardRotation,
    depth_for_shared_memory,
    pad_to_power_of_two,
    padded_size_for,
)
from repro.compression.kernels import (
    LazyTransmitted,
    fwht_normalization,
    fwht_rows,
    round_stochastically,
    smallest_int_dtype,
)
from repro.compression.quantization import StochasticQuantizer
from repro.compression.spec import Param, register
from repro.grammar import NON_NEGATIVE, Interval


class RotationMode(enum.Enum):
    """How much of the randomized Hadamard transform to apply."""

    FULL = "full"
    PARTIAL = "partial"
    NONE = "none"


class AggregationMode(enum.Enum):
    """How integer payloads are protected against overflow during all-reduce.

    The mode determines the whole aggregation surface -- which collective
    carries the integers, which per-hop operator combines them, and which
    cost-model schedule prices the transfer -- so those mappings live here,
    shared by every integer-quantizing scheme (THC, QSGD).
    """

    #: Widen the wire format to ``b > q`` bits (THC's simple adaptation).
    WIDENED = "widened"
    #: Keep ``b = q`` and saturate at every hop (this paper's proposal).
    SATURATION = "saturation"
    #: Keep ``b = q`` and saturate inside ToR/spine switches: in-network
    #: aggregation over :data:`Collective.SWITCH_AGGREGATION` (hosts send the
    #: payload once up, receive the aggregate once down).
    SWITCH = "switch"

    def collective(self) -> Collective:
        """The collective this aggregation mode runs on."""
        if self is AggregationMode.SWITCH:
            return Collective.SWITCH_AGGREGATION
        return Collective.RING_ALLREDUCE

    def reduce_op(self, wire_bits: int):
        """The per-hop reduction operator (switches saturate like hosts)."""
        if self is AggregationMode.WIDENED:
            return SumOp()
        return SaturatingSumOp(bits=wire_bits)

    def price(self, cost_model):
        """The cost-model pricing method for this mode's collective."""
        if self is AggregationMode.SWITCH:
            return cost_model.switch_aggregation
        return cost_model.ring_allreduce


@register(
    "thc",
    params=(
        Param("q", int, "quantization_bits", doc="quantization width q", domain=Interval(2)),
        Param("b", int, kwarg="wire_bits", doc="wire width b (defaults to q, or q+4 widened)"),
        Param("rot", RotationMode, kwarg="rotation", doc="Hadamard rotation mode"),
        Param("agg", AggregationMode, kwarg="aggregation", doc="overflow-handling strategy"),
        Param("seed", int, "rotation_seed", default=7, doc="rotation signs", domain=NON_NEGATIVE),
    ),
    description="THC quantization with saturation and partial-rotation adaptations",
)
class THCCompressor(AggregationScheme):
    """THC quantization aggregated over ring all-reduce.

    Args:
        quantization_bits: Integer width ``q`` each worker quantizes into.
        wire_bits: Wire width ``b`` used during aggregation.  Defaults to
            ``q`` for saturation mode and ``q + 4`` for widened mode (the
            baseline configuration of Table 8 uses ``b = 8, q = 4``).
        rotation: Full, partial, or no Hadamard rotation.
        aggregation: Widened-wire or saturation-based aggregation.
        rotation_seed: Shared seed of the random rotation signs.
    """

    def __init__(
        self,
        quantization_bits: int = 4,
        wire_bits: int | None = None,
        *,
        rotation: RotationMode = RotationMode.PARTIAL,
        aggregation: AggregationMode = AggregationMode.SATURATION,
        rotation_seed: int = 7,
    ):
        if wire_bits is None:
            # Saturating modes (host-side or in-network) keep b = q; the
            # widened adaptation needs headroom for exact partial sums.
            wire_bits = (
                quantization_bits + 4
                if aggregation is AggregationMode.WIDENED
                else quantization_bits
            )
        self.quantization_bits = quantization_bits
        self.wire_bits = wire_bits
        self.rotation = rotation
        self.aggregation = aggregation
        self.rotation_seed = rotation_seed
        THCCompressor._spec_family.check(self)
        if wire_bits < quantization_bits:
            raise ValueError("wire_bits must be at least quantization_bits")
        self.quantizer = StochasticQuantizer(bits=quantization_bits)
        self.name = (
            f"thc_b{wire_bits}_q{quantization_bits}_{rotation.value}rot_{aggregation.value}"
        )

    # ------------------------------------------------------------------ #
    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del num_coordinates, world_size
        return float(self.wire_bits)

    def _make_rotation(self, ctx: SimContext) -> HadamardRotation | None:
        if self.rotation is RotationMode.NONE:
            return None
        depth = None
        if self.rotation is RotationMode.PARTIAL:
            depth = depth_for_shared_memory(
                ctx.kernels.gpu.memory.shared_memory_bytes, bytes_per_value=4
            )
        return HadamardRotation(seed=self.rotation_seed, depth=depth)

    def _chunk_ranges(
        self, rotated: np.ndarray, chunk_elements: int
    ) -> np.ndarray:
        """Per-chunk max magnitude, used as the quantization range of each chunk."""
        padded_size = rotated.size
        num_chunks = padded_size // chunk_elements
        shaped = np.abs(rotated.reshape(num_chunks, chunk_elements))
        return shaped.max(axis=1)

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        if num_coordinates <= 0:
            raise ValueError("num_coordinates must be positive")
        compression = ctx.kernels.quantize_time(
            num_coordinates, self.quantization_bits
        ) + ctx.kernels.dequantize_time(num_coordinates, self.quantization_bits)

        if self.rotation is RotationMode.NONE:
            num_range_values = 1
        else:
            if self.rotation is RotationMode.PARTIAL:
                depth = depth_for_shared_memory(
                    ctx.kernels.gpu.memory.shared_memory_bytes, bytes_per_value=4
                )
            else:
                depth = None
            rotate = ctx.kernels.hadamard_time(num_coordinates, depth)
            compression += 2 * rotate  # forward on the gradient, inverse on the aggregate
            chunk_elements = (
                1 << depth if depth is not None else num_coordinates
            )
            num_range_values = max(1, -(-num_coordinates // chunk_elements))

        price = self.aggregation.price(ctx.backend.cost_model)
        range_stage = price(num_range_values * 16.0)
        value_stage = price(num_coordinates * float(self.wire_bits))
        return CostEstimate(
            compression_seconds=compression,
            communication_seconds=range_stage.seconds + value_stage.seconds,
            bits_per_coordinate=float(self.wire_bits),
        )

    # ------------------------------------------------------------------ #
    # RPL006: the uniform near-equal coordinate split of the base
    # implementation is the right bucket pricing here (no layer
    # structure to respect), so the inheritance is stated explicitly.
    estimate_bucket_costs = AggregationScheme.estimate_bucket_costs

    def _wire_headroom(self, world_size: int) -> int:
        """Largest magnitude the integer wire buffer must represent.

        Saturation-style folds clip after every pairwise add (intermediate
        bound ``2 * (2^(b-1) - 1)``); the widened adaptation sums exactly,
        so the bound is ``n`` unclipped ``q``-bit levels.
        """
        if self.aggregation is AggregationMode.WIDENED:
            return world_size * self.quantizer.max_level
        return 2 * ((1 << (self.wire_bits - 1)) - 1)

    def aggregate_rows(
        self, rows, ctx: SimContext, d: int
    ) -> AggregationResult:
        """Vectorized float32 passes over the stacked held rows.

        Only the held rows are rotated and quantized, drawing their share of
        the world's uniform stream.  One :func:`fwht_rows` pass reads the
        rows, applies the sign diagonal and the padding as each row block
        enters the transform (``rot=none`` only gathers), and takes the
        per-chunk ranges as each block leaves it, so the transform's output
        is the only float32 matrix.  The rotation runs unnormalized (the
        ``2^(-depth/2)`` factors are folded into the quantization scales),
        stochastic rounding runs in tiles, and the integer payloads travel in
        the narrowest dtype that cannot overflow the world's fold.
        """
        n = ctx.world_size
        held = ctx.local_ranks
        workspace = ctx.workspace
        rotation = self._make_rotation(ctx)
        padded_size = padded_size_for(d)
        if rotation is None:
            depth, chunk_elements, signs = 0, padded_size, None
        else:
            depth = rotation.effective_depth(padded_size)
            chunk_elements = rotation.chunk_elements(padded_size)
            signs = rotation.signs(padded_size, np.float32)
        normalization = np.float32(fwht_normalization(depth))
        num_chunks = padded_size // chunk_elements

        # --- Rotation and per-chunk ranges, one block of rows at a time ---- #
        # fwht_rows applies the sign diagonal as it gathers each block (at
        # depth 0 it only gathers and pads) and takes max(|.|) per chunk
        # from the block it just transformed.  The shared range is
        # scale-equivariant, so the unnormalized units cancel in the ratio
        # used for quantization below.
        per_worker_ranges = np.empty((len(held), num_chunks), dtype=np.float32)
        work = fwht_rows(
            rows,
            depth,
            signs=signs,
            length=padded_size,
            ranges=per_worker_ranges,
            workspace=workspace,
            label="thc",
        )

        # --- Agree on a per-chunk quantization range ----------------------- #
        shared_ranges = ctx.backend.allreduce_matrix(
            per_worker_ranges,
            wire_bits_per_value=16.0,
            op=MaxOp(),
            collective=self.aggregation.collective(),
        )

        # --- Quantize (scale, clip and stochastic rounding in tiles) ------- #
        max_level = float(self.quantizer.max_level)
        inverse_scale = np.zeros(num_chunks, dtype=np.float32)
        np.divide(
            max_level, shared_ranges, out=inverse_scale, where=shared_ranges > 0
        )
        wire_dtype = smallest_int_dtype(self._wire_headroom(n))
        levels = workspace.buf("thc.levels", (len(held), padded_size), wire_dtype)
        round_stochastically(
            work,
            levels,
            ctx.rng,
            max_level,
            scale=inverse_scale,
            workspace=workspace,
            label="thc",
            first_row=held.start,
            stream_rows=n,
        )

        # --- Integer all-reduce (host rings or in-network switches) -------- #
        op = self.aggregation.reduce_op(self.wire_bits)
        aggregated_levels = ctx.backend.allreduce_matrix(
            levels,
            wire_bits_per_value=float(self.wire_bits),
            op=op,
            collective=self.aggregation.collective(),
        )

        # --- Dequantize and un-rotate -------------------------------------- #
        # True-unit quantization step per chunk (normalization folded back in).
        scales = (shared_ranges * (normalization / max_level)).astype(np.float32)
        mean_rotated = aggregated_levels.astype(np.float32)
        shaped_mean = mean_rotated.reshape(num_chunks, chunk_elements)
        shaped_mean *= (scales / n)[:, None]

        if rotation is None:
            mean = np.array(mean_rotated[:d], copy=True)
        else:
            # The forward transform's output is dead by now: a rank holding
            # one row transforms the mean in the same buffers.
            unrotated = fwht_rows(
                mean_rotated.reshape(1, padded_size),
                depth,
                workspace=workspace,
                label="thc",
            ).reshape(-1)
            unrotated *= normalization
            unrotated *= signs
            mean = np.array(unrotated[:d], copy=True)

        # Per-worker transmitted contributions, deferred: plain rounds never
        # pay for the extra inverse rotation over the worker matrix.  The
        # report reads the workspace's levels, and copies them only if a
        # later round asks for the buffer while the report is still unread.

        def materialize_transmitted(levels: np.ndarray) -> np.ndarray:
            dense = levels.astype(np.float32)
            shaped = dense.reshape(len(held), num_chunks, chunk_elements)
            shaped *= scales[None, :, None]
            if depth:
                dense = fwht_rows(dense, depth)
                dense *= normalization
                dense *= signs
            return np.ascontiguousarray(dense[:, :d])

        return AggregationResult(
            mean_estimate=mean,
            bits_per_coordinate=float(self.wire_bits),
            per_worker_transmitted=LazyTransmitted(
                len(held), materialize_transmitted, borrowed=levels, workspace=workspace
            ),
        )

    def saturation_probability(
        self, worker_gradients: list[np.ndarray], ctx: SimContext
    ) -> float:
        """Fraction of coordinates that would saturate for these gradients.

        A diagnostic used by the ablation benches: as the number of workers
        grows, the paper notes saturation needs more wire bits.
        """
        if self.aggregation is AggregationMode.WIDENED:
            return 0.0
        # Compute the exact (unsaturated) integer aggregate and count overflows.
        rotation = self._make_rotation(ctx)
        if rotation is None:
            rotated = [pad_to_power_of_two(g) for g in worker_gradients]
        else:
            rotated = [rotation.forward(g)[0] for g in worker_gradients]
        chunk_elements = (
            rotated[0].size if rotation is None else rotation.chunk_elements(rotated[0].size)
        )
        ranges = np.max(
            np.stack([self._chunk_ranges(r, chunk_elements) for r in rotated]), axis=0
        )
        scales = np.repeat(ranges / self.quantizer.max_level, chunk_elements)
        safe_scales = np.where(scales > 0, scales, 1.0)
        total_levels = np.zeros(rotated[0].size)
        for vec in rotated:
            total_levels += np.clip(
                np.rint(vec / safe_scales), -self.quantizer.max_level, self.quantizer.max_level
            )
        limit = (1 << (self.wire_bits - 1)) - 1
        return float(np.mean(np.abs(total_levels) > limit))
