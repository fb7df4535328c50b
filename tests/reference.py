"""The float64 per-worker reference of every scheme: the test oracle.

The schemes in ``repro.compression`` run one implementation, float32
kernels over the stacked ``(n, d)`` worker matrix.  This module keeps the
per-worker float64 loops they were derived from, so the property suite can
check the kernels against an independent implementation:

* :class:`Reference` wraps a registered scheme: it prices and reports wire
  volume through the wrapped scheme and aggregates with that family's
  reference body (one float64 pass per worker, per-worker rng draws);
* :func:`reference_scheme` builds ``Reference(scheme)`` for a spec, and
  ``ErrorFeedback(Reference(inner))`` for an ``ef(...)`` spec;
* :func:`ring_allreduce`, :func:`tree_allreduce` and
  :func:`hierarchical_aggregate` are the per-vector folds the matrix folds
  of :mod:`repro.collectives.batched` replay hop for hop, kept as the fold
  oracle;
* :func:`quantize` / :func:`dequantize` are the per-vector stochastic
  quantizer the QSGD reference body draws with;
* :func:`pack_ints` / :func:`unpack_ints` are the bit-matrix wire packer the
  bridge's ``pack`` codec must match byte for byte;
* :func:`scale_profiles`, :func:`resize_profiles`, :func:`replay_scenario`
  and :func:`excuse_profiles` rewrite a worker population as a list of one
  :class:`~repro.simulator.cluster.WorkerProfile` per rank, the oracle of
  the segment splices in :mod:`repro.simulator.cluster`.

The reference bodies call ``ctx.backend.allreduce`` with one vector per
worker; ``thc_legacy_pins.json`` pins their THC values byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.collectives.ops import MaxOp, MeanOp, ReduceOp, SumOp
from repro.collectives.topology import TreeTopology
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    CostEstimate,
    SimContext,
)
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.hadamard import pad_to_power_of_two
from repro.compression.kernels import LazyTransmitted, smallest_int_dtype
from repro.compression.powersgd import PowerSGDCompressor, orthogonalize
from repro.compression.precision import PrecisionBaseline
from repro.compression.qsgd import QSGDCompressor
from repro.compression.quantization import StochasticQuantizer
from repro.compression.registry import make_scheme
from repro.compression.signsgd import SignSGDCompressor
from repro.compression.thc import THCCompressor
from repro.compression.topk import (
    INDEX_BITS,
    VALUE_BITS,
    TopKCompressor,
    topk_indices,
)
from repro.compression.topkc import STAGE_BITS, TopKChunkedCompressor, _as_fp16
from repro.simulator.cluster import WorkerProfile
from repro.simulator.gpu import Precision
from repro.simulator.scenario import Scenario


# --------------------------------------------------------------------------- #
# Wire oracle: offset-binary bit packing through a (size, width) bit matrix
# --------------------------------------------------------------------------- #
def pack_ints(values: np.ndarray, width: int) -> bytes:
    """Pack int64 values into ``width``-bit offset-binary fields."""
    offset = (values + (1 << (width - 1))).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((offset[:, None] >> shifts) & np.uint64(1)).astype(np.uint8).reshape(-1)
    return np.packbits(bits).tobytes()


def unpack_ints(payload: bytes, size: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_ints`: int64 values."""
    total = size * width
    raw = np.frombuffer(payload, dtype=np.uint8)
    bits = np.unpackbits(raw, count=total)
    weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)).astype(
        np.int64
    )
    fields = bits.reshape(size, width).astype(np.int64) @ weights
    return fields - (1 << (width - 1))


# --------------------------------------------------------------------------- #
# Fold oracle: per-vector ring, tree and rack-by-rack reductions
# --------------------------------------------------------------------------- #
def split_blocks(vector: np.ndarray, num_blocks: int) -> list[np.ndarray]:
    """Split ``vector`` into ``num_blocks`` nearly equal contiguous blocks."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    return [np.asarray(block) for block in np.array_split(vector, num_blocks)]


def ring_reduce_scatter(
    worker_vectors: list[np.ndarray], op: ReduceOp | None = None
) -> list[np.ndarray]:
    """Reduce-scatter over a ring: worker ``j`` ends up with reduced block ``j``.

    Block ``j`` starts at worker ``(j + 1) % n`` and is combined with each
    successive worker's local block while travelling around the ring,
    finishing at worker ``j``.
    """
    op = op or SumOp()
    _validate_inputs(worker_vectors)
    n = len(worker_vectors)
    blocks_per_worker = [split_blocks(vec, n) for vec in worker_vectors]

    reduced_blocks: list[np.ndarray] = []
    for block_index in range(n):
        start = (block_index + 1) % n
        accumulator = np.array(blocks_per_worker[start][block_index], copy=True)
        for hop in range(1, n):
            rank = (start + hop) % n
            accumulator = op.combine(accumulator, blocks_per_worker[rank][block_index])
        reduced_blocks.append(accumulator)
    return reduced_blocks


def ring_allreduce(
    worker_vectors: list[np.ndarray], op: ReduceOp | None = None
) -> np.ndarray:
    """Ring all-reduce: every worker obtains the full reduced vector.

    The all-gather phase only copies the already-reduced blocks, so the result
    is the concatenation of the reduce-scatter output (finalised by the
    operator, e.g. divided by n for a mean).
    """
    op = op or SumOp()
    _validate_inputs(worker_vectors)
    reduced_blocks = ring_reduce_scatter(worker_vectors, op)
    aggregate = np.concatenate(reduced_blocks) if len(reduced_blocks) > 1 else reduced_blocks[0]
    return op.finalize(aggregate, len(worker_vectors))


def _validate_inputs(worker_vectors: list[np.ndarray]) -> None:
    if not worker_vectors:
        raise ValueError("need at least one worker vector")
    length = worker_vectors[0].shape
    for vec in worker_vectors[1:]:
        if vec.shape != length:
            raise ValueError("all worker vectors must have the same shape")


def tree_allreduce(
    worker_vectors: list[np.ndarray], op: ReduceOp | None = None
) -> np.ndarray:
    """Tree all-reduce: every worker obtains the reduced vector."""
    op = op or SumOp()
    if not worker_vectors:
        raise ValueError("need at least one worker vector")
    shape = worker_vectors[0].shape
    for vec in worker_vectors[1:]:
        if vec.shape != shape:
            raise ValueError("all worker vectors must have the same shape")

    topology = TreeTopology(world_size=len(worker_vectors))

    def reduce_subtree(rank: int) -> np.ndarray:
        accumulator = np.array(worker_vectors[rank], copy=True)
        for child in topology.children(rank):
            accumulator = op.combine(accumulator, reduce_subtree(child))
        return accumulator

    aggregate = reduce_subtree(0)
    return op.finalize(aggregate, len(worker_vectors))


def hierarchical_aggregate(
    worker_vectors: Sequence[np.ndarray],
    op: "ReduceOp",
    rack_assignment: Sequence[int],
) -> np.ndarray:
    """Aggregate per-worker vectors rack-locally, then across racks.

    Each rack folds its members' vectors in rank order (the order packets
    reach the ToR), then the per-rack partials are folded in rack order (the
    order they reach the spine).  For associative operators the result equals
    a flat sum; for saturating operators it is exactly what switch-resident
    aggregation produces.

    Args:
        worker_vectors: One equally shaped vector per worker, in rank order.
        op: Reduction operator applied at every hop.
        rack_assignment: ``rack_assignment[rank]`` is the rack of ``rank``;
            must have one entry per worker.
    """
    if not worker_vectors:
        raise ValueError("need at least one worker vector")
    if len(rack_assignment) != len(worker_vectors):
        raise ValueError(
            f"rack_assignment must have {len(worker_vectors)} entries, "
            f"got {len(rack_assignment)}"
        )
    members_by_rack: dict[int, list[np.ndarray]] = {}
    for rank, vector in enumerate(worker_vectors):
        members_by_rack.setdefault(rack_assignment[rank], []).append(vector)

    rack_partials: list[np.ndarray] = []
    for rack in sorted(members_by_rack):
        members = members_by_rack[rack]
        partial = np.array(members[0], copy=True)
        for vector in members[1:]:
            partial = op.combine(partial, vector)
        rack_partials.append(partial)

    total = rack_partials[0]
    for partial in rack_partials[1:]:
        total = op.combine(total, partial)
    return op.finalize(total, len(worker_vectors))


# --------------------------------------------------------------------------- #
# Per-vector stochastic quantizer
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class QuantizedVector:
    """A quantized vector plus the metadata needed to dequantize it.

    Attributes:
        levels: Signed integer levels, one per coordinate.
        scale: The float value represented by one integer step.
        bits: Integer width ``q`` of each level.
    """

    levels: np.ndarray
    scale: float
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")

    @property
    def max_level(self) -> int:
        """Largest representable level magnitude, ``2^(q-1) - 1``."""
        return (1 << (self.bits - 1)) - 1


def quantize(
    quantizer: StochasticQuantizer,
    vector: np.ndarray,
    rng: np.random.Generator,
    *,
    value_range: float | None = None,
) -> QuantizedVector:
    """Quantize ``vector`` onto ``quantizer``'s signed integer grid.

    Args:
        vector: Values to quantize.
        rng: Randomness source for stochastic rounding.
        value_range: The magnitude mapped to the largest level.  Defaults
            to ``max(|vector|)``; distributed schemes pass a globally
            agreed range so every worker uses the same scale.
    """
    if vector.ndim != 1:
        raise ValueError("vector must be 1-D")
    if value_range is None:
        value_range = float(np.max(np.abs(vector))) if vector.size else 0.0
    if value_range < 0:
        raise ValueError("value_range must be non-negative")
    if value_range == 0.0:
        return QuantizedVector(
            levels=np.zeros(vector.size, dtype=np.int64), scale=0.0, bits=quantizer.bits
        )

    scale = value_range / quantizer.max_level
    scaled = np.clip(vector / scale, -quantizer.max_level, quantizer.max_level)
    lower = np.floor(scaled)
    fraction = scaled - lower
    round_up = rng.random(vector.size) < fraction
    levels = (lower + round_up).astype(np.int64)
    levels = np.clip(levels, -quantizer.max_level, quantizer.max_level)
    return QuantizedVector(levels=levels, scale=scale, bits=quantizer.bits)


def dequantize(quantized: QuantizedVector) -> np.ndarray:
    """Map integer levels back to floating-point values."""
    return quantized.levels.astype(np.float64) * quantized.scale


# --------------------------------------------------------------------------- #
# Reference aggregation bodies (``self`` is the wrapped scheme)
# --------------------------------------------------------------------------- #
def _allreduce(ctx: SimContext, worker_vectors: list[np.ndarray], **kwargs) -> np.ndarray:
    """All-reduce one vector per worker: stack them and run the matrix fold."""
    return ctx.backend.allreduce_matrix(
        np.stack([np.asarray(vector) for vector in worker_vectors]), **kwargs
    )


def _precision(
    self, worker_gradients: list[np.ndarray], ctx: SimContext, d: int
) -> AggregationResult:
    if self.wire_precision is Precision.FP16:
        wire_vectors = [g.astype(np.float16).astype(np.float32) for g in worker_gradients]
    else:
        wire_vectors = [np.asarray(g, dtype=np.float32) for g in worker_gradients]

    result = _allreduce(
        ctx,
        wire_vectors,
        wire_bits_per_value=self.wire_precision.bits,
        op=MeanOp(),
    )

    mean = np.asarray(result, dtype=np.float32)
    transmitted = None
    if self.wire_precision is Precision.FP16:
        transmitted = [np.asarray(v, dtype=np.float32) for v in wire_vectors]
    return AggregationResult(
        mean_estimate=mean,
        bits_per_coordinate=float(self.wire_precision.bits),
        per_worker_transmitted=transmitted,
    )


def topk_compress(self, gradient: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (indices, FP16 values) of the worker's top-K coordinates."""
    if gradient.ndim != 1:
        raise ValueError("gradient must be a flat vector")
    k = self.select_k(gradient.size)
    indices = topk_indices(gradient, k)
    values = gradient[indices].astype(self.value_dtype)
    return indices, values


def topk_decompress(
    self, indices: np.ndarray, values: np.ndarray, num_coordinates: int
) -> np.ndarray:
    """Scatter (indices, values) back into a dense vector of length ``d``."""
    dense = np.zeros(num_coordinates, dtype=np.float32)
    dense[indices] = values.astype(np.float32)
    return dense


def _topk(
    self, worker_gradients: list[np.ndarray], ctx: SimContext, d: int
) -> AggregationResult:
    n = ctx.world_size
    compressed = [topk_compress(self, g) for g in worker_gradients]

    # All-gather of the packed payloads: indices and values travel as two
    # sections of one payload (32-bit indices next to FP16 values), priced
    # as a single gather of the combined 48k-bit volume.
    gathered = ctx.backend.allgather_sections(
        [(idx, val.astype(np.float64)) for idx, val in compressed],
        wire_bits_per_section=(INDEX_BITS, VALUE_BITS),
    )

    # Aggregation consumes the *gathered* payloads -- what the collective
    # actually delivered -- not the local compression state, so the same
    # code path runs unchanged when the gather crosses a real transport.
    transmitted = [
        topk_decompress(self, idx.astype(np.int64), val, d)
        for idx, val in gathered
    ]
    total = np.zeros(d, dtype=np.float32)
    for dense in transmitted:
        total += dense
    mean = total / n

    return AggregationResult(
        mean_estimate=mean,
        bits_per_coordinate=self.expected_bits_per_coordinate(d, n),
        per_worker_transmitted=transmitted,
    )


def _topkc(
    self, worker_gradients: list[np.ndarray], ctx: SimContext, d: int
) -> AggregationResult:
    n = ctx.world_size
    chunk = self.chunk_size
    num_chunks = self.num_chunks(d)
    j = self.num_top_chunks(d)

    if self.permute:
        perm = self._permutation(d)
        inverse = np.argsort(perm)
        work_vectors = [g[perm] for g in worker_gradients]
    else:
        inverse = None
        work_vectors = worker_gradients

    # --- Stage 1: chunk-norm consensus ------------------------------- #
    per_worker_norms = [
        _as_fp16(self._chunk_norms(v)).astype(np.float32) for v in work_vectors
    ]
    norm_reduce = _allreduce(
        ctx, per_worker_norms, wire_bits_per_value=STAGE_BITS, op=SumOp()
    )
    summed_norms = np.asarray(norm_reduce)

    # Cheap top-k over the d / C summed chunk norms: the consensus.
    if j < summed_norms.size:
        top_chunks = np.sort(np.argpartition(summed_norms, -j)[-j:])
    else:
        top_chunks = np.arange(summed_norms.size)

    # --- Stage 2: all-reduce the agreed-upon chunks ------------------- #
    selected_mask = np.zeros(num_chunks * chunk, dtype=bool)
    for chunk_id in top_chunks:
        selected_mask[chunk_id * chunk : (chunk_id + 1) * chunk] = True
    selected_mask = selected_mask[:d]
    selected_indices = np.flatnonzero(selected_mask)

    selected_payloads = [
        v[selected_indices].astype(np.float16).astype(np.float32) for v in work_vectors
    ]
    value_reduce = _allreduce(
        ctx, selected_payloads, wire_bits_per_value=STAGE_BITS, op=SumOp()
    )

    mean_permuted = np.zeros(d, dtype=np.float32)
    mean_permuted[selected_indices] = np.asarray(value_reduce) / n

    transmitted_permuted = []
    for v in work_vectors:
        dense = np.zeros(d, dtype=np.float32)
        dense[selected_indices] = v[selected_indices].astype(np.float16).astype(np.float32)
        transmitted_permuted.append(dense)

    if inverse is not None:
        mean = mean_permuted[inverse]
        transmitted = [t[inverse] for t in transmitted_permuted]
    else:
        mean = mean_permuted
        transmitted = transmitted_permuted

    return AggregationResult(
        mean_estimate=mean,
        bits_per_coordinate=self.expected_bits_per_coordinate(d, n),
        per_worker_transmitted=transmitted,
    )


def _thc(
    self, worker_gradients: list[np.ndarray], ctx: SimContext, d: int
) -> AggregationResult:
    n = ctx.world_size
    rotation = self._make_rotation(ctx)

    # --- Rotation ------------------------------------------------------ #
    if rotation is None:
        rotated_vectors = [pad_to_power_of_two(g) for g in worker_gradients]
        padded_size = rotated_vectors[0].size
        chunk_elements = padded_size
    else:
        rotated_vectors = []
        for grad in worker_gradients:
            rotated, _ = rotation.forward(grad)
            rotated_vectors.append(rotated)
        padded_size = rotated_vectors[0].size
        chunk_elements = rotation.chunk_elements(padded_size)

    # --- Agree on a per-chunk quantization range ------------------------ #
    # Workers all-reduce (max) the per-chunk magnitude so everyone
    # quantizes with the same scale; this tiny exchange is priced but its
    # bits-per-coordinate contribution is negligible (one FP16 per chunk).
    per_worker_ranges = [
        self._chunk_ranges(rot, chunk_elements) for rot in rotated_vectors
    ]
    range_reduce = _allreduce(
        ctx,
        per_worker_ranges,
        wire_bits_per_value=16.0,
        op=MaxOp(),
        collective=self.aggregation.collective(),
    )
    shared_ranges = np.asarray(range_reduce)

    # --- Quantize ------------------------------------------------------- #
    max_level = self.quantizer.max_level
    scales = np.repeat(shared_ranges / max_level, chunk_elements)
    # Avoid division by zero for all-zero chunks.
    safe_scales = np.where(scales > 0, scales, 1.0)

    # Divide / clip / floor / fraction / round-up run in two reused
    # float64 buffers, never in a worker's row: with ``rot=none`` at a
    # power-of-two ``d`` the padded row *is* the caller's array.
    level_dtype = smallest_int_dtype(max_level)
    scaled = np.empty(padded_size)
    lower = np.empty(padded_size)
    level_vectors = []
    for rotated in rotated_vectors:
        np.divide(rotated, safe_scales, out=scaled)
        np.clip(scaled, -max_level, max_level, out=scaled)
        np.floor(scaled, out=lower)
        scaled -= lower
        lower += ctx.rng.random(padded_size) < scaled
        np.clip(lower, -max_level, max_level, out=lower)
        level_vectors.append(lower.astype(level_dtype))
    # The float64 rows are dead; free them before the all-reduce copies.
    del rotated_vectors, scaled, lower

    # --- Integer all-reduce (host rings or in-network switches) --------- #
    op = self.aggregation.reduce_op(self.wire_bits)
    reduce_result = _allreduce(
        ctx,
        [levels.astype(np.float64) for levels in level_vectors],
        wire_bits_per_value=float(self.wire_bits),
        op=op,
        collective=self.aggregation.collective(),
    )
    aggregated_levels = np.asarray(reduce_result, dtype=np.float64)

    # --- Dequantize and un-rotate --------------------------------------- #
    rotated_mean = aggregated_levels * scales / n

    if rotation is None:
        mean = rotated_mean[:d].astype(np.float32)
    else:
        mean = rotation.inverse(rotated_mean, d).astype(np.float32)

    # Per-worker transmitted contributions (for error feedback) are
    # deferred, as in the kernels: plain rounds never pay the n extra
    # inverse rotations.  The closure keeps only the narrow levels and the
    # per-chunk ranges; the float64 scales are rebuilt when the report is
    # read, so a result kept alive into the next round holds little memory.
    def materialize_transmitted() -> np.ndarray:
        own_scales = np.repeat(shared_ranges / max_level, chunk_elements)
        transmitted = np.empty((n, d), dtype=np.float32)
        for row, levels in zip(transmitted, level_vectors):
            own_rotated = levels.astype(np.float64) * own_scales
            if rotation is None:
                row[:] = own_rotated[:d]
            else:
                row[:] = rotation.inverse(own_rotated, d)
        return transmitted

    return AggregationResult(
        mean_estimate=mean,
        bits_per_coordinate=float(self.wire_bits),
        per_worker_transmitted=LazyTransmitted(n, materialize_transmitted),
    )


def _qsgd(
    self, worker_gradients: list[np.ndarray], ctx: SimContext, d: int
) -> AggregationResult:
    n = ctx.world_size

    # Agree on a shared norm so the dequantization scale is identical on
    # every worker -- the adaptation that makes QSGD all-reduce compatible
    # (the original scheme sends per-worker norms, which only a parameter
    # server can combine).
    per_worker_norms = [
        np.array([float(np.linalg.norm(g))]) for g in worker_gradients
    ]
    collective = self.aggregation.collective()
    norm_reduce = _allreduce(
        ctx, per_worker_norms, wire_bits_per_value=32.0, op=MaxOp(), collective=collective
    )
    shared_norm = float(np.asarray(norm_reduce)[0])
    if shared_norm == 0.0:
        zero = np.zeros(d, dtype=np.float32)
        return AggregationResult(
            mean_estimate=zero,
            bits_per_coordinate=self.expected_bits_per_coordinate(d, n),
            per_worker_transmitted=[zero.copy() for _ in range(n)],
        )

    # Norm-scaled coordinates have magnitude at most 1, so the shared
    # quantization range is exactly 1.
    scaled = [g / shared_norm for g in worker_gradients]
    quantized = [
        quantize(self.quantizer, np.asarray(s, dtype=np.float64), ctx.rng, value_range=1.0)
        for s in scaled
    ]
    scale = quantized[0].scale

    op = self.aggregation.reduce_op(self.wire_bits)
    level_reduce = _allreduce(
        ctx,
        [q.levels.astype(np.float64) for q in quantized],
        wire_bits_per_value=float(self.wire_bits),
        op=op,
        collective=collective,
    )

    mean = (
        np.asarray(level_reduce) * scale * shared_norm / n
    ).astype(np.float32)

    transmitted = [
        (q.levels.astype(np.float64) * scale * shared_norm).astype(np.float32)
        for q in quantized
    ]
    return AggregationResult(
        mean_estimate=mean,
        bits_per_coordinate=self.expected_bits_per_coordinate(d, n),
        per_worker_transmitted=transmitted,
    )


def _signsgd(
    self, worker_gradients: list[np.ndarray], ctx: SimContext, d: int
) -> AggregationResult:
    n = ctx.world_size
    bits = self.wire_bits_for(n)

    signs = [np.sign(g).astype(np.float64) for g in worker_gradients]

    vote_reduce = _allreduce(
        ctx, signs, wire_bits_per_value=float(bits), op=SumOp()
    )
    majority = np.sign(np.asarray(vote_reduce))

    magnitude = 1.0
    if self.scale_by_mean_magnitude:
        per_worker_magnitude = [
            np.array([float(np.mean(np.abs(g)))]) for g in worker_gradients
        ]
        magnitude_reduce = _allreduce(
            ctx, per_worker_magnitude, wire_bits_per_value=32.0, op=MeanOp()
        )
        magnitude = float(np.asarray(magnitude_reduce)[0])

    mean = (majority * magnitude).astype(np.float32)

    transmitted = [(s * magnitude).astype(np.float32) for s in signs]
    return AggregationResult(
        mean_estimate=mean,
        bits_per_coordinate=float(bits),
        per_worker_transmitted=transmitted,
    )


def _powersgd(
    self, worker_gradients: list[np.ndarray], ctx: SimContext, d: int
) -> AggregationResult:
    shapes = self._shapes_for(d)
    covered = sum(rows * cols for rows, cols in shapes)

    mean_estimate = np.zeros(d, dtype=np.float32)

    offset = 0
    for layer_index, (rows, cols) in enumerate(shapes):
        size = rows * cols
        worker_matrices = []
        for grad in worker_gradients:
            block = np.zeros(size, dtype=np.float64)
            segment = grad[offset : offset + size]
            block[: segment.size] = segment
            worker_matrices.append(block.reshape(rows, cols))

        q = self._initial_q(layer_index, cols, ctx.rng)

        # Step 1: P_i = M_i Q, all-reduce P (mean).
        p_locals = [m @ q for m in worker_matrices]
        p_flat = [p.reshape(-1) for p in p_locals]
        p_reduce = _allreduce(
            ctx, p_flat, wire_bits_per_value=float(self.factor_bits), op=MeanOp()
        )
        p_mean = np.asarray(p_reduce).reshape(rows, self.rank)

        # Step 2: orthogonalize P.
        p_hat = orthogonalize(p_mean)

        # Step 3: Q_i = M_i^T P_hat, all-reduce Q (mean).
        q_locals = [m.T @ p_hat for m in worker_matrices]
        q_flat = [qm.reshape(-1) for qm in q_locals]
        q_reduce = _allreduce(
            ctx, q_flat, wire_bits_per_value=float(self.factor_bits), op=MeanOp()
        )
        q_mean = np.asarray(q_reduce).reshape(cols, self.rank)

        if self.warm_start:
            self._q_state[layer_index] = q_mean

        # Step 4: rank-r reconstruction of the mean gradient.
        approx = (p_hat @ q_mean.T).reshape(-1)[: min(size, d - offset)]
        mean_estimate[offset : offset + approx.size] = approx.astype(np.float32)

        offset += size

    # Uncompressed tail (coordinates not covered by any layer matrix).
    tail = d - covered
    if tail > 0:
        tail_vectors = [
            g[covered:].astype(np.float16).astype(np.float32) for g in worker_gradients
        ]
        tail_reduce = _allreduce(
            ctx, tail_vectors, wire_bits_per_value=16.0, op=MeanOp()
        )
        mean_estimate[covered:] = np.asarray(tail_reduce, dtype=np.float32)

    return AggregationResult(
        mean_estimate=mean_estimate,
        bits_per_coordinate=self.expected_bits_per_coordinate(d, ctx.world_size),
        per_worker_transmitted=[np.array(mean_estimate, copy=True) for _ in worker_gradients],
    )


#: The reference body of each registered family, keyed by scheme class.
BODIES = {
    PrecisionBaseline: _precision,
    TopKCompressor: _topk,
    TopKChunkedCompressor: _topkc,
    THCCompressor: _thc,
    QSGDCompressor: _qsgd,
    SignSGDCompressor: _signsgd,
    PowerSGDCompressor: _powersgd,
}


class Reference(AggregationScheme):
    """A registered scheme, aggregated by its float64 per-worker reference body.

    Pricing, wire volume and state (PowerSGD's warm start) are the wrapped
    scheme's own; only the aggregation runs the reference loops.
    """

    def __init__(self, scheme: AggregationScheme):
        if type(scheme) not in BODIES:
            raise TypeError(f"no reference body for {type(scheme).__name__}")
        self.scheme = scheme
        self.name = f"reference({scheme.name})"
        self._body = BODIES[type(scheme)]

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        return self.scheme.expected_bits_per_coordinate(num_coordinates, world_size)

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        return self.scheme.estimate_costs(num_coordinates, ctx)

    def estimate_bucket_costs(
        self, num_coordinates: int, num_buckets: int, ctx: SimContext
    ) -> list[CostEstimate]:
        return self.scheme.estimate_bucket_costs(num_coordinates, num_buckets, ctx)

    def aggregate_rows(self, rows, ctx: SimContext, d: int) -> AggregationResult:
        return self._body(self.scheme, list(rows), ctx, d)


def reference_scheme(spec: str) -> AggregationScheme:
    """``Reference`` of ``spec``'s scheme; ``ef(...)`` keeps its wrapper outside."""
    scheme = make_scheme(spec)
    if isinstance(scheme, ErrorFeedback):
        return ErrorFeedback(Reference(scheme.scheme), decay=scheme.decay)
    return Reference(scheme)


# --------------------------------------------------------------------------- #
# Population oracle: per-rank profile lists
# --------------------------------------------------------------------------- #
def scale_profiles(
    profiles: list[WorkerProfile], ranks, *, slowdown: float = 1.0, nic: float = 1.0
) -> list[WorkerProfile]:
    """Multiply the given ranks' slowdown / nic_scale factors, one rank at a time."""
    profiles = list(profiles)
    for rank in ranks:
        profile = profiles[rank]
        profiles[rank] = WorkerProfile(
            slowdown=profile.slowdown * slowdown,
            nic_scale=profile.nic_scale * nic,
        )
    return profiles


def resize_profiles(profiles: list[WorkerProfile], world_size: int) -> list[WorkerProfile]:
    """The last workers leave first; joiners arrive nominal."""
    if world_size <= len(profiles):
        return list(profiles[:world_size])
    return list(profiles) + [WorkerProfile()] * (world_size - len(profiles))


def replay_scenario(
    scenario: Scenario,
    profiles: list[WorkerProfile],
    gpus_per_node: int,
    round_index: int,
    *,
    attempt: int = 0,
) -> list[WorkerProfile]:
    """``Scenario.cluster_at`` on a fabric-less cluster's per-rank profiles.

    Replays each active event rank by rank with the engine's seeding; flap
    and domain_fail cover the whole cluster (its one rack and one domain).
    """
    for position, event in enumerate(scenario.events):
        if not event.active_at(round_index):
            continue
        seed = (scenario.seed, position, round_index)
        rng = np.random.default_rng(seed if attempt == 0 else (*seed, attempt))
        if event.kind == "slowdown":
            profiles = scale_profiles(profiles, [event.worker], slowdown=event.factor)
        elif event.kind == "nic_degrade":
            profiles = scale_profiles(profiles, [event.worker], nic=event.factor)
        elif event.kind in ("flap", "domain_fail"):
            profiles = scale_profiles(profiles, range(len(profiles)), nic=event.factor)
        elif event.kind == "churn":
            hit = np.flatnonzero(rng.random(len(profiles)) < event.p).tolist()
            profiles = scale_profiles(profiles, hit, slowdown=event.factor)
        elif event.kind == "join":
            profiles = resize_profiles(profiles, len(profiles) + event.nodes * gpus_per_node)
        elif event.kind == "leave":
            profiles = resize_profiles(profiles, len(profiles) - event.nodes * gpus_per_node)
        else:
            raise NotImplementedError(f"no per-rank replay of {event.kind}")
    return profiles


def excuse_profiles(
    profiles: list[WorkerProfile],
    reference: list[WorkerProfile],
    max_workers: int,
    tolerance: float,
) -> tuple[list[WorkerProfile], tuple[int, ...]]:
    """Restore the ``max_workers`` worst workers (worst first, then lowest rank)."""
    if len(profiles) != len(reference):
        return list(profiles), ()
    badness = {
        rank: max(p.slowdown / r.slowdown, p.nic_scale / r.nic_scale)
        for rank, (p, r) in enumerate(zip(profiles, reference))
    }
    stragglers = sorted(
        (rank for rank, bad in badness.items() if bad > 1.0 + tolerance),
        key=lambda rank: (-badness[rank], rank),
    )
    excused = sorted(stragglers[:max_workers])
    profiles = list(profiles)
    for rank in excused:
        profiles[rank] = reference[rank]
    return profiles, tuple(excused)
