"""TopK-Chunked (TopKC): the paper's all-reduce-compatible sparsifier.

TopKC (section 3.1.2) replaces per-worker coordinate selection with a cheap
*consensus on chunks*:

1. Each worker partitions its gradient into fixed-size chunks of ``C``
   coordinates and computes the squared L2 norm of every chunk.  The squared
   norms are summed across workers with a small FP16 all-reduce
   (``16 / C`` bits per gradient coordinate).
2. All workers now agree on the ``J`` chunks with the largest summed norms
   (the "global top chunks") and all-reduce exactly those chunks' values in
   FP16 (``16 * J * C / d`` bits per coordinate).

Total communication: ``b = 16 (J C / d + 1 / C)``.  Because every worker sends
the *same* coordinates, the payload can be reduced in flight -- all-reduce
compatibility -- and because the heavy top-k selection now runs over ``d / C``
chunk norms instead of ``d`` coordinates, with sequential memory access, the
compression kernels are much cheaper.

The class also implements the *random permutation* ablation of Table 4: a
fixed random permutation applied before chunking destroys the spatial locality
of large coordinates that TopKC exploits.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.ops import SumOp
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    CostEstimate,
    SimContext,
)
from repro.compression.kernels import TILE_ELEMENTS, LazyTransmitted, RoundWorkspace
from repro.compression.precision import gather_fp16_rows
from repro.compression.spec import Param, register
from repro.grammar import NON_NEGATIVE, POSITIVE

#: Wire width of the chunk-norm consensus stage and of the value stage (FP16).
STAGE_BITS = 16.0

#: Largest finite FP16 value; chunk norms are clipped here before the FP16
#: wire cast so unusually energetic chunks saturate instead of becoming inf.
FP16_MAX = 65504.0


def _as_fp16(values: "np.ndarray") -> "np.ndarray":
    """Cast to FP16 for the wire, clipping to the finite FP16 range."""
    return np.clip(values, -FP16_MAX, FP16_MAX).astype(np.float16)



def num_top_chunks_for_bits(
    bits_per_coordinate: float, num_coordinates: int, chunk_size: int
) -> int:
    """Solve ``b = 16 (J C / d + 1 / C)`` for the number of top chunks ``J``.

    Raises:
        ValueError: if the chunk-norm stage alone already exceeds the budget
            (``16 / C >= b``), i.e. the chunk size is too small for the target.
    """
    _validate_geometry(num_coordinates, chunk_size)
    if bits_per_coordinate <= 0:
        raise ValueError("bits_per_coordinate must be positive")
    norm_stage_bits = STAGE_BITS / chunk_size
    if norm_stage_bits >= bits_per_coordinate:
        raise ValueError(
            f"chunk size {chunk_size} spends {norm_stage_bits:.3f} bits/coordinate on the "
            f"norm stage alone, which exceeds the budget b={bits_per_coordinate}"
        )
    num_chunks = -(-num_coordinates // chunk_size)
    value_budget = bits_per_coordinate - norm_stage_bits
    j = int((value_budget / STAGE_BITS) * num_coordinates / chunk_size)
    return max(1, min(num_chunks, j))


def default_chunk_size(bits_per_coordinate: float) -> int:
    """The chunk sizes the paper uses: C=128 for b=0.5, C=64 for b in {2, 8}."""
    if bits_per_coordinate <= 0:
        raise ValueError("bits_per_coordinate must be positive")
    return 128 if bits_per_coordinate < 1.0 else 64


@register(
    "topkc",
    params=(
        Param("b", float, "bits_per_coordinate", doc="target bits per coordinate", domain=POSITIVE),
        Param("c", int, "chunk_size", doc="chunk size C (default: the paper's)", domain=POSITIVE),
        Param("perm", bool, kwarg="permute", default=False, doc="random-permutation ablation"),
        Param("seed", int, "permutation_seed", default=1234, domain=NON_NEGATIVE),
    ),
    description="TopK-Chunked: all-reduce-compatible chunk-consensus sparsifier",
)
class TopKChunkedCompressor(AggregationScheme):
    """The paper's TopKC scheme (optionally with the permutation ablation).

    Args:
        bits_per_coordinate: Target communication volume ``b``.
        chunk_size: Chunk size ``C``; defaults to the paper's choice for the
            given ``b``.
        permute: Apply a fixed random coordinate permutation before chunking
            (the Table 4 ablation that removes spatial locality).
        permutation_seed: Seed of the fixed permutation (shared by all
            workers, as it would be in a real deployment).
    """

    def __init__(
        self,
        bits_per_coordinate: float = 2.0,
        chunk_size: int | None = None,
        *,
        permute: bool = False,
        permutation_seed: int = 1234,
    ):
        # Checked as the caller gave it: float(True) is 1.0 and would pass.
        self.bits_per_coordinate = bits_per_coordinate
        self.chunk_size = (
            default_chunk_size(bits_per_coordinate) if chunk_size is None else chunk_size
        )
        self.permute = permute
        self.permutation_seed = permutation_seed
        TopKChunkedCompressor._spec_family.check(self)
        self.bits_per_coordinate = float(bits_per_coordinate)
        suffix = "_perm" if permute else ""
        self.name = f"topkc_b{bits_per_coordinate:g}{suffix}"

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    def num_chunks(self, num_coordinates: int) -> int:
        """Number of chunks a ``d``-sized gradient is partitioned into."""
        _validate_geometry(num_coordinates, self.chunk_size)
        return -(-num_coordinates // self.chunk_size)

    def num_top_chunks(self, num_coordinates: int) -> int:
        """The consensus number of chunks ``J`` aggregated each round."""
        return num_top_chunks_for_bits(
            self.bits_per_coordinate, num_coordinates, self.chunk_size
        )

    def selected_coordinates(self, num_coordinates: int) -> int:
        """``J' = J * C``: how many coordinates are aggregated each round."""
        return min(
            num_coordinates, self.num_top_chunks(num_coordinates) * self.chunk_size
        )

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del world_size
        j = self.num_top_chunks(num_coordinates)
        return STAGE_BITS * (
            j * self.chunk_size / num_coordinates + 1.0 / self.chunk_size
        )

    def _permutation(self, num_coordinates: int) -> np.ndarray:
        rng = np.random.default_rng(self.permutation_seed)
        return rng.permutation(num_coordinates)

    def _chunk_norms(self, vector: np.ndarray) -> np.ndarray:
        """Squared L2 norm of every chunk (last chunk may be shorter)."""
        d = vector.size
        num_chunks = self.num_chunks(d)
        padded = np.zeros(num_chunks * self.chunk_size, dtype=np.float64)
        padded[:d] = vector
        return np.square(padded.reshape(num_chunks, self.chunk_size)).sum(axis=1)

    def consensus_chunks(
        self, worker_vectors: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run stage 1 functionally: return (top chunk ids, summed chunk norms)."""
        norms = np.zeros(self.num_chunks(worker_vectors[0].size), dtype=np.float64)
        for vec in worker_vectors:
            # FP16 on the wire, as in the paper.
            norms += _as_fp16(self._chunk_norms(vec)).astype(np.float64)
        j = self.num_top_chunks(worker_vectors[0].size)
        top = np.argpartition(norms, -j)[-j:] if j < norms.size else np.arange(norms.size)
        return np.sort(top), norms

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        if num_coordinates <= 0:
            raise ValueError("num_coordinates must be positive")
        num_chunks = self.num_chunks(num_coordinates)
        j = self.num_top_chunks(num_coordinates)
        selected = self.selected_coordinates(num_coordinates)
        compression = (
            ctx.kernels.chunk_norm_time(num_coordinates, self.chunk_size)
            + ctx.kernels.topk_select_time(num_chunks, j)
            + 2 * ctx.kernels.chunk_gather_time(selected)
        )
        norm_stage = ctx.backend.cost_model.ring_allreduce(num_chunks * STAGE_BITS)
        value_stage = ctx.backend.cost_model.ring_allreduce(selected * STAGE_BITS)
        return CostEstimate(
            compression_seconds=compression,
            communication_seconds=norm_stage.seconds + value_stage.seconds,
            bits_per_coordinate=self.expected_bits_per_coordinate(
                num_coordinates, ctx.world_size
            ),
        )

    # ------------------------------------------------------------------ #
    # RPL006: the uniform near-equal coordinate split of the base
    # implementation is the right bucket pricing here (no layer
    # structure to respect), so the inheritance is stated explicitly.
    estimate_bucket_costs = AggregationScheme.estimate_bucket_costs

    def aggregate_rows(self, rows, ctx: SimContext, d: int) -> AggregationResult:
        """Vectorized chunk-norm consensus over the stacked held rows.

        Chunk norms are computed in float64 so the FP16-rounded consensus --
        and therefore the selected chunk set -- is bit-identical to a
        per-worker float64 reduction; they run over tiles of whole
        chunks, so the float64 scratch is one tile, not a copy of the
        matrix.  The heavy value stage runs in float32, and the per-worker
        report is deferred.
        """
        n = ctx.world_size
        held = ctx.local_ranks
        chunk = self.chunk_size
        num_chunks = self.num_chunks(d)
        j = self.num_top_chunks(d)
        workspace = ctx.workspace

        work = workspace.buf("topkc.work", (len(held), d), np.float32)
        if self.permute:
            permutation = self._permutation(d)
            inverse = np.argsort(permutation)
            for index in range(len(held)):
                row = np.asarray(rows[index], dtype=np.float32)
                np.take(row, permutation, out=work[index])
        else:
            inverse = None
            self._gather_rows(rows, work)

        # --- Stage 1: chunk-norm consensus ------------------------------- #
        norms = self._chunk_norms_rows(work, workspace)
        per_worker_norms = _as_fp16(norms).astype(np.float32)
        summed_norms = ctx.backend.allreduce_matrix(
            per_worker_norms, wire_bits_per_value=STAGE_BITS, op=SumOp()
        )

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

        # take() keeps the payload rows contiguous (work[:, indices] would
        # lay them out column-major); they round to FP16 in place.
        payload = np.take(work, selected_indices, axis=1)
        gather_fp16_rows(payload, payload, workspace=workspace, label="topkc.payload")
        value_sum = ctx.backend.allreduce_matrix(
            payload, wire_bits_per_value=STAGE_BITS, op=SumOp()
        )

        mean_permuted = np.zeros(d, dtype=np.float32)
        mean_permuted[selected_indices] = value_sum / n
        mean = mean_permuted[inverse] if inverse is not None else mean_permuted

        # Per-worker transmitted contributions, deferred: the closure holds
        # only the payload and the indices it scatters back to.
        def materialize_transmitted() -> np.ndarray:
            transmitted = np.zeros((len(held), d), dtype=np.float32)
            transmitted[:, selected_indices] = payload
            if inverse is not None:
                transmitted = transmitted[:, inverse]
            return transmitted

        return AggregationResult(
            mean_estimate=mean,
            bits_per_coordinate=self.expected_bits_per_coordinate(d, n),
            per_worker_transmitted=LazyTransmitted(len(held), materialize_transmitted),
        )

    def _chunk_norms_rows(
        self, work: np.ndarray, workspace: RoundWorkspace
    ) -> np.ndarray:
        """Float64 squared L2 norm of every chunk of every row of ``work``.

        Walks each row in tiles of whole chunks (the last chunk zero-padded,
        as :meth:`_chunk_norms` pads it), so every chunk is still one
        contiguous float64 reduction of ``C`` values.
        """
        n, d = work.shape
        chunk = self.chunk_size
        num_chunks = self.num_chunks(d)
        tile_chunks = min(num_chunks, max(1, TILE_ELEMENTS // chunk))
        squares = workspace.buf("topkc.squares", (tile_chunks * chunk,), np.float64)
        norms = np.empty((n, num_chunks), dtype=np.float64)
        for index in range(n):
            for first in range(0, num_chunks, tile_chunks):
                last = min(first + tile_chunks, num_chunks)
                lo, hi = first * chunk, min(last * chunk, d)
                block = squares[: (last - first) * chunk]
                block[: hi - lo] = work[index, lo:hi]
                block[hi - lo :] = 0.0
                np.square(block, out=block)
                block.reshape(-1, chunk).sum(axis=1, out=norms[index, first:last])
        return norms

def _validate_geometry(num_coordinates: int, chunk_size: int) -> None:
    if num_coordinates <= 0:
        raise ValueError("num_coordinates must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
