"""Uncompressed precision baselines: FP32 and the stronger FP16.

The paper's central evaluation point is that FP16 communication is the bar a
compression scheme must clear: it halves the wire volume, is natively
supported by the hardware, and loses essentially no accuracy.  Both baselines
aggregate with a plain ring all-reduce.

The FP16 wire is each gradient rounded to IEEE float16 and widened back to
float32, bit for bit ``x.astype(np.float16).astype(np.float32)``, but
computed on the float32 bits (:func:`gather_fp16_rows`): numpy's generic
half-precision cast runs one element at a time, about three times slower
than the handful of vectorized passes below.  The rounding is round to
nearest even at the float16 quantum of ``|x|``, done as ``(|x| + m) - m``
in float32 with the magic addend ``m = 2^(max(e, -14) + 13)`` for
``|x|`` in ``[2^e, 2^(e+1))``:

* float16 normal range (``|x| >= 2^-14``): the float32 ulp of ``m`` is
  ``2^(e-10)``, so the add rounds ``|x|`` to 10 mantissa bits -- the same
  as the bit-level ``u += 0xFFF + ((u >> 13) & 1); u &= 0xFFFFE000``;
* float16 subnormal range (``|x| < 2^-14``, float32 denormals included):
  ``m = 0.5``, whose ulp is the float16 subnormal quantum 2^-24.

Both ranges run the same passes, so the cost does not depend on how many
values are tiny.  The sign is restored last (``-0`` and tiny negatives stay
``-0``).  A tile holding ``|x| >= 65520`` (which overflows to infinity),
an infinity or a NaN goes through numpy's own cast, so overflow and NaN
payloads stay exact.
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
from repro.compression.kernels import TILE_ELEMENTS, LazyTransmitted, RoundWorkspace
from repro.compression.spec import Param, register
from repro.simulator.gpu import Precision

_SIGN = np.uint32(0x80000000)
_MAGNITUDE = np.uint32(0x7FFFFFFF)
_EXPONENT = np.uint32(0x7F800000)
#: The float32 bits of 65520: every magnitude at or above rounds to
#: infinity in float16, and infinities and NaNs lie above it too.
_OVERFLOW_BITS = np.uint32(0x477FF000)
#: The exponent field of 2^-14, the smallest float16 normal, as a read-only
#: tile: numpy's ``maximum`` runs several times faster against an array than
#: against a broadcast scalar.
_MIN_NORMAL_EXPONENT = np.full(TILE_ELEMENTS, (127 - 14) << 23, dtype=np.uint32)
_MIN_NORMAL_EXPONENT.flags.writeable = False
#: Thirteen binades: the float32 ulp at 2^(e+13) is the float16 ulp at 2^e.
_MAGIC_OFFSET = np.uint32(13 << 23)


def _round_tile_to_fp16(
    source_bits: np.ndarray, tile: np.ndarray, sign: np.ndarray, magic: np.ndarray
) -> None:
    """Write ``source_bits`` (float32 bits) into ``tile``, rounded to FP16.

    ``source_bits`` may be ``tile``'s own ``uint32`` view; ``sign`` and
    ``magic`` are ``uint32`` scratch of the tile's size.
    """
    bits = tile.view(np.uint32)
    np.bitwise_and(source_bits, _SIGN, out=sign)
    np.bitwise_and(source_bits, _MAGNITUDE, out=bits)
    if bits.max() >= _OVERFLOW_BITS:
        np.bitwise_or(bits, sign, out=bits)
        with np.errstate(over="ignore"):
            np.copyto(tile, tile.astype(np.float16), casting="unsafe")
        return
    np.bitwise_and(bits, _EXPONENT, out=magic)
    np.maximum(magic, _MIN_NORMAL_EXPONENT[: magic.size], out=magic)
    magic += _MAGIC_OFFSET
    addend = magic.view(np.float32)
    tile += addend
    tile -= addend
    np.bitwise_or(bits, sign, out=bits)


def gather_fp16_rows(
    rows: "np.ndarray | list[np.ndarray]",
    out: np.ndarray,
    *,
    workspace: RoundWorkspace,
    label: str,
) -> np.ndarray:
    """Copy worker rows into the float32 matrix ``out``, rounded to FP16.

    Bit for bit ``rows`` cast to float32, then to float16 and back.  Each
    row runs in tiles of :data:`TILE_ELEMENTS`: a float32 row tile is read
    straight from its bits, any other dtype is cast into ``out`` first, and
    the tile is rounded while it is in cache.  ``rows`` is only read,
    unless it is ``out`` itself: a float32 matrix rounds in place.
    """
    width = out.shape[1]
    tile = max(1, min(TILE_ELEMENTS, width))
    sign = workspace.buf(f"{label}.sign", (tile,), np.uint32)
    magic = workspace.buf(f"{label}.magic", (tile,), np.uint32)
    for index in range(out.shape[0]):
        row = rows[index]
        for start in range(0, width, tile):
            stop = min(start + tile, width)
            destination = out[index, start:stop]
            source = row[start:stop]
            if source.dtype == np.float32:
                source_bits = source.view(np.uint32)
            else:
                np.copyto(destination, source, casting="unsafe")
                source_bits = destination.view(np.uint32)
            size = stop - start
            _round_tile_to_fp16(source_bits, destination, sign[:size], magic[:size])
    return out


@register(
    "baseline",
    params=(
        Param("p", Precision, "wire_precision", domain=(Precision.FP16, Precision.FP32)),
    ),
    description="Uncompressed ring all-reduce at FP16 or FP32 wire precision",
)
class PrecisionBaseline(AggregationScheme):
    """All-reduce the raw gradients at a given wire precision.

    Args:
        wire_precision: Precision of the values on the wire (FP16 or FP32).
    """

    def __init__(self, wire_precision: Precision = Precision.FP16):
        self.wire_precision = wire_precision
        PrecisionBaseline._spec_family.check(self)
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
        """One float32 matrix fold over the held rows' wire."""
        held = ctx.local_ranks
        workspace = ctx.workspace
        wire = workspace.buf("baseline.wire", (len(held), d), np.float32)
        fp16 = self.wire_precision is Precision.FP16
        if fp16:
            gather_fp16_rows(rows, wire, workspace=workspace, label="baseline")
        else:
            self._gather_rows(rows, wire)

        aggregate = ctx.backend.allreduce_matrix(
            wire, wire_bits_per_value=self.wire_precision.bits, op=MeanOp()
        )
        mean = np.asarray(aggregate, dtype=np.float32)
        # The FP16 report reads the workspace wire (copied only if a later
        # round asks for the buffer while the report is still unread).
        transmitted = (
            LazyTransmitted(len(held), np.array, borrowed=wire, workspace=workspace)
            if fp16
            else None
        )
        return AggregationResult(
            mean_estimate=mean,
            bits_per_coordinate=float(self.wire_precision.bits),
            per_worker_transmitted=transmitted,
        )
