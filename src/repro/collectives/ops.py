"""Reduction operators applied at intermediate hops of a collective.

A standard all-reduce sums FP32/FP16 values.  The paper's THC adaptation
replaces the sum with a *saturating* integer addition (``Sat`` in the paper,
section 3.2.2) so that partially aggregated q-bit integers never overflow the
b-bit wire format.  Modelling the operator explicitly, and applying it hop by
hop, is what lets the simulation reproduce the error behaviour of
saturation-based aggregation.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass

import numpy as np


@functools.lru_cache(maxsize=64)
def _clip_limits(limit: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """``-limit`` and ``limit`` as 0-d arrays of the accumulator's dtype.

    Clipping with Python-int bounds resolves their dtype on every call,
    which costs more than clipping a ring block of a few thousand elements;
    bounds already in the accumulator's dtype clip to the same values.
    """
    bounds = np.array(-limit, dtype=dtype), np.array(limit, dtype=dtype)
    for bound in bounds:
        bound.flags.writeable = False
    return bounds


class ReduceOp(abc.ABC):
    """A binary, elementwise reduction operator used inside collectives."""

    #: Whether (a op b) op c == a op (b op c) holds exactly; non-associative
    #: operators (saturating sums) make the aggregation order significant.
    associative: bool = True

    @abc.abstractmethod
    def combine(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        """Combine a partial aggregate with one worker's contribution."""

    def combine_into(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        """In-place combine used by the matrix folds.

        Semantically identical to :meth:`combine` but writes the result into
        ``accumulator`` without allocating.  The caller guarantees the
        accumulator dtype can represent every intermediate value (the integer
        quantizers pick their wire dtype with headroom via
        :func:`repro.compression.kernels.smallest_int_dtype`).
        """
        result = self.combine(accumulator, incoming)
        np.copyto(accumulator, result, casting="unsafe")
        return accumulator

    def identity_like(self, vector: np.ndarray) -> np.ndarray:
        """The identity element for this operator, shaped like ``vector``."""
        return np.zeros_like(vector)

    def finalize(self, accumulator: np.ndarray, world_size: int) -> np.ndarray:
        """Post-process the full aggregate (e.g. divide by n for a mean)."""
        del world_size
        return accumulator


@dataclass(frozen=True)
class SumOp(ReduceOp):
    """Plain elementwise summation (the default all-reduce operator)."""

    def combine(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        return accumulator + incoming

    def combine_into(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        np.add(accumulator, incoming, out=accumulator)
        return accumulator


@dataclass(frozen=True)
class MeanOp(ReduceOp):
    """Summation followed by division by the number of workers."""

    def combine(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        return accumulator + incoming

    def combine_into(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        np.add(accumulator, incoming, out=accumulator)
        return accumulator

    def finalize(self, accumulator: np.ndarray, world_size: int) -> np.ndarray:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        return accumulator / float(world_size)


@dataclass(frozen=True)
class MaxOp(ReduceOp):
    """Elementwise maximum (used e.g. for agreeing on scaling factors)."""

    def combine(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        return np.maximum(accumulator, incoming)

    def combine_into(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        np.maximum(accumulator, incoming, out=accumulator)
        return accumulator

    def identity_like(self, vector: np.ndarray) -> np.ndarray:
        return np.full_like(vector, -np.inf)


@dataclass(frozen=True)
class SaturatingSumOp(ReduceOp):
    """Saturating integer addition: ``Sat(x, y) = clip(x + y, -(2^(b-1)-1), 2^(b-1)-1)``.

    This is the paper's overflow-free aggregation operator for b-bit signed
    integer payloads.  It is applied at every intermediate hop, so the order
    of aggregation matters (the operator is not associative once values
    saturate), which the ring/tree simulations honour.

    Attributes:
        bits: Wire width b of each aggregated integer.
    """

    bits: int
    associative: bool = False

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise ValueError("saturating sum needs at least 2 bits (sign + magnitude)")

    @property
    def max_value(self) -> int:
        """Largest representable magnitude, 2^(b-1) - 1."""
        return (1 << (self.bits - 1)) - 1

    def combine(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        total = accumulator.astype(np.int64) + incoming.astype(np.int64)
        limit = self.max_value
        return np.clip(total, -limit, limit)

    def combine_into(self, accumulator: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        # Exact as long as the accumulator dtype holds 2 * max_value (both
        # operands are already clipped); the quantizers size their integer
        # wire buffers accordingly.
        lower, upper = _clip_limits(self.max_value, accumulator.dtype)
        np.add(accumulator, incoming, out=accumulator)
        accumulator.clip(lower, upper, out=accumulator)
        return accumulator

    def saturation_fraction(self, aggregate: np.ndarray) -> float:
        """Fraction of coordinates pinned at the saturation limit."""
        if aggregate.size == 0:
            return 0.0
        limit = self.max_value
        saturated = np.count_nonzero(np.abs(aggregate) >= limit)
        return saturated / aggregate.size
