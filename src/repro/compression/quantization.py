"""Stochastic uniform quantization: the grid of the integer quantizers.

The quantizer maps floating-point values onto a small signed integer grid.
Stochastic rounding (round up or down with probability proportional to the
distance to each neighbour) makes the quantizer unbiased -- the expectation of
the dequantized value equals the input -- which is the property distributed
mean estimation schemes such as THC rely on.  The rounding itself runs over
the whole worker matrix in
:func:`~repro.compression.kernels.round_stochastically`; this class describes
the grid (``q`` bits, its largest level) and its error bound.
"""

from __future__ import annotations


class StochasticQuantizer:
    """Symmetric stochastic quantizer onto ``q``-bit signed integers.

    Values are scaled so that a value range maps to the largest level, then
    stochastically rounded.  Values beyond the range (possible when a shared
    range is agreed across workers) are clipped to the extreme levels.

    Args:
        bits: Integer width ``q`` (at least 2: one sign bit plus magnitude).
    """

    def __init__(self, bits: int):
        if bits < 2:
            raise ValueError("stochastic quantization needs at least 2 bits")
        self.bits = bits

    @property
    def max_level(self) -> int:
        """Largest representable level magnitude."""
        return (1 << (self.bits - 1)) - 1

    def expected_squared_error(self, value_range: float, num_coordinates: int) -> float:
        """Upper bound on the expected squared rounding error of one vector.

        Stochastic rounding on a grid of step ``s`` has per-coordinate
        variance at most ``s^2 / 4``.
        """
        if value_range < 0 or num_coordinates < 0:
            raise ValueError("arguments must be non-negative")
        scale = value_range / self.max_level
        return num_coordinates * scale * scale / 4.0
