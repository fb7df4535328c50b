"""Randomized Hadamard Transform (RHT) with full and partial rotation.

THC rotates the gradient with an RHT before quantizing: after multiplying by
a random diagonal of +/-1 signs and a Hadamard matrix, the coordinates of the
rotated vector are close to i.i.d. Gaussian, so the value range shrinks and
uniform quantization loses less information.

A full transform on a vector padded to ``2^l`` performs ``l`` butterfly
passes (O(d log d) work) and, for large ``d``, spills out of the GPU's shared
memory.  The paper's *partial rotation* (section 3.2.2) stops after
``l' <= l`` passes -- mathematically equivalent to splitting the vector into
``2^l'``-sized chunks and rotating each independently -- so the per-chunk
working set fits in shared memory and only one kernel is needed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.kernels import cached_signs


def padded_size_for(num_coordinates: int) -> int:
    """The next power-of-two length (at least 2) a vector is padded to."""
    if num_coordinates <= 0:
        raise ValueError("vector must be non-empty")
    if num_coordinates == 1:
        return 2
    return 1 << max(1, math.ceil(math.log2(num_coordinates)))


def pad_to_power_of_two(vector: np.ndarray, *, copy: bool = False) -> np.ndarray:
    """Zero-pad a vector to the next power-of-two length (at least 2).

    Dtype-preserving: the result has the input's dtype (the historical
    implementation silently promoted everything to float64 -- a 2x memory and
    bandwidth tax on float32 gradients).  When the length is already a power
    of two and ``copy`` is False, the input is returned as-is (no copy);
    callers that mutate the result must pass ``copy=True``.
    """
    if vector.ndim != 1:
        raise ValueError("vector must be 1-D")
    d = vector.size
    if d == 0:
        raise ValueError("vector must be non-empty")
    padded_size = padded_size_for(d)
    if padded_size == d:
        return np.array(vector, copy=True) if copy else vector
    out = np.zeros(padded_size, dtype=vector.dtype)
    out[:d] = vector
    return out


def full_depth(padded_size: int) -> int:
    """Number of butterfly passes of a full transform on ``padded_size`` values."""
    if padded_size < 2 or padded_size & (padded_size - 1):
        raise ValueError("padded_size must be a power of two >= 2")
    return int(math.log2(padded_size))


#: Butterfly strides below this run one strided 1-D column at a time: the
#: ``(blocks, 2, stride)`` view's inner loop would be only ``stride`` long.
COLUMN_STRIDE_LIMIT = 8

_SQRT2 = math.sqrt(2.0)


def _butterfly_passes(vector: np.ndarray, depth: int) -> np.ndarray:
    """Apply ``depth`` normalised Walsh-Hadamard butterfly passes in place.

    Pass ``i`` combines elements at stride ``2^i``; stopping after ``depth``
    passes is exactly the per-chunk transform of chunk size ``2^depth``.
    Each pass writes the sums and differences into two half-size scratch
    buffers and divides them back in place, so no pass allocates.  The
    division by ``sqrt(2)`` is kept (a multiply by its reciprocal rounds
    differently).
    """
    data = vector.reshape(-1)
    size = data.size
    if depth == 0:
        return data
    sums = np.empty(size // 2, dtype=data.dtype)
    differences = np.empty(size // 2, dtype=data.dtype)
    stride = 1
    for _ in range(depth):
        blocks = size // (2 * stride)
        shaped = data.reshape(blocks, 2, stride)
        if stride < COLUMN_STRIDE_LIMIT:
            pairs = [(shaped[:, 0, column], shaped[:, 1, column]) for column in range(stride)]
            total, difference = sums[:blocks], differences[:blocks]
        else:
            pairs = [(shaped[:, 0, :], shaped[:, 1, :])]
            total = sums.reshape(blocks, stride)
            difference = differences.reshape(blocks, stride)
        for upper, lower in pairs:
            np.add(upper, lower, out=total)
            np.subtract(upper, lower, out=difference)
            np.divide(total, _SQRT2, out=upper)
            np.divide(difference, _SQRT2, out=lower)
        stride *= 2
    return data


class HadamardRotation:
    """A seeded randomized Hadamard rotation of configurable depth.

    All workers construct the rotation with the same seed, so they apply the
    same random signs -- a requirement for aggregating rotated vectors.

    Args:
        seed: Seed of the random sign diagonal.
        depth: Number of butterfly passes; ``None`` means a full rotation.
    """

    def __init__(self, seed: int = 0, depth: int | None = None):
        if depth is not None and depth < 0:
            raise ValueError("depth must be non-negative")
        self.seed = seed
        self.depth = depth

    def _signs(self, padded_size: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, 2, size=padded_size).astype(np.float64) * 2.0 - 1.0

    def signs(self, padded_size: int, dtype: np.dtype | type = np.float64) -> np.ndarray:
        """The +/-1 sign diagonal, cached across rounds and workers.

        Value-identical to the per-call :meth:`_signs` generation (the signs
        are exactly +/-1 in any float dtype) but generated once per
        (seed, size) instead of once per worker per round.  The returned
        array is read-only.
        """
        return cached_signs(self.seed, padded_size, dtype)

    def effective_depth(self, padded_size: int) -> int:
        """The number of passes actually applied to a ``padded_size`` vector."""
        full = full_depth(padded_size)
        if self.depth is None:
            return full
        return min(self.depth, full)

    def chunk_elements(self, padded_size: int) -> int:
        """Size of the independently rotated chunks, ``2^depth``."""
        return 1 << self.effective_depth(padded_size)

    def forward(self, vector: np.ndarray) -> tuple[np.ndarray, int]:
        """Rotate ``vector``; returns (rotated padded vector, original length).

        The reference (legacy) path computes in float64 regardless of the
        input dtype -- it serves as the correctness oracle the batched
        float32 kernels are verified against.
        """
        original_size = vector.size
        padded = pad_to_power_of_two(vector).astype(np.float64)
        padded *= self.signs(padded.size)
        rotated = _butterfly_passes(padded, self.effective_depth(padded.size))
        return rotated, original_size

    def inverse(self, rotated: np.ndarray, original_size: int) -> np.ndarray:
        """Invert the rotation and drop the padding.

        The normalised butterfly is its own inverse; the sign diagonal is
        applied after undoing the butterflies.
        """
        if original_size < 0 or original_size > rotated.size:
            raise ValueError("original_size out of range")
        unrotated = _butterfly_passes(
            np.array(rotated, dtype=np.float64, copy=True),
            self.effective_depth(rotated.size),
        )
        unrotated *= self.signs(rotated.size)
        return unrotated[:original_size]


def depth_for_shared_memory(shared_memory_bytes: int, bytes_per_value: int = 4) -> int:
    """Largest rotation depth whose ``2^depth`` working set fits in shared memory.

    This is the paper's rule for choosing the partial-rotation depth ``l'``.
    """
    if shared_memory_bytes <= 0:
        raise ValueError("shared_memory_bytes must be positive")
    if bytes_per_value <= 0:
        raise ValueError("bytes_per_value must be positive")
    max_values = shared_memory_bytes // bytes_per_value
    if max_values < 2:
        return 0
    return int(math.floor(math.log2(max_values)))
