"""Kernel primitives of the compression hot path.

Every aggregation scheme stacks the ``n_workers`` gradients into one
``(n, d)`` float32 matrix and runs each kernel (Hadamard rotation,
quantization, residual updates, saturating folds) as one fused array pass
over all workers.  The same code runs in the monolithic simulator and on
every rank of the real-tensor bridge (:mod:`repro.bridge`).

This module holds the shared building blocks:

* :class:`RoundWorkspace` -- a per-context buffer cache so steady-state
  rounds reuse their arrays instead of reallocating them;
* :func:`fwht_rows` -- the randomized-Hadamard butterfly network expressed
  as a chain of small dense Hadamard matmuls (a Kronecker factorization of
  ``H_{2^depth}``), which runs at BLAS speed instead of ``depth`` strided
  element passes, one block of rows at a time through block-sized scratch;
* :func:`round_stochastically` -- the one stochastic-rounding kernel of the
  integer quantizers (THC, QSGD), walking the worker matrix in cache-sized
  tiles instead of streaming whole-matrix temporaries;
* :func:`cached_signs` -- the shared random sign diagonals, generated once
  per (seed, size) instead of once per worker per round;
* :class:`LazyTransmitted` -- a deferred ``per_worker_transmitted`` report
  that skips the per-worker decompression entirely unless someone (error
  feedback, the property suite) actually reads it.

A kernel touches each ``(n, d)`` worker matrix as few times as its
arithmetic needs: per-element work that follows a gather or precedes a cast
runs tile by tile on cache-resident scratch, so the only full-size buffers
are the ones a scheme's arithmetic needs whole (a wire matrix, a transform's
output, integer levels).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Sequence

import numpy as np


class RoundWorkspace:
    """A cache of preallocated arrays keyed by (label, shape, dtype).

    Schemes request their scratch buffers through :meth:`buf`; the first
    round allocates, every later round of the same shape reuses the same
    memory, so the steady state of a training loop allocates nothing on the
    hot path.  Buffers are returned *uninitialized* (whatever the previous
    round left in them) -- callers must fully overwrite what they read.

    A workspace belongs to one :class:`~repro.compression.base.SimContext`
    and is not thread-safe; concurrent sweep points each build their own
    context (and therefore their own workspace).
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def buf(self, label: str, shape: tuple[int, ...], dtype: np.dtype | type) -> np.ndarray:
        """An uninitialized reusable array of the given shape and dtype."""
        key = (label, tuple(shape), np.dtype(dtype).str)
        found = self._buffers.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        fresh = np.empty(shape, dtype=dtype)
        self._buffers[key] = fresh
        return fresh

    def clear(self) -> None:
        """Drop every cached buffer (e.g. between differently sized phases)."""
        self._buffers.clear()

    @property
    def num_buffers(self) -> int:
        """How many distinct buffers the workspace currently holds."""
        return len(self._buffers)

    def allocated_bytes(self) -> int:
        """Total bytes held by the workspace."""
        return sum(buffer.nbytes for buffer in self._buffers.values())


#: Elements per tile of the kernels' cache-blocked passes: the
#: stochastic rounding tiles, the row blocks of :func:`fwht_rows` and the
#: chunk-norm tiles of TopKC (256 KiB of float32, a few L2-resident buffers).
TILE_ELEMENTS = 1 << 16


# --------------------------------------------------------------------------- #
# Shared random sign diagonals
# --------------------------------------------------------------------------- #
_SIGNS_LOCK = threading.Lock()
_SIGNS_CACHE: dict[tuple[int, int, str], np.ndarray] = {}
_SIGNS_CACHE_MAX = 16


def cached_signs(
    seed: int,
    padded_size: int,
    # The float64 default is the dtype of HadamardRotation's reference
    # transform; the kernels always pass float32 explicitly.
    dtype: np.dtype | type = np.float64,  # reprolint: disable=RPL002 - reference transform dtype
) -> np.ndarray:
    """The +/-1 sign diagonal of a seeded rotation, cached and read-only.

    Bit-identical to a per-call generation
    (``default_rng(seed).integers(0, 2, size) * 2 - 1``): the values are
    exactly +/-1, so the requested dtype never changes them.  Regenerating
    this vector once per worker per round would cost, at 16 workers and a
    million coordinates, dozens of PCG streams per round for the same
    constant.
    """
    key = (seed, padded_size, np.dtype(dtype).str)
    with _SIGNS_LOCK:
        found = _SIGNS_CACHE.get(key)
    if found is not None:
        return found
    rng = np.random.default_rng(seed)
    signs = (rng.integers(0, 2, size=padded_size) * 2 - 1).astype(dtype)
    signs.flags.writeable = False
    with _SIGNS_LOCK:
        if len(_SIGNS_CACHE) >= _SIGNS_CACHE_MAX:
            _SIGNS_CACHE.pop(next(iter(_SIGNS_CACHE)))
        _SIGNS_CACHE[key] = signs
    return signs


# --------------------------------------------------------------------------- #
# Fast Walsh-Hadamard transform as a Kronecker chain of dense matmuls
# --------------------------------------------------------------------------- #
_HADAMARD_LOCK = threading.Lock()
_HADAMARD_CACHE: dict[int, np.ndarray] = {}

#: Largest factor (in bits) of the Kronecker decomposition: the dense
#: Hadamard blocks are at most 2^5 x 2^5, small enough that each matmul stage
#: stays BLAS-friendly while the whole transform needs at most ceil(depth/5)
#: passes over the matrix instead of ``depth`` strided butterfly passes.
_MAX_FACTOR_BITS = 5


def hadamard_matrix(bits: int) -> np.ndarray:
    """The (unnormalized, +/-1) Sylvester Hadamard matrix ``H_{2^bits}``."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    with _HADAMARD_LOCK:
        found = _HADAMARD_CACHE.get(bits)
    if found is not None:
        return found
    h = np.array([[1.0]], dtype=np.float32)
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h = np.ascontiguousarray(h, dtype=np.float32)
    h.flags.writeable = False
    with _HADAMARD_LOCK:
        _HADAMARD_CACHE[bits] = h
    return h


def factorize_depth(depth: int, max_bits: int = _MAX_FACTOR_BITS) -> list[int]:
    """Split a transform depth into near-even factors of at most ``max_bits``.

    ``H_{2^depth}`` is the Kronecker product of the returned factors'
    Hadamard matrices, applied axis by axis.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth == 0:
        return []
    num_factors = -(-depth // max_bits)
    base, extra = divmod(depth, num_factors)
    return [base + 1] * extra + [base] * (num_factors - extra)


def fwht_rows(
    matrix: np.ndarray,
    depth: int,
    *,
    workspace: RoundWorkspace | None = None,
    label: str = "fwht",
) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of every ``2^depth`` chunk.

    Each row of ``matrix`` is partitioned into contiguous chunks of
    ``2^depth`` elements (the row length must be a multiple of that) and each
    chunk is transformed independently -- exactly the semantics of ``depth``
    butterfly passes, i.e. of the paper's partial rotation.  The transform is
    *unnormalized*: the result is ``2^(depth/2)`` times the orthonormal
    transform, callers fold the normalization into their scale factors (one
    multiply instead of one per butterfly pass).

    The transform is computed as a chain of dense Hadamard matmuls over a
    Kronecker factorization of ``H_{2^depth}``, which runs at BLAS speed.
    The chain runs one block of rows at a time -- one row when a row holds
    :data:`TILE_ELEMENTS` or more, else as many rows as fit in that many
    elements: its intermediate stages ping-pong between two block-sized
    scratch buffers that stay in cache, and only the last stage writes into
    the full-size output, so the transform streams the matrix once in and
    once out.  Returns the output (a workspace buffer when a workspace is
    given); ``matrix`` is never modified, and never aliased by the result
    unless ``depth == 0``.
    """
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D (rows of chunks)")
    if depth == 0:
        return matrix
    chunk = 1 << depth
    num_rows, row_length = matrix.shape
    if row_length % chunk:
        raise ValueError(
            f"row length {row_length} is not a multiple of the chunk size {chunk}"
        )
    factors = factorize_depth(depth)

    def scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if workspace is None:
            return np.empty(shape, dtype=np.float32)
        return workspace.buf(f"{label}.{name}", shape, np.float32)

    out = scratch("out", matrix.shape)
    block_rows = min(num_rows, max(1, TILE_ELEMENTS // row_length))
    blocks = [scratch(f"block{i}", (block_rows * row_length,)) for i in range(2)]
    for first in range(0, num_rows, block_rows):
        rows = slice(first, min(first + block_rows, num_rows))
        source = matrix[rows]
        size = source.size
        trailing = chunk
        for stage, bits in enumerate(factors):
            factor = 1 << bits
            trailing //= factor
            h = hadamard_matrix(bits)
            last = stage == len(factors) - 1
            destination = out[rows] if last else blocks[stage & 1][:size]
            if trailing == 1:
                # Contract the last axis: (blocks*lead, factor) @ H.
                np.matmul(
                    source.reshape(-1, factor),
                    h,
                    out=destination.reshape(-1, factor),
                )
            else:
                # Contract a middle axis: H @ (lead, factor, trailing).
                np.matmul(
                    h,
                    source.reshape(-1, factor, trailing),
                    out=destination.reshape(-1, factor, trailing),
                )
            source = destination
    return out


def fwht_normalization(depth: int) -> float:
    """The ``2^(-depth/2)`` factor turning :func:`fwht_rows` orthonormal."""
    return float(2.0 ** (-depth / 2.0))


# --------------------------------------------------------------------------- #
# Tiled stochastic rounding
# --------------------------------------------------------------------------- #
def round_stochastically(
    rows: "np.ndarray | Sequence[np.ndarray]",
    levels: np.ndarray,
    rng: np.random.Generator,
    max_level: float,
    *,
    scale: np.float32 | None = None,
    workspace: RoundWorkspace,
    label: str,
) -> None:
    """Stochastically round ``clip(rows * scale)`` onto integer ``levels``.

    Each value ``v`` (scaled by ``scale`` when given, then clipped to
    ``[-max_level, max_level]``) becomes ``floor(v) + (u < v - floor(v))``
    for a float32 uniform ``u``.  The copy, scale, clip and rounding run in
    float32 on tiles of :data:`TILE_ELEMENTS` consecutive elements of the
    C-order ``(n, d)`` matrix (a tile of short rows spans several), so the
    scratch is four tile buffers rather than whole-matrix temporaries, and
    ``rows`` (a matrix or a sequence of equal-length rows) is only read.
    The uniforms are drawn tile after tile -- the same stream, and the same
    rng state afterwards, as one draw over the whole matrix.

    No clip follows the rounding: ``floor(v)`` of a clipped ``v`` already
    lies in range, and ``v`` rounds up only when it is not an integer, so
    below ``max_level``.
    """
    width = levels.shape[1]
    flat_levels = levels.reshape(-1)
    tile = min(TILE_ELEMENTS, flat_levels.size)
    values = workspace.buf(f"{label}.values", (tile,), np.float32)
    floors = workspace.buf(f"{label}.floor", (tile,), np.float32)
    uniforms = workspace.buf(f"{label}.uniform", (tile,), np.float32)
    round_up = workspace.buf(f"{label}.round_up", (tile,), np.bool_)
    for start in range(0, flat_levels.size, tile):
        size = min(tile, flat_levels.size - start)
        value, floor = values[:size], floors[:size]
        uniform, up = uniforms[:size], round_up[:size]
        filled = 0
        row, column = divmod(start, width)
        while filled < size:
            take = min(width - column, size - filled)
            np.copyto(
                value[filled : filled + take],
                rows[row][column : column + take],
                casting="unsafe",
            )
            filled += take
            row, column = row + 1, 0
        if scale is not None:
            value *= scale
        np.clip(value, -max_level, max_level, out=value)
        np.floor(value, out=floor)
        value -= floor
        rng.random(out=uniform, dtype=np.float32)
        np.less(uniform, value, out=up)
        np.add(floor, up, out=floor)
        np.copyto(flat_levels[start : start + size], floor, casting="unsafe")


# --------------------------------------------------------------------------- #
# Integer payload dtype selection
# --------------------------------------------------------------------------- #
def smallest_int_dtype(max_abs_value: int) -> np.dtype:
    """The narrowest signed integer dtype holding ``+/- max_abs_value``.

    Used to pick the wire buffer dtype of quantized payloads: the saturating
    fold adds two in-range values before clipping, so callers pass the
    *intermediate* bound (e.g. ``2 * (2^(b-1) - 1)`` for saturation mode).
    """
    if max_abs_value < 0:
        raise ValueError("max_abs_value must be non-negative")
    for dtype in (np.int8, np.int16, np.int32):
        if max_abs_value <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


# --------------------------------------------------------------------------- #
# Deferred per-worker transmitted reports
# --------------------------------------------------------------------------- #
class LazyTransmitted(Sequence):
    """A ``per_worker_transmitted`` report materialized on first access.

    A scheme defers the per-worker decompression (for THC: one
    more inverse rotation over the whole worker matrix) until someone
    actually consumes the report -- error feedback, the equivalence suite, or
    user code.  Plain aggregation rounds never pay for it.

    The factory must return the stacked ``(n, d)`` float32 matrix of
    transmitted contributions; it must capture copies of whatever state it
    needs (workspace buffers may be overwritten by later rounds).
    """

    def __init__(self, num_workers: int, factory: Callable[[], np.ndarray]):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._num_workers = num_workers
        self._factory: Callable[[], np.ndarray] | None = factory
        self._matrix: np.ndarray | None = None

    @property
    def materialized(self) -> bool:
        """Whether the report has been computed yet."""
        return self._matrix is not None

    def matrix(self) -> np.ndarray:
        """The stacked ``(n, d)`` transmitted matrix (computing it if needed)."""
        if self._matrix is None:
            assert self._factory is not None
            matrix = np.asarray(self._factory())
            if matrix.ndim != 2 or matrix.shape[0] != self._num_workers:
                raise ValueError(
                    "transmitted factory must return an (n_workers, d) matrix"
                )
            self._matrix = matrix
            self._factory = None
        return self._matrix

    def __len__(self) -> int:
        return self._num_workers

    def __getitem__(self, index):
        return self.matrix()[index]

    def __iter__(self) -> Iterator[np.ndarray]:
        matrix = self.matrix()
        return iter(matrix[i] for i in range(self._num_workers))

    def __repr__(self) -> str:
        state = "materialized" if self.materialized else "deferred"
        return f"LazyTransmitted(num_workers={self._num_workers}, {state})"
