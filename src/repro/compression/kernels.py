"""Kernel primitives of the compression hot path.

Every aggregation scheme stacks the gradients its caller holds into one
float32 matrix -- all ``n`` workers' in the monolithic simulator, its own
row on a rank of the real-tensor bridge (:mod:`repro.bridge`) -- and runs
each kernel (Hadamard rotation, quantization, residual updates, saturating
folds) as one fused array pass over those rows.

This module holds the shared building blocks:

* :class:`RoundWorkspace` -- a per-context buffer cache so steady-state
  rounds reuse their arrays instead of reallocating them;
* :func:`fwht_rows` -- the randomized-Hadamard butterfly network expressed
  as a chain of small dense Hadamard matmuls (a Kronecker factorization of
  ``H_{2^depth}``), which runs at BLAS speed instead of ``depth`` strided
  element passes, one block of rows at a time through block-sized scratch:
  each block is gathered (cast, sign-multiplied, zero-padded) on entry and
  its per-chunk ranges are taken as it leaves;
* :func:`round_stochastically` -- the one stochastic-rounding kernel of the
  integer quantizers (THC, QSGD), walking the held rows in cache-sized
  tiles instead of streaming whole-matrix temporaries.  Its float32
  uniforms are numpy's own (``rng.random(dtype=np.float32)`` is
  ``next_uint32 >> 8`` times 2^-24), the held rows' share of one draw over
  all ``n`` rows: built from raw PCG64 words (other rows' words skipped
  with ``advance``) when the generator is a ``PCG64`` on a little-endian
  host, drawn through ``rng.random`` otherwise -- the same values and the
  same rng state either way;
* :func:`cached_signs` -- the shared random sign diagonals, generated once
  per (seed, size) instead of once per worker per round;
* :class:`LazyTransmitted` -- a deferred ``per_worker_transmitted`` report
  that skips the per-worker decompression entirely unless someone (error
  feedback, the property suite) actually reads it, and reads its round's
  workspace buffer in place until a later round asks for that buffer.

A kernel touches each ``(n, d)`` worker matrix as few times as its
arithmetic needs: per-element work that follows a gather or precedes a cast
runs tile by tile (or row block by row block) on cache-resident scratch, so
the only full-size buffers are the ones a collective or a scheme's
arithmetic needs whole (FP16 values for the fold, a transform's output,
integer levels).  Signs are applied and ranges taken inside the transform's
row blocks, so no signed copy of the rows is ever written.
"""

from __future__ import annotations

import sys
import threading
import weakref
from typing import Callable, Iterator, Sequence

import numpy as np


class RoundWorkspace:
    """A cache of preallocated arrays keyed by (label, shape, dtype).

    Schemes request their scratch buffers through :meth:`buf`; the first
    round allocates, every later round of the same shape reuses the same
    memory, so the steady state of a training loop allocates nothing on the
    hot path.  Buffers are returned *uninitialized* (whatever the previous
    round left in them) -- callers must fully overwrite what they read.

    A deferred report may keep reading a buffer after its round
    (:meth:`lend`).  Before :meth:`buf` hands that buffer out again, a
    report that is still alive and not yet materialized takes a private copy
    of it: copy on reuse, so a round whose result is dropped before the next
    one (every vNMSE round) never copies.

    A workspace belongs to one :class:`~repro.compression.base.SimContext`
    and is not thread-safe; concurrent sweep points each build their own
    context (and therefore their own workspace).
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self._borrowers: dict[tuple, weakref.ref] = {}
        self.hits = 0
        self.misses = 0

    def buf(self, label: str, shape: tuple[int, ...], dtype: np.dtype | type) -> np.ndarray:
        """An uninitialized reusable array of the given shape and dtype."""
        key = (label, tuple(shape), np.dtype(dtype).str)
        found = self._buffers.get(key)
        if found is not None:
            self.hits += 1
            borrower = self._borrowers.pop(key, None)
            report = borrower() if borrower is not None else None
            if report is not None and not report.materialized:
                report.detach()
            return found
        self.misses += 1
        fresh = np.empty(shape, dtype=dtype)
        self._buffers[key] = fresh
        return fresh

    def lend(self, buffer: np.ndarray, report: "LazyTransmitted") -> None:
        """Let ``report`` read ``buffer`` until the buffer is handed out again."""
        for key, held in self._buffers.items():
            if held is buffer:
                self._borrowers[key] = weakref.ref(report)
                return
        raise ValueError("the buffer was not handed out by this workspace")

    def clear(self) -> None:
        """Drop every cached buffer (e.g. between differently sized phases)."""
        self._buffers.clear()
        self._borrowers.clear()

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
    rows: "np.ndarray | Sequence[np.ndarray]",
    depth: int,
    *,
    signs: np.ndarray | None = None,
    length: int | None = None,
    ranges: np.ndarray | None = None,
    workspace: RoundWorkspace | None = None,
    label: str = "fwht",
) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of every ``2^depth`` chunk.

    ``rows`` (a matrix or a sequence of equal-length rows, of any float
    dtype) are gathered into float32 rows of ``length`` elements (by
    default their own length), times the ``signs`` diagonal when one is
    given, zero-padded: the padded tail holds ``0 * signs``, as a padded
    row times the signs would.  Each row is then partitioned into
    contiguous chunks of ``2^depth`` elements (``length`` must be a multiple
    of that) and each chunk is transformed independently -- exactly the
    semantics of ``depth`` butterfly passes, i.e. of the paper's partial
    rotation.  The transform is *unnormalized*: the result is
    ``2^(depth/2)`` times the orthonormal transform, callers fold the
    normalization into their scale factors (one multiply instead of one per
    butterfly pass).

    The transform is computed as a chain of dense Hadamard matmuls over a
    Kronecker factorization of ``H_{2^depth}``, which runs at BLAS speed.
    The chain runs one block of rows at a time -- one row when a row holds
    :data:`TILE_ELEMENTS` or more, else as many rows as fit in that many
    elements.  The block is gathered (cast, signed and padded) into the
    first of two block-sized scratch buffers, its intermediate stages
    ping-pong between the two, and only the last stage writes into the
    full-size output, so the transform reads the rows once and writes the
    output once.  At ``depth == 0`` the rows are only gathered, straight
    into the output.

    ``ranges``, an ``(m, c)`` array, receives ``max(max, -min)`` of each
    of the ``c`` equal chunks of every output row, taken from each block
    right after its last stage wrote it.

    Returns the output (a workspace buffer when a workspace is given);
    ``rows`` are never modified, and never aliased by the result unless
    ``depth == 0`` and they are already a float32 matrix of ``length``
    columns with no signs to apply, which is returned as is.
    """
    if isinstance(rows, np.ndarray) and rows.ndim != 2:
        raise ValueError("rows must be 2-D (rows of chunks)")
    num_rows = len(rows)
    width = len(rows[0])
    length = width if length is None else length
    chunk = 1 << depth
    if length % chunk:
        raise ValueError(
            f"row length {length} is not a multiple of the chunk size {chunk}"
        )
    if width > length:
        raise ValueError(f"rows of {width} elements do not fit in {length}")
    factors = factorize_depth(depth)

    def scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if workspace is None:
            return np.empty(shape, dtype=np.float32)
        return workspace.buf(f"{label}.{name}", shape, np.float32)

    as_is = (
        not factors
        and signs is None
        and isinstance(rows, np.ndarray)
        and rows.dtype == np.float32
        and width == length
    )
    out = rows if as_is else scratch("out", (num_rows, length))
    block_rows = min(num_rows, max(1, TILE_ELEMENTS // length))
    blocks = [scratch(f"block{i}", (block_rows * length,)) for i in range(2 if factors else 0)]
    for first in range(0, num_rows, block_rows):
        stop = min(first + block_rows, num_rows)
        if not as_is:
            if factors:
                source = blocks[0][: (stop - first) * length].reshape(-1, length)
            else:
                source = out[first:stop]
            _gather_signed(rows, first, source, width, signs)
            trailing = chunk
            for stage, bits in enumerate(factors):
                factor = 1 << bits
                trailing //= factor
                h = hadamard_matrix(bits)
                if stage == len(factors) - 1:
                    destination = out[first:stop]
                else:
                    destination = blocks[(stage + 1) & 1][: source.size]
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
        if ranges is not None:
            chunked = out[first:stop].reshape(stop - first, ranges.shape[1], -1)
            np.maximum(chunked.max(axis=2), -chunked.min(axis=2), out=ranges[first:stop])
    return out


def _gather_signed(
    rows: "np.ndarray | Sequence[np.ndarray]",
    first: int,
    block: np.ndarray,
    width: int,
    signs: np.ndarray | None,
) -> None:
    """Write rows ``first, ...`` of ``rows`` into ``block``, cast, signed and padded.

    The rows are cast to float32 before the sign multiply, and the padded
    tail is ``0 * signs`` (a signed zero where a sign is -1), exactly what a
    float32 gather followed by a multiply of the padded rows would hold.
    """
    for offset in range(block.shape[0]):
        row, target = rows[first + offset], block[offset]
        if signs is None:
            np.copyto(target[:width], row, casting="unsafe")
            target[width:] = 0.0
        else:
            np.multiply(
                row, signs[:width], out=target[:width], dtype=np.float32, casting="unsafe"
            )
            np.multiply(0.0, signs[width:], out=target[width:])


def fwht_normalization(depth: int) -> float:
    """The ``2^(-depth/2)`` factor turning :func:`fwht_rows` orthonormal."""
    return float(2.0 ** (-depth / 2.0))


# --------------------------------------------------------------------------- #
# Tiled stochastic rounding
# --------------------------------------------------------------------------- #
#: numpy's float32 uniform is ``(next_uint32 >> 8) * 2^-24``.
_UNIFORM_SHIFT = np.uint32(8)
_UNIFORM_SCALE = np.float32(2.0**-24)

#: Whether ``random_raw``'s 64-bit words, viewed as ``uint32`` pairs, come
#: low half first -- the order in which PCG64's ``next_uint32`` hands them out.
_LITTLE_ENDIAN = sys.byteorder == "little"


class _UniformStream:
    """The uniforms of one ``rng.random(total, dtype=np.float32)``, from ``start`` on.

    The stream is the one a single draw of ``total`` float32 uniforms would
    give; :meth:`fill` hands out its uniforms from ``start`` on, in order,
    and :meth:`finish` skips the rest, leaving the generator exactly where
    that whole draw leaves it (``has_uint32`` and ``uinteger`` included).

    For a ``PCG64`` bit generator on a little-endian host numpy's float32
    draw is ``next_uint32 >> 8`` times 2^-24, and ``next_uint32`` hands out
    the low, then the high half of each 64-bit word.  So whole words inside
    the stream come from ``random_raw`` (viewed as ``uint32`` pairs) when
    they are wanted and are skipped with ``bit_generator.advance`` when they
    are not.  Neither touches the half word the generator buffers, so
    ``rng.random`` itself draws the rest: the buffered half on entry, a
    single uniform at an odd cut (which buffers the word's high half for the
    next uniform), and the stream's last word, after which the buffered-half
    fields are the whole draw's.  Any other generator (or host) draws every
    uniform through ``rng.random`` and discards the ones it skips.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        total: int,
        start: int,
        scratch: np.ndarray,
    ):
        self._rng = rng
        self._total = total
        self._scratch = scratch
        self._position = 0
        bit_generator = rng.bit_generator
        self._fast = _LITTLE_ENDIAN and type(bit_generator) is np.random.PCG64
        self._head = 0
        self._raw_stop = 0
        if self._fast:
            # Whole words run over [head, raw_stop): past the buffered half
            # word, up to the stream's last word.
            self._head = int(bit_generator.state["has_uint32"])
            words = -(-(total - self._head) // 2)
            self._raw_stop = self._head + 2 * max(words - 1, 0)
        self._walk(start)

    def fill(self, out: np.ndarray) -> None:
        """Fill ``out`` with the next ``out.size`` uniforms of the stream."""
        self._walk(out.size, out)

    def finish(self) -> None:
        """Skip the rest of the stream, leaving the whole draw's generator state."""
        self._walk(self._total - self._position)

    def _walk(self, count: int, out: np.ndarray | None = None) -> None:
        """Move ``count`` uniforms on, writing them to ``out`` when given."""
        first = self._position
        position, end = first, first + count
        while position < end:
            if (
                self._fast
                and self._head <= position < self._raw_stop
                and not (position - self._head) % 2
                and end - position >= 2
            ):
                words = (min(end, self._raw_stop) - position) // 2
                if out is None:
                    self._rng.bit_generator.advance(words)
                else:
                    halves = self._rng.bit_generator.random_raw(words).view(np.uint32)
                    np.right_shift(halves, _UNIFORM_SHIFT, out=halves)
                    target = out[position - first : position - first + 2 * words]
                    np.multiply(halves, _UNIFORM_SCALE, out=target, dtype=np.float32)
                position += 2 * words
                continue
            if self._fast and position < self._raw_stop:
                take = 1
            else:
                take = end - position
            if out is None:
                take = min(take, self._scratch.size)
                target = self._scratch[:take]
            else:
                target = out[position - first : position - first + take]
            self._rng.random(out=target, dtype=np.float32)
            position += take
        self._position = position


def _scale_chunks(
    value: np.ndarray, start: int, chunk_scales: np.ndarray, chunk: int
) -> None:
    """Scale the tile ``value`` at flat offset ``start`` by its chunks' factors."""
    if chunk < value.size:
        # The tile holds whole chunks (round_stochastically sizes it so).
        first = start // chunk
        shaped = value.reshape(-1, chunk)
        indices = np.arange(first, first + shaped.shape[0])
        np.multiply(shaped, chunk_scales.take(indices, mode="wrap")[:, None], out=shaped)
        return
    position, stop = start, start + value.size
    while position < stop:
        index = position // chunk
        end = min((index + 1) * chunk, stop)
        value[position - start : end - start] *= chunk_scales[index % chunk_scales.size]
        position = end


def round_stochastically(
    rows: "np.ndarray | Sequence[np.ndarray]",
    levels: np.ndarray,
    rng: np.random.Generator,
    max_level: float,
    *,
    scale: "np.float32 | np.ndarray | None" = None,
    workspace: RoundWorkspace,
    label: str,
    first_row: int = 0,
    stream_rows: int | None = None,
) -> None:
    """Stochastically round ``clip(rows * scale)`` onto integer ``levels``.

    Each value ``v`` (scaled by ``scale`` when given, then clipped to
    ``[-max_level, max_level]``) becomes ``floor(v) + (u < v - floor(v))``
    for a float32 uniform ``u``.  ``scale`` is one float32 factor, or a
    float32 vector of per-chunk factors that splits every row into
    ``scale.size`` equal chunks.  The copy, scale, clip and rounding run in
    float32 on tiles of :data:`TILE_ELEMENTS` consecutive elements of the
    C-order ``(n, d)`` matrix (a tile of short rows spans several), so the
    scratch is four tile buffers rather than whole-matrix temporaries, and
    ``rows`` (a matrix or a sequence of equal-length rows) is only read.

    ``rows`` and ``levels`` are rows ``[first_row, first_row + len(levels))``
    of a ``stream_rows``-row matrix (by default, the whole of it): a bridge
    rank rounds its own row of the world's.  The uniforms are drawn tile
    after tile, and are bit for bit those rows' share of one
    ``rng.random(stream_rows * width, dtype=np.float32)`` over the whole
    matrix, leaving the same ``bit_generator.state`` (``uinteger``
    included).  With a ``PCG64`` generator on a little-endian host they come
    from raw 64-bit words (``random_raw``, ``>> 8``, ``* 2^-24``), which
    skips numpy's per-element float draw, and the other rows' words are
    skipped with ``advance``; any other generator (``MT19937``, ``Philox``,
    ``PCG64DXSM``, ...) draws them all through ``rng.random`` (see
    :class:`_UniformStream`).

    The levels are ``floor(v)`` cast to the levels dtype plus the round-up
    bit, added in that dtype.  No clip follows the rounding: ``floor(v)`` of
    a clipped ``v`` already lies in range, and ``v`` rounds up only when it
    is not an integer, so below ``max_level``.
    """
    width = levels.shape[1]
    flat_levels = levels.reshape(-1)
    tile = min(TILE_ELEMENTS, flat_levels.size)
    chunk_scales = scale if isinstance(scale, np.ndarray) and scale.ndim == 1 else None
    if chunk_scales is not None:
        if width % chunk_scales.size:
            raise ValueError(
                f"row length {width} is not a multiple of {chunk_scales.size} chunks"
            )
        chunk = width // chunk_scales.size
        if chunk < tile:
            # Whole chunks per tile, so each tile scales a (chunks, chunk) view.
            tile -= tile % chunk
    values = workspace.buf(f"{label}.values", (tile,), np.float32)
    floors = workspace.buf(f"{label}.floor", (tile,), np.float32)
    uniforms = workspace.buf(f"{label}.uniform", (tile,), np.float32)
    round_up = workspace.buf(f"{label}.round_up", (tile,), np.bool_)
    if stream_rows is None:
        stream_rows = levels.shape[0]
    if not 0 <= first_row <= stream_rows - levels.shape[0]:
        raise ValueError(
            f"rows [{first_row}, {first_row + levels.shape[0]}) lie outside "
            f"a {stream_rows}-row stream"
        )
    stream = _UniformStream(rng, stream_rows * width, first_row * width, uniforms)
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
        if chunk_scales is not None:
            _scale_chunks(value, start, chunk_scales, chunk)
        elif scale is not None:
            value *= scale
        np.clip(value, -max_level, max_level, out=value)
        np.floor(value, out=floor)
        value -= floor
        stream.fill(uniform)
        np.less(uniform, value, out=up)
        level = flat_levels[start : start + size]
        np.copyto(level, floor, casting="unsafe")
        np.add(level, up, out=level)
    stream.finish()


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

    The factory must return a new stacked ``(n, d)`` float32 matrix of
    transmitted contributions.  A factory that reads a workspace buffer (the
    integer levels, the FP16 wire) takes it as its one argument: pass the
    buffer as ``borrowed`` together with its ``workspace``, and the report
    reads it in place until the workspace hands it out again, then from a
    private copy (:meth:`RoundWorkspace.lend`).  A factory without
    ``borrowed`` takes no argument and must capture copies of whatever state
    it needs.
    """

    def __init__(
        self,
        num_workers: int,
        factory: Callable[..., np.ndarray],
        *,
        borrowed: np.ndarray | None = None,
        workspace: RoundWorkspace | None = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if (borrowed is None) != (workspace is None):
            raise ValueError("a borrowed buffer needs the workspace that lent it")
        self._num_workers = num_workers
        self._factory: Callable[..., np.ndarray] | None = factory
        self._borrowed = borrowed
        self._matrix: np.ndarray | None = None
        if workspace is not None:
            workspace.lend(borrowed, self)

    @property
    def materialized(self) -> bool:
        """Whether the report has been computed yet."""
        return self._matrix is not None

    def detach(self) -> None:
        """Read a private copy of the borrowed buffer from now on."""
        if self._borrowed is not None:
            self._borrowed = np.array(self._borrowed, copy=True)

    def matrix(self) -> np.ndarray:
        """The stacked ``(n, d)`` transmitted matrix (computing it if needed)."""
        if self._matrix is None:
            assert self._factory is not None
            if self._borrowed is None:
                matrix = np.asarray(self._factory())
            else:
                matrix = np.asarray(self._factory(self._borrowed))
            if matrix.ndim != 2 or matrix.shape[0] != self._num_workers:
                raise ValueError(
                    "transmitted factory must return an (n_workers, d) matrix"
                )
            self._matrix = matrix
            self._factory = None
            self._borrowed = None
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
