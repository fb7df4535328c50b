"""Bit-exact wire codecs: collective payloads as real bytes.

The simulator prices every collective at a declared *wire width* -- 16 bits
for an FP16 payload, ``q`` bits for q-bit quantization levels, 32 bits for a
norm scalar.  This module is where those declarations stop being bookkeeping
and become actual encodings:

* a 16-bit width encodes IEEE float16;
* a 32-bit width encodes IEEE float32 (or int32 for integer payloads such as
  TopK indices);
* a 64-bit width encodes IEEE float64 (or int64);
* any other integer width from 2 to 63 requires an *integral-valued* payload
  and packs each value into exactly ``w`` bits (offset-binary two's
  complement), which is how q-bit quantization levels and signSGD votes
  travel.  The fields are cut from the narrowest unsigned dtype that holds
  ``w`` bits, one bit plane per pass, so packing costs O(size * w) bytes of
  scratch rather than a 64-bit word per bit.

Server downlinks use :func:`encode_raw` instead: a reduced aggregate travels
as its own bytes, at its dtype's width (8 bits per saturating int8 level
sum, 32 per float32 mean), so every worker decodes the array the server
folded.

``encode_section`` therefore refuses payloads the declared width cannot
faithfully carry (fractional values at a 5-bit width, levels outside the
signed w-bit range) by raising :class:`WireFormatError` -- if a scheme's
traffic accounting cannot be realised as bytes, the differential validation
suite should fail loudly rather than fudge the byte count.

The *logical* payload size of a section is ``size * wire_bits`` bits, matching
the simulator's ``payload_bits`` accounting exactly; the byte buffer is that
rounded up to whole bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class WireFormatError(ValueError):
    """A payload cannot be faithfully encoded at its declared wire width."""


@dataclass(frozen=True)
class EncodedSection:
    """One wire-encoded payload section.

    Attributes:
        payload: The raw bytes on the wire.
        shape: Original array shape (decode restores it).
        dtype: Original array dtype name (decode restores it).
        wire_bits: Declared bits per value.
        encoding: Concrete codec used (``f16``/``f32``/``f64``/``i32``/
            ``i64``/``pack``/``raw``).
        bits: Logical payload size in bits: ``size * wire_bits``.
    """

    payload: bytes
    shape: tuple[int, ...]
    dtype: str
    wire_bits: float
    encoding: str
    bits: int

    @property
    def nbytes(self) -> int:
        """Actual buffer length on the wire."""
        return len(self.payload)


def encode_section(array: np.ndarray, wire_bits: float) -> EncodedSection:
    """Encode ``array`` at ``wire_bits`` bits per value.

    Raises:
        WireFormatError: The width is not realisable for this payload.
    """
    array = np.asarray(array)

    def section(payload: bytes, encoding: str) -> EncodedSection:
        return _section(array, wire_bits, payload, encoding)

    integral_dtype = np.issubdtype(array.dtype, np.integer)
    if wire_bits == 16.0 and not integral_dtype:
        return section(np.ascontiguousarray(array, dtype=np.float16).tobytes(), "f16")
    if wire_bits == 32.0:
        if integral_dtype:
            _check_int_range(array, 32)
            return section(
                np.ascontiguousarray(array, dtype=np.int32).tobytes(), "i32"
            )
        return section(np.ascontiguousarray(array, dtype=np.float32).tobytes(), "f32")
    if wire_bits == 64.0:
        if integral_dtype:
            return section(
                np.ascontiguousarray(array, dtype=np.int64).tobytes(), "i64"
            )
        return section(np.ascontiguousarray(array, dtype=np.float64).tobytes(), "f64")

    # Narrow widths: the payload must be integral-valued (quantization
    # levels, sign votes) and fit the signed w-bit range.
    width = int(wire_bits)
    if width != wire_bits or not 2 <= width < 64:
        raise WireFormatError(
            f"wire width {wire_bits} bits is not encodable: only 16/32/64-bit "
            "float widths and integer widths from 2 to 63 have codecs"
        )
    values = array.reshape(-1)
    if not integral_dtype:
        rounded = np.rint(values)
        if not np.array_equal(rounded, values):
            raise WireFormatError(
                f"payload declared at {width} bits/value holds non-integral "
                "values; only integral payloads can be bit-packed"
            )
        values = rounded.astype(np.int64)
    _check_int_range(values, width)
    return section(_pack_ints(values, width), "pack")


def encode_raw(array: np.ndarray) -> EncodedSection:
    """Encode ``array`` losslessly as its own bytes, at its dtype's width.

    The server's downlink codec: the reply carries exactly the array the
    fold produced, whatever its dtype, at ``8 * itemsize`` bits per value.
    """
    array = np.asarray(array)
    return _section(
        array,
        8.0 * array.dtype.itemsize,
        np.ascontiguousarray(array).tobytes(),
        "raw",
    )


def decode_section(section: EncodedSection) -> np.ndarray:
    """Decode a section back to its original shape and dtype.

    Float16/float32 wire formats decode through the wire precision, so the
    returned values carry exactly the rounding a real link imposes.
    """
    shape = section.shape
    dtype = np.dtype(section.dtype)
    size = int(np.prod(shape)) if shape else 1
    if section.encoding == "f16":
        values = np.frombuffer(section.payload, dtype=np.float16, count=size)
    elif section.encoding == "f32":
        values = np.frombuffer(section.payload, dtype=np.float32, count=size)
    elif section.encoding == "f64":
        values = np.frombuffer(section.payload, dtype=np.float64, count=size)
    elif section.encoding == "i32":
        values = np.frombuffer(section.payload, dtype=np.int32, count=size)
    elif section.encoding == "i64":
        values = np.frombuffer(section.payload, dtype=np.int64, count=size)
    elif section.encoding == "pack":
        values = _unpack_ints(section.payload, size, int(section.wire_bits))
    elif section.encoding == "raw":
        values = np.frombuffer(section.payload, dtype=dtype, count=size)
    else:
        raise WireFormatError(f"unknown wire encoding {section.encoding!r}")
    return values.astype(dtype).reshape(shape)


def _section(
    array: np.ndarray, wire_bits: float, payload: bytes, encoding: str
) -> EncodedSection:
    logical_bits = _logical_bits(array.size, wire_bits)
    expected = -(-logical_bits // 8)  # ceil division
    if len(payload) != expected:
        raise WireFormatError(
            f"{encoding} encoding produced {len(payload)} bytes for a "
            f"{logical_bits}-bit payload (expected {expected})"
        )
    return EncodedSection(
        payload=payload,
        shape=tuple(array.shape),
        dtype=array.dtype.name,
        wire_bits=float(wire_bits),
        encoding=encoding,
        bits=logical_bits,
    )


def _logical_bits(size: int, wire_bits: float) -> int:
    bits = size * wire_bits
    rounded = int(round(bits))
    if abs(bits - rounded) > 1e-9:
        raise WireFormatError(
            f"payload of {size} values at {wire_bits} bits/value is not a "
            "whole number of bits"
        )
    return rounded


def _check_int_range(values: np.ndarray, width: int) -> None:
    if values.size == 0:
        return
    limit = (1 << (width - 1)) - 1
    top = int(np.max(values))
    bottom = int(np.min(values))
    if top > limit or bottom < -limit - 1:
        raise WireFormatError(
            f"integer payload range [{bottom}, {top}] exceeds the signed "
            f"{width}-bit wire range [{-limit - 1}, {limit}]"
        )


def _pack_ints(values: np.ndarray, width: int) -> bytes:
    """Pack signed ``width``-bit integers into offset-binary fields.

    ``values`` must lie in the signed ``width``-bit range.  The offset is
    added modulo the field dtype, where two's complement makes ``v + 2^(w-1)``
    land in ``[0, 2^w)``; the fields then go out one bit plane per pass,
    most significant bit first.
    """
    unsigned = np.min_scalar_type((1 << width) - 1)
    fields = values.astype(f"i{unsigned.itemsize}").view(unsigned)
    fields += unsigned.type(1 << (width - 1))
    bits = np.empty((fields.size, width), dtype=np.uint8)
    plane = np.empty_like(fields)
    for column in range(width):
        np.right_shift(fields, width - 1 - column, out=plane)
        np.bitwise_and(plane, 1, out=plane)
        bits[:, column] = plane
    return np.packbits(bits).tobytes()


def _unpack_ints(payload: bytes, size: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_ints`, in the narrowest signed dtype."""
    unsigned = np.min_scalar_type((1 << width) - 1)
    raw = np.frombuffer(payload, dtype=np.uint8)
    bits = np.unpackbits(raw, count=size * width).reshape(size, width)
    fields = np.zeros(size, dtype=unsigned)
    for column in range(width):
        fields <<= unsigned.type(1)
        fields |= bits[:, column]
    # Subtracting the offset modulo the field dtype leaves two's complement.
    fields -= unsigned.type(1 << (width - 1))
    return fields.view(f"i{unsigned.itemsize}")
