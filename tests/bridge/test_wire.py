"""Wire codecs: payloads as real bytes, logical bits exactly as priced."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.bridge import WireFormatError, decode_section, encode_raw, encode_section


class TestFloatCodecs:
    def test_f16_round_trips_through_wire_precision(self):
        values = np.array([1.0, -0.5, 3.14159, 65504.0], dtype=np.float64)
        section = encode_section(values, 16.0)
        assert section.encoding == "f16"
        assert section.bits == values.size * 16
        assert section.nbytes == values.size * 2
        decoded = decode_section(section)
        assert decoded.dtype == values.dtype
        np.testing.assert_array_equal(decoded, values.astype(np.float16))

    def test_f32_round_trips(self):
        values = np.linspace(-1, 1, 7, dtype=np.float64)
        section = encode_section(values, 32.0)
        assert section.encoding == "f32"
        assert section.bits == 7 * 32
        np.testing.assert_array_equal(decode_section(section), values.astype(np.float32))

    def test_f64_is_lossless(self):
        values = np.array([np.pi, -np.e, 1e300])
        section = encode_section(values, 64.0)
        assert section.encoding == "f64"
        np.testing.assert_array_equal(decode_section(section), values)

    def test_shape_restored(self):
        values = np.arange(12, dtype=np.float32).reshape(3, 4)
        decoded = decode_section(encode_section(values, 32.0))
        assert decoded.shape == (3, 4)
        np.testing.assert_array_equal(decoded, values)


class TestIntegerCodecs:
    def test_i32_for_integer_dtypes(self):
        values = np.array([0, 5772, -3], dtype=np.int64)
        section = encode_section(values, 32.0)
        assert section.encoding == "i32"
        decoded = decode_section(section)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, values)

    def test_i64_raw(self):
        values = np.array([2**40, -(2**40)], dtype=np.int64)
        section = encode_section(values, 64.0)
        assert section.encoding == "i64"
        np.testing.assert_array_equal(decode_section(section), values)

    def test_i32_range_check(self):
        with pytest.raises(WireFormatError, match="range"):
            encode_section(np.array([2**35], dtype=np.int64), 32.0)


class TestBitPack:
    @pytest.mark.parametrize("width", [2, 3, 4, 5, 7, 8, 11])
    def test_round_trip_all_values(self, width):
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
        values = np.arange(low, high + 1, dtype=np.int64)
        section = encode_section(values, float(width))
        assert section.encoding == "pack"
        assert section.bits == values.size * width
        assert section.nbytes == -(-section.bits // 8)
        np.testing.assert_array_equal(decode_section(section), values)

    def test_integral_floats_pack(self):
        values = np.array([1.0, -2.0, 0.0], dtype=np.float64)
        section = encode_section(values, 4.0)
        decoded = decode_section(section)
        assert decoded.dtype == values.dtype
        np.testing.assert_array_equal(decoded, values)

    def test_fractional_floats_refused(self):
        with pytest.raises(WireFormatError, match="integral"):
            encode_section(np.array([0.5]), 4.0)

    def test_out_of_range_refused(self):
        with pytest.raises(WireFormatError, match="range"):
            encode_section(np.array([8], dtype=np.int64), 4.0)

    def test_unrealisable_width_refused(self):
        with pytest.raises(WireFormatError):
            encode_section(np.array([1.0]), 2.5)
        with pytest.raises(WireFormatError):
            encode_section(np.array([1.0]), 1.0)
        with pytest.raises(WireFormatError):
            encode_section(np.array([1], dtype=np.int64), 65.0)

    def test_randomized_round_trip(self):
        rng = np.random.default_rng(0)
        for width in (2, 4, 6, 9):
            low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
            values = rng.integers(low, high + 1, size=257)
            section = encode_section(values, float(width))
            np.testing.assert_array_equal(decode_section(section), values)


class TestRawCodec:
    @pytest.mark.parametrize(
        "dtype", ["int8", "int16", "int32", "int64", "float16", "float32", "float64"]
    )
    def test_lossless_at_the_dtypes_own_width(self, dtype):
        rng = np.random.default_rng(3)
        if np.issubdtype(np.dtype(dtype), np.integer):
            info = np.iinfo(dtype)
            values = rng.integers(info.min, info.max, endpoint=True, size=(5, 7))
            values = values.astype(dtype)
            values.flat[:2] = info.min, info.max
        else:
            values = rng.standard_normal((5, 7)).astype(dtype)
        section = encode_raw(values)
        assert section.encoding == "raw"
        assert section.wire_bits == 8 * values.dtype.itemsize
        assert section.bits == values.size * section.wire_bits
        assert section.payload == values.tobytes()
        decoded = decode_section(section)
        assert decoded.dtype == values.dtype
        assert decoded.shape == values.shape
        np.testing.assert_array_equal(decoded, values)
        assert decoded.flags.writeable

    def test_same_bytes_as_the_ieee_and_integer_codecs(self):
        for values, width in [
            (np.linspace(-1, 1, 9, dtype=np.float32), 32.0),
            (np.linspace(-1, 1, 9, dtype=np.float64), 64.0),
            (np.arange(-4, 5, dtype=np.int32), 32.0),
            (np.arange(-4, 5, dtype=np.int64), 64.0),
        ]:
            assert encode_raw(values).payload == encode_section(values, width).payload

    def test_empty(self):
        section = encode_raw(np.zeros(0, dtype=np.int8))
        assert section.nbytes == 0
        assert decode_section(section).dtype == np.int8


class TestCodecMemory:
    """Packing scratch is O(bytes): no 64-bit word per wire bit."""

    SIZE = 1 << 18

    @pytest.fixture
    def levels(self):
        rng = np.random.default_rng(0)
        return rng.integers(-8, 8, size=self.SIZE).astype(np.int8)

    @staticmethod
    def peak_mib(function, *args) -> float:
        tracemalloc.start()
        try:
            function(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_encoding_4_bit_levels(self, levels):
        # 13.0 MiB through the (size, width) uint64 bit matrix.
        assert self.peak_mib(encode_section, levels, 4.0) <= 4.5

    def test_decoding_4_bit_levels(self, levels):
        section = encode_section(levels, 4.0)
        # 11.0 MiB through the (size, width) int64 bit matrix.
        assert self.peak_mib(decode_section, section) <= 3.5


class TestAccounting:
    def test_logical_bits_match_simulator_pricing(self):
        """section.bits is size * wire_bits: the priced payload exactly."""
        for size, width in [(100, 16.0), (57, 4.0), (3, 32.0)]:
            array = np.zeros(size, dtype=np.float32 if width >= 16 else np.int64)
            assert encode_section(array, width).bits == int(size * width)

    def test_empty_payload(self):
        section = encode_section(np.zeros(0, dtype=np.float32), 16.0)
        assert section.bits == 0
        assert decode_section(section).size == 0

    def test_unknown_encoding_rejected_on_decode(self):
        section = encode_section(np.zeros(2, dtype=np.float32), 32.0)
        bogus = type(section)(
            payload=section.payload,
            shape=section.shape,
            dtype=section.dtype,
            wire_bits=section.wire_bits,
            encoding="zstd",
            bits=section.bits,
        )
        with pytest.raises(WireFormatError, match="encoding"):
            decode_section(bogus)
