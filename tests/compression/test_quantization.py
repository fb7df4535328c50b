"""Unit tests for the quantizer grid and the per-vector quantizer oracle."""

import numpy as np
import pytest

from repro.compression.quantization import StochasticQuantizer
from reference import QuantizedVector, dequantize, quantize


class TestQuantizedVector:
    def test_max_level(self):
        quantized = QuantizedVector(levels=np.zeros(3, dtype=np.int64), scale=1.0, bits=4)
        assert quantized.max_level == 7

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            QuantizedVector(levels=np.zeros(1, dtype=np.int64), scale=-1.0, bits=4)


class TestStochasticQuantizer:
    def test_rejects_one_bit(self):
        with pytest.raises(ValueError):
            StochasticQuantizer(1)

    def test_levels_within_range(self, rng):
        quantizer = StochasticQuantizer(4)
        vector = rng.standard_normal(1000) * 10
        quantized = quantize(quantizer, vector, rng)
        assert np.all(np.abs(quantized.levels) <= quantizer.max_level)

    def test_dequantize_error_bounded_by_scale(self, rng):
        quantizer = StochasticQuantizer(8)
        vector = rng.standard_normal(1000)
        quantized = quantize(quantizer, vector, rng)
        recovered = dequantize(quantized)
        assert np.max(np.abs(recovered - vector)) <= quantized.scale + 1e-12

    def test_unbiased_in_expectation(self):
        quantizer = StochasticQuantizer(3)
        value = np.array([0.37])
        rng = np.random.default_rng(0)
        samples = [
            dequantize(quantize(quantizer, value, rng, value_range=1.0))[0]
            for _ in range(4000)
        ]
        assert np.mean(samples) == pytest.approx(0.37, abs=0.02)

    def test_zero_vector(self, rng):
        quantizer = StochasticQuantizer(4)
        quantized = quantize(quantizer, np.zeros(16), rng)
        assert quantized.scale == 0.0
        np.testing.assert_array_equal(dequantize(quantized), np.zeros(16))

    def test_shared_value_range_clips(self, rng):
        quantizer = StochasticQuantizer(4)
        vector = np.array([100.0, -100.0, 0.5])
        quantized = quantize(quantizer, vector, rng, value_range=1.0)
        assert quantized.levels[0] == quantizer.max_level
        assert quantized.levels[1] == -quantizer.max_level

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(5)
        vector = rng.standard_normal(5000)

        def error(bits):
            quantizer = StochasticQuantizer(bits)
            quantized = quantize(quantizer, vector, np.random.default_rng(1))
            return np.linalg.norm(dequantize(quantized) - vector)

        assert error(8) < error(4) < error(2)

    def test_rejects_2d_input(self, rng):
        with pytest.raises(ValueError):
            quantize(StochasticQuantizer(4), np.ones((2, 2)), rng)

    def test_rejects_negative_range(self, rng):
        with pytest.raises(ValueError):
            quantize(StochasticQuantizer(4), np.ones(4), rng, value_range=-1.0)

    def test_expected_squared_error_formula(self):
        quantizer = StochasticQuantizer(4)
        bound = quantizer.expected_squared_error(value_range=7.0, num_coordinates=100)
        assert bound == pytest.approx(100 * (7.0 / 7) ** 2 / 4.0)

    def test_expected_squared_error_rejects_negative(self):
        with pytest.raises(ValueError):
            StochasticQuantizer(4).expected_squared_error(-1.0, 10)

    def test_empirical_error_within_bound(self):
        rng = np.random.default_rng(7)
        vector = rng.uniform(-1, 1, size=2000)
        quantizer = StochasticQuantizer(4)
        quantized = quantize(quantizer, vector, rng, value_range=1.0)
        squared_error = float(np.sum((dequantize(quantized) - vector) ** 2))
        assert squared_error <= 1.5 * quantizer.expected_squared_error(1.0, vector.size)
