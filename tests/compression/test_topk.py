"""Unit tests for TopK sparsification."""

import numpy as np
import pytest

from repro.compression.topk import (
    BITS_PER_SELECTED_COORDINATE,
    GlobalTopKOracle,
    TopKCompressor,
    k_for_bits_per_coordinate,
    topk_indices,
)
from reference import topk_compress, topk_decompress


class TestTopKIndices:
    def test_selects_largest_magnitudes(self):
        vector = np.array([0.1, -5.0, 0.3, 4.0, -0.2])
        indices = set(topk_indices(vector, 2))
        assert indices == {1, 3}

    def test_k_zero(self):
        assert topk_indices(np.ones(5), 0).size == 0

    def test_k_larger_than_d(self):
        assert set(topk_indices(np.ones(3), 10)) == {0, 1, 2}

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            topk_indices(np.ones(3), -1)


class TestKForBits:
    def test_matches_paper_formula(self):
        # b = 48 K / d  ->  K = b d / 48
        assert k_for_bits_per_coordinate(0.5, 48_000) == 500

    def test_at_least_one(self):
        assert k_for_bits_per_coordinate(0.001, 100) == 1

    def test_capped_at_d(self):
        assert k_for_bits_per_coordinate(1000.0, 50) == 50

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            k_for_bits_per_coordinate(0.0, 100)
        with pytest.raises(ValueError):
            k_for_bits_per_coordinate(1.0, 0)


class TestTopKCompressor:
    def test_compress_decompress_roundtrip(self):
        compressor = TopKCompressor(8.0)
        gradient = np.linspace(-1, 1, 480).astype(np.float32)
        indices, values = topk_compress(compressor, gradient)
        dense = topk_decompress(compressor, indices, values, gradient.size)
        # Selected coordinates survive (up to FP16), the rest are zero.
        np.testing.assert_allclose(dense[indices], gradient[indices], atol=1e-3)
        mask = np.ones(gradient.size, dtype=bool)
        mask[indices] = False
        assert np.all(dense[mask] == 0)

    def test_bits_per_coordinate_close_to_target(self):
        compressor = TopKCompressor(2.0)
        achieved = compressor.expected_bits_per_coordinate(100_000, 4)
        assert achieved == pytest.approx(2.0, rel=0.05)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            TopKCompressor(0.0)

    def test_aggregate_keeps_large_coordinates(self, ctx):
        d = 4800
        gradient = np.zeros(d, dtype=np.float32)
        gradient[10] = 100.0
        gradient[200] = -50.0
        grads = [gradient.copy() for _ in range(ctx.world_size)]
        result = TopKCompressor(0.5).aggregate(grads, ctx)
        assert result.mean_estimate[10] == pytest.approx(100.0, rel=1e-2)
        assert result.mean_estimate[200] == pytest.approx(-50.0, rel=1e-2)

    def test_aggregate_reports_transmission(self, worker_gradients, ctx):
        result = TopKCompressor(2.0).aggregate(worker_gradients, ctx)
        assert result.per_worker_transmitted is not None
        d = worker_gradients[0].size
        k = TopKCompressor(2.0).select_k(d)
        for transmitted in result.per_worker_transmitted:
            assert np.count_nonzero(transmitted) <= k

    def test_aggregate_error_decreases_with_budget(self, worker_gradients, true_mean, ctx):
        def error(bits):
            result = TopKCompressor(bits).aggregate(worker_gradients, ctx)
            return np.linalg.norm(result.mean_estimate - true_mean)

        assert error(8.0) < error(0.5)

    def test_estimate_costs_positive(self, ctx):
        estimate = TopKCompressor(2.0).estimate_costs(10_000_000, ctx)
        assert estimate.compression_seconds > 0
        assert estimate.communication_seconds > 0
        assert estimate.bits_per_coordinate == pytest.approx(2.0, rel=0.05)

    def test_bits_constant_is_48(self):
        assert BITS_PER_SELECTED_COORDINATE == 48.0


class TestGlobalTopKOracle:
    def test_oracle_selects_from_true_mean(self, ctx):
        d = 4800
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(d).astype(np.float32) for _ in range(4)]
        result = GlobalTopKOracle(2.0).aggregate(grads, ctx)
        true_mean = np.mean(grads, axis=0)
        k = k_for_bits_per_coordinate(2.0, d)
        top = np.argsort(-np.abs(true_mean))[:k]
        assert set(np.flatnonzero(result.mean_estimate)) == set(top)

    def test_oracle_is_best_k_sparse_approximation(self, ctx):
        rng = np.random.default_rng(1)
        d = 9600
        grads = [rng.standard_normal(d).astype(np.float32) for _ in range(4)]
        true_mean = np.mean(grads, axis=0)
        oracle = GlobalTopKOracle(0.5).aggregate(grads, ctx)
        k = k_for_bits_per_coordinate(0.5, d)
        # Any other k-sparse support (here: a random one) approximates the
        # true mean no better than the oracle's top-k support.
        random_support = rng.choice(d, size=k, replace=False)
        random_sparse = np.zeros(d, dtype=np.float32)
        random_sparse[random_support] = true_mean[random_support]
        oracle_error = np.linalg.norm(oracle.mean_estimate - true_mean)
        random_error = np.linalg.norm(random_sparse - true_mean)
        assert oracle_error <= random_error

    def test_oracle_estimate_is_free(self, ctx):
        estimate = GlobalTopKOracle(2.0).estimate_costs(1_000_000, ctx)
        assert estimate.total_seconds == 0.0
