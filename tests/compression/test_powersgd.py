"""Unit tests for PowerSGD low-rank compression."""

import numpy as np
import pytest

from repro.compression.powersgd import (
    PowerSGDCompressor,
    default_layer_shapes,
    orthogonalize,
)


class TestOrthogonalize:
    def test_columns_orthonormal(self, rng):
        matrix = rng.standard_normal((64, 8))
        ortho = orthogonalize(matrix)
        gram = ortho.T @ ortho
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)

    def test_preserves_column_span(self, rng):
        matrix = rng.standard_normal((32, 4))
        ortho = orthogonalize(matrix)
        # Each original column is representable in the orthonormal basis.
        reconstruction = ortho @ (ortho.T @ matrix)
        np.testing.assert_allclose(reconstruction, matrix, atol=1e-8)

    def test_zero_columns_handled(self):
        matrix = np.zeros((8, 3))
        ortho = orthogonalize(matrix)
        np.testing.assert_array_equal(ortho, np.zeros((8, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            orthogonalize(np.ones(4))


class TestDefaultShapes:
    def test_covers_at_most_d(self):
        shapes = default_layer_shapes(1000)
        assert sum(r * c for r, c in shapes) <= 1000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_layer_shapes(0)


class TestPowerSGDCompressor:
    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            PowerSGDCompressor(0)

    def test_rejects_bad_factor_bits(self):
        with pytest.raises(ValueError):
            PowerSGDCompressor(4, factor_bits=8)

    def test_exact_recovery_of_low_rank_gradient(self, ctx):
        # A rank-1 gradient shared by all workers is recovered (almost)
        # exactly by a rank-4 approximation after a couple of warm-start steps.
        rng = np.random.default_rng(0)
        rows, cols = 64, 64
        u = rng.standard_normal(rows)
        v = rng.standard_normal(cols)
        gradient = np.outer(u, v).reshape(-1).astype(np.float32)
        grads = [gradient.copy() for _ in range(ctx.world_size)]
        scheme = PowerSGDCompressor(4, [(rows, cols)])
        for _ in range(3):
            result = scheme.aggregate(grads, ctx)
        error = np.linalg.norm(result.mean_estimate - gradient) / np.linalg.norm(gradient)
        assert error < 1e-3

    def test_higher_rank_lower_error(self, ctx):
        generator = np.random.default_rng(1)
        rows, cols = 48, 48
        base = generator.standard_normal((rows, 8)) @ generator.standard_normal((8, cols))
        grads = [
            (base + 0.1 * generator.standard_normal((rows, cols))).reshape(-1).astype(np.float32)
            for _ in range(ctx.world_size)
        ]
        true_mean = np.mean(np.stack(grads), axis=0)

        def error(rank):
            scheme = PowerSGDCompressor(rank, [(rows, cols)], warm_start=False)
            result = scheme.aggregate(grads, ctx)
            return np.linalg.norm(result.mean_estimate - true_mean)

        assert error(16) < error(1)

    def test_warm_start_improves_over_rounds(self, ctx):
        rng = np.random.default_rng(2)
        rows, cols = 40, 40
        base = rng.standard_normal((rows, 4)) @ rng.standard_normal((4, cols))
        grads = [base.reshape(-1).astype(np.float32) for _ in range(ctx.world_size)]
        scheme = PowerSGDCompressor(2, [(rows, cols)], warm_start=True)
        first = scheme.aggregate(grads, ctx).mean_estimate
        for _ in range(4):
            last = scheme.aggregate(grads, ctx).mean_estimate
        true_mean = np.mean(np.stack(grads), axis=0)
        assert np.linalg.norm(last - true_mean) <= np.linalg.norm(first - true_mean) + 1e-9

    def test_reset_state_clears_warm_start(self, ctx, worker_gradients):
        scheme = PowerSGDCompressor(2)
        scheme.aggregate(worker_gradients, ctx)
        assert scheme._q_state
        scheme.reset_state()
        assert not scheme._q_state

    def test_uncompressed_tail_is_exact(self, ctx):
        rows, cols = 16, 16
        d = rows * cols + 10
        rng = np.random.default_rng(3)
        grads = [rng.standard_normal(d).astype(np.float32) for _ in range(ctx.world_size)]
        scheme = PowerSGDCompressor(2, [(rows, cols)])
        result = scheme.aggregate(grads, ctx)
        true_tail = np.mean(np.stack(grads), axis=0)[rows * cols :]
        np.testing.assert_allclose(result.mean_estimate[rows * cols :], true_tail, atol=1e-3)

    def test_rejects_oversized_layer_shapes(self, ctx, worker_gradients):
        scheme = PowerSGDCompressor(2, [(1000, 1000)])
        with pytest.raises(ValueError):
            scheme.aggregate(worker_gradients, ctx)

    def test_bits_per_coordinate_formula(self):
        scheme = PowerSGDCompressor(4, [(100, 100)])
        d = 100 * 100
        expected = (100 + 100) * 4 * 32 / d
        assert scheme.expected_bits_per_coordinate(d, 4) == pytest.approx(expected)

    def test_estimate_costs_grow_with_rank(self, ctx):
        d = 10_000_000
        small = PowerSGDCompressor(1).estimate_costs(d, ctx)
        large = PowerSGDCompressor(64).estimate_costs(d, ctx)
        assert large.compression_seconds > small.compression_seconds
        assert large.bits_per_coordinate > small.bits_per_coordinate

    def test_estimate_rejects_nonpositive(self, ctx):
        with pytest.raises(ValueError):
            PowerSGDCompressor(4).estimate_costs(0, ctx)
