"""Unit tests for TopK-Chunked (TopKC)."""

import numpy as np
import pytest

from repro.compression.topkc import (
    TopKChunkedCompressor,
    default_chunk_size,
    num_top_chunks_for_bits,
)


class TestGeometry:
    def test_paper_chunk_sizes(self):
        assert default_chunk_size(0.5) == 128
        assert default_chunk_size(2.0) == 64
        assert default_chunk_size(8.0) == 64

    def test_bits_formula_roundtrip(self):
        # b = 16 (J C / d + 1 / C)
        d, chunk = 131072, 64
        j = num_top_chunks_for_bits(2.0, d, chunk)
        achieved = 16.0 * (j * chunk / d + 1.0 / chunk)
        assert achieved == pytest.approx(2.0, rel=0.05)

    def test_budget_smaller_than_norm_stage_rejected(self):
        with pytest.raises(ValueError):
            num_top_chunks_for_bits(0.1, 10_000, 64)  # 16/64 = 0.25 > 0.1

    def test_at_least_one_chunk(self):
        assert num_top_chunks_for_bits(0.3, 1_000, 128) >= 1

    def test_num_chunks_ceil(self):
        compressor = TopKChunkedCompressor(2.0, chunk_size=64)
        assert compressor.num_chunks(130) == 3

    def test_selected_coordinates_jprime(self):
        compressor = TopKChunkedCompressor(2.0, chunk_size=64)
        d = 131072
        assert compressor.selected_coordinates(d) == compressor.num_top_chunks(d) * 64

    def test_jprime_exceeds_topk_k(self):
        # The paper's key accounting point: at equal b, TopKC aggregates more
        # coordinates than TopK because it spends nothing on indices.
        from repro.compression.topk import k_for_bits_per_coordinate

        d = 131072
        for bits in (0.5, 2.0, 8.0):
            compressor = TopKChunkedCompressor(bits)
            assert compressor.selected_coordinates(d) > k_for_bits_per_coordinate(bits, d)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            TopKChunkedCompressor(0.0)

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(ValueError):
            TopKChunkedCompressor(2.0, chunk_size=-1)


class TestConsensus:
    def test_consensus_chunks_agree_on_energy(self):
        compressor = TopKChunkedCompressor(8.0, chunk_size=4)
        d = 64
        gradient = np.zeros(d, dtype=np.float32)
        gradient[8:12] = 10.0  # chunk 2 is by far the most energetic
        top, norms = compressor.consensus_chunks([gradient, gradient])
        assert 2 in top
        assert norms[2] == pytest.approx(2 * 4 * 100.0, rel=1e-2)

    def test_consensus_uses_summed_norms(self):
        compressor = TopKChunkedCompressor(8.0, chunk_size=4)
        d = 32
        a = np.zeros(d, dtype=np.float32)
        b = np.zeros(d, dtype=np.float32)
        a[0:4] = 3.0   # chunk 0 strong on worker a only
        b[4:8] = 2.0   # chunk 1 medium on worker b only
        a[28:32] = 2.5  # chunk 7 medium on worker a
        b[28:32] = 2.5  # and on worker b -> largest summed energy
        top, _ = compressor.consensus_chunks([a, b])
        assert 7 in top


class TestAggregation:
    def test_aggregate_covers_selected_chunks_exactly(self, ctx):
        d = 8192
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(d).astype(np.float32) for _ in range(ctx.world_size)]
        compressor = TopKChunkedCompressor(2.0, chunk_size=64)
        result = compressor.aggregate(grads, ctx)
        nonzero = np.count_nonzero(result.mean_estimate)
        assert nonzero <= compressor.selected_coordinates(d)

    def test_error_decreases_with_budget(self, worker_gradients, true_mean, ctx):
        def error(bits):
            result = TopKChunkedCompressor(bits).aggregate(worker_gradients, ctx)
            return np.linalg.norm(result.mean_estimate - true_mean)

        assert error(8.0) < error(0.5)

    def test_permutation_roundtrip_preserves_coordinates(self, ctx):
        # With permute=True the estimate must still live in the original
        # coordinate system: a huge coordinate is recovered at its own index.
        d = 8192
        gradient = np.zeros(d, dtype=np.float32)
        gradient[1234] = 50.0
        grads = [gradient.copy() for _ in range(ctx.world_size)]
        result = TopKChunkedCompressor(2.0, permute=True).aggregate(grads, ctx)
        assert result.mean_estimate[1234] == pytest.approx(50.0, rel=1e-2)

    def test_permutation_hurts_on_localized_gradients(self, ctx):
        from repro.training.gradients import SyntheticGradientModel

        generator = SyntheticGradientModel(
            1 << 14, locality_block=128, block_scale_sigma=1.5, worker_noise=0.5, seed=0
        )
        grads = generator.next_round(ctx.world_size)
        true_mean = generator.true_mean(grads)
        plain = TopKChunkedCompressor(2.0).aggregate(grads, ctx)
        permuted = TopKChunkedCompressor(2.0, permute=True).aggregate(grads, ctx)
        plain_error = np.linalg.norm(plain.mean_estimate - true_mean)
        permuted_error = np.linalg.norm(permuted.mean_estimate - true_mean)
        assert plain_error < permuted_error

    def test_transmitted_matches_selected_support(self, worker_gradients, ctx):
        result = TopKChunkedCompressor(2.0).aggregate(worker_gradients, ctx)
        support = np.flatnonzero(result.mean_estimate)
        for transmitted in result.per_worker_transmitted:
            assert set(np.flatnonzero(transmitted)).issubset(set(support))

    def test_inputs_unmodified(self, worker_gradients, ctx):
        copies = [g.copy() for g in worker_gradients]
        TopKChunkedCompressor(2.0, permute=True).aggregate(worker_gradients, ctx)
        for original, copy in zip(worker_gradients, copies):
            np.testing.assert_array_equal(original, copy)


class TestCostEstimates:
    def test_bits_match_formula(self, ctx):
        compressor = TopKChunkedCompressor(2.0)
        estimate = compressor.estimate_costs(1_000_000, ctx)
        assert estimate.bits_per_coordinate == pytest.approx(2.0, rel=0.05)

    def test_cheaper_compression_than_topk(self, ctx):
        from repro.compression.topk import TopKCompressor

        d = 100_000_000
        topkc = TopKChunkedCompressor(2.0).estimate_costs(d, ctx)
        topk = TopKCompressor(2.0).estimate_costs(d, ctx)
        assert topkc.compression_seconds < topk.compression_seconds

    def test_cheaper_communication_than_topk_allgather(self, ctx):
        from repro.compression.topk import TopKCompressor

        d = 100_000_000
        topkc = TopKChunkedCompressor(8.0).estimate_costs(d, ctx)
        topk = TopKCompressor(8.0).estimate_costs(d, ctx)
        assert topkc.communication_seconds < topk.communication_seconds

    def test_estimate_rejects_nonpositive(self, ctx):
        with pytest.raises(ValueError):
            TopKChunkedCompressor(2.0).estimate_costs(0, ctx)
