"""Unit tests for the synthetic gradient generator."""

import hashlib

import numpy as np
import pytest

from repro.training.gradients import SyntheticGradientModel


class TestConstruction:
    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            SyntheticGradientModel(0)
        with pytest.raises(ValueError):
            SyntheticGradientModel(100, locality_block=0)
        with pytest.raises(ValueError):
            SyntheticGradientModel(100, worker_noise=-1.0)
        with pytest.raises(ValueError):
            SyntheticGradientModel(100, low_rank_fraction=2.0)
        with pytest.raises(ValueError):
            SyntheticGradientModel(100, rank=0)

    def test_envelope_has_block_structure(self):
        model = SyntheticGradientModel(1024, locality_block=64, seed=0)
        envelope = model.envelope
        # Within a block the envelope is constant.
        assert np.all(envelope[:64] == envelope[0])
        assert envelope.size == 1024


class TestGeneration:
    def test_shapes_and_dtype(self):
        model = SyntheticGradientModel(512, seed=1)
        grads = model.next_round(4)
        assert len(grads) == 4
        assert all(g.shape == (512,) and g.dtype == np.float32 for g in grads)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            SyntheticGradientModel(64).next_round(0)

    def test_rounds_differ(self):
        model = SyntheticGradientModel(256, seed=2)
        first = model.next_round(2)
        second = model.next_round(2)
        assert not np.allclose(first[0], second[0])

    def test_same_seed_reproducible(self):
        first = SyntheticGradientModel(256, seed=3).next_round(2)
        second = SyntheticGradientModel(256, seed=3).next_round(2)
        np.testing.assert_array_equal(first[0], second[0])

    def test_output_bytes_are_pinned(self):
        """Every vNMSE number depends on these exact bytes; an odd d also
        covers the envelope's partial last block."""
        model = SyntheticGradientModel(1001, locality_block=7, rank=3, seed=11)
        digest = hashlib.sha256()
        for _ in range(3):
            for gradient in model.next_round(3):
                assert gradient.dtype == np.float32
                digest.update(gradient.tobytes())
        assert digest.hexdigest() == (
            "58862b01f451fce5398f5e5cddba03fbb73423a36cf6940943f901ab6bd12929"
        )

    def test_workers_share_signal(self):
        model = SyntheticGradientModel(4096, worker_noise=0.5, seed=4)
        grads = model.next_round(2)
        correlation = np.corrcoef(grads[0], grads[1])[0, 1]
        assert correlation > 0.5

    def test_worker_noise_reduces_correlation(self):
        low = SyntheticGradientModel(4096, worker_noise=0.2, seed=5)
        high = SyntheticGradientModel(4096, worker_noise=2.0, seed=5)
        corr_low = np.corrcoef(*low.next_round(2))[0, 1]
        corr_high = np.corrcoef(*high.next_round(2))[0, 1]
        assert corr_high < corr_low

    def test_heavy_tailed_energy_concentration(self):
        # The top 10% of coordinates must hold well over 10% of the energy --
        # the property that makes sparsification worthwhile.
        model = SyntheticGradientModel(1 << 14, block_scale_sigma=1.5, seed=6)
        gradient = model.next_round(1)[0]
        energy = np.sort(gradient**2)[::-1]
        top_fraction = energy[: energy.size // 10].sum() / energy.sum()
        assert top_fraction > 0.4

    def test_spatial_locality_blocks_share_energy(self):
        model = SyntheticGradientModel(1 << 14, locality_block=128, seed=7)
        gradient = model.next_round(1)[0]
        blocks = gradient.reshape(-1, 128)
        block_energy = (blocks**2).sum(axis=1)
        # Energy differs across blocks by orders of magnitude (locality),
        # which uniform white noise would not produce.
        assert block_energy.max() / np.median(block_energy) > 10

    def test_true_mean(self):
        model = SyntheticGradientModel(128, seed=8)
        grads = model.next_round(4)
        np.testing.assert_allclose(
            model.true_mean(grads), np.mean(np.stack(grads), axis=0), rtol=1e-6
        )

    def test_true_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            SyntheticGradientModel(64).true_mean([])

    def test_gradient_scale_is_order_one(self):
        model = SyntheticGradientModel(1 << 12, seed=9)
        gradient = model.next_round(1)[0]
        rms = np.sqrt(np.mean(gradient**2))
        assert 0.5 < rms < 3.0
