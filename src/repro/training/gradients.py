"""Synthetic gradient generators for compression-error studies.

The vNMSE experiments (Tables 4 and 7) measure how well a scheme's aggregate
approximates the true mean gradient.  Running them on white noise would miss
the two statistical properties of real deep-network gradients that the
paper's argument relies on:

* **Heavy tails / non-uniform energy** -- a small fraction of coordinates
  carries most of the gradient energy, which is why TopK-style sparsification
  works at all.
* **Spatial locality** -- large coordinates cluster (contiguous filters,
  attention heads, embedding rows), which is exactly what TopKC's chunk
  heuristic exploits and what Table 4's random-permutation ablation destroys.
* **Inter-worker similarity** -- workers compute gradients of the same loss
  on different mini-batches, so their gradients share a common component plus
  per-worker mini-batch noise.

:class:`SyntheticGradientModel` generates per-worker gradients with all three
properties, with tunable strength for each.
"""

from __future__ import annotations

import numpy as np


class SyntheticGradientModel:
    """Generates rounds of per-worker gradients with realistic structure.

    Each round's true gradient is ``envelope * heavy_tailed_noise`` where the
    envelope is piecewise-constant over blocks of ``locality_block``
    coordinates with log-normal block scales (heavy tails + spatial
    locality).  Each worker observes the true gradient plus independent
    Gaussian mini-batch noise scaled by ``worker_noise``.

    Args:
        num_coordinates: Gradient dimensionality ``d``.
        locality_block: Number of consecutive coordinates sharing one block
            scale.  Larger blocks mean stronger spatial locality.
        block_scale_sigma: Sigma of the log-normal block scales; larger
            values make the energy distribution heavier-tailed.
        worker_noise: Standard deviation of per-worker noise relative to the
            true gradient's scale.
        low_rank_fraction: Fraction of the gradient energy explained by a
            shared low-rank component (gives PowerSGD something to find).
        rank: Rank of that shared component.
        seed: Base seed; each round uses an independent substream.
    """

    def __init__(
        self,
        num_coordinates: int,
        *,
        locality_block: int = 64,
        block_scale_sigma: float = 1.5,
        worker_noise: float = 0.5,
        low_rank_fraction: float = 0.3,
        rank: int = 8,
        seed: int = 0,
    ):
        if num_coordinates <= 0:
            raise ValueError("num_coordinates must be positive")
        if locality_block <= 0:
            raise ValueError("locality_block must be positive")
        if block_scale_sigma < 0 or worker_noise < 0:
            raise ValueError("scales must be non-negative")
        if not 0.0 <= low_rank_fraction <= 1.0:
            raise ValueError("low_rank_fraction must be in [0, 1]")
        if rank <= 0:
            raise ValueError("rank must be positive")
        self.num_coordinates = num_coordinates
        self.locality_block = locality_block
        self.block_scale_sigma = block_scale_sigma
        self.worker_noise = worker_noise
        self.low_rank_fraction = low_rank_fraction
        self.rank = rank
        self.seed = seed
        self._round = 0

        # The block envelope is a property of the model architecture, not of
        # the round, so it is drawn once.
        envelope_rng = np.random.default_rng(seed)
        num_blocks = -(-num_coordinates // locality_block)
        block_scales = envelope_rng.lognormal(
            mean=0.0, sigma=block_scale_sigma, size=num_blocks
        )
        self._envelope = np.repeat(block_scales, locality_block)[:num_coordinates]
        envelope_rms = float(np.sqrt(np.mean(np.square(self._envelope))))
        self._normalized_envelope = (
            self._envelope / envelope_rms if envelope_rms > 0 else self._envelope
        )

        # Fixed low-rank basis shared across rounds (mimics slowly varying
        # curvature directions).
        rows = max(1, int(np.sqrt(num_coordinates)))
        cols = -(-num_coordinates // rows)
        self._basis_left = envelope_rng.standard_normal((rows, self.rank))
        self._basis_right = envelope_rng.standard_normal((self.rank, cols))
        self._matrix_shape = (rows, cols)

    # ------------------------------------------------------------------ #
    @property
    def envelope(self) -> np.ndarray:
        """The per-coordinate scale envelope (exposes the spatial structure)."""
        return self._envelope

    def _low_rank_component(self, rng: np.random.Generator) -> np.ndarray:
        rows, cols = self._matrix_shape
        mixing = rng.standard_normal((self.rank, self.rank)) / np.sqrt(self.rank)
        matrix = self._basis_left @ mixing @ self._basis_right
        return matrix.reshape(rows * cols)[: self.num_coordinates]

    def next_round(self, num_workers: int) -> np.ndarray:
        """Generate the per-worker gradients of the next round.

        Returns:
            One ``(num_workers, d)`` float32 array, a row per worker.  Index
            or iterate it for the per-worker vectors; the batched kernels
            read the block as it is, without stacking rows back together.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        rng = np.random.default_rng((self.seed, self._round))
        self._round += 1

        dense = rng.standard_normal(self.num_coordinates) * self._envelope
        low_rank = self._low_rank_component(rng)
        low_rank_norm = np.linalg.norm(low_rank)
        if low_rank_norm > 0:
            low_rank *= np.linalg.norm(dense) / low_rank_norm
        true_gradient = (
            (1.0 - self.low_rank_fraction) * dense + self.low_rank_fraction * low_rank
        )
        # Keep gradients at a realistic magnitude (unit RMS): real training
        # gradients are O(1) per coordinate, and FP16 wire formats (chunk
        # norms, payload values) must not overflow.
        rms = float(np.sqrt(np.mean(np.square(true_gradient))))
        if rms > 0:
            true_gradient = true_gradient / rms

        # Each worker's noise is drawn into one reused float64 buffer and
        # scaled in place, in the same order as ``normal * noise * envelope``;
        # the float64 sum is rounded once, straight into its float32 row.
        # The rows share one (n, d) block, which is freed whole rather than
        # as n separate buffers that linger in the allocator's heap.
        noise = np.empty(self.num_coordinates)
        rows = np.empty((num_workers, self.num_coordinates), dtype=np.float32)
        for row in rows:
            rng.standard_normal(out=noise)
            noise *= self.worker_noise
            noise *= self._normalized_envelope
            np.add(true_gradient, noise, out=row)
        return rows

    def true_mean(self, worker_gradients: "np.ndarray | list[np.ndarray]") -> np.ndarray:
        """The exact mean the schemes are trying to estimate.

        Takes a round's ``(n, d)`` block as it is (a list of rows is stacked
        first); the mean folds the rows in order, as over the stacked rows.
        """
        if len(worker_gradients) == 0:
            raise ValueError("need at least one worker gradient")
        return np.mean(np.asarray(worker_gradients), axis=0)
