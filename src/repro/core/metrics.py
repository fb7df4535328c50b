"""Compression-error and volume metrics.

The paper recommends the vector normalized mean squared error (vNMSE) as a
cheap proxy metric during design and parameter tuning: it measures "the
compression error between the true gradients' average and its estimate from
the compressed gradients", and correlates (imperfectly -- that is the point of
TTA) with convergence speed.
"""

from __future__ import annotations

import numpy as np


def squared_norm(vector: np.ndarray) -> float:
    """``||vector||^2``, accumulated in float64: the vNMSE denominator."""
    return float(np.sum(np.square(vector, dtype=np.float64)))


def vnmse(
    estimate: np.ndarray, true_mean: np.ndarray, *, energy: float | None = None
) -> float:
    """Vector normalized mean squared error of an aggregated-gradient estimate.

    Defined as ``||estimate - true_mean||^2 / ||true_mean||^2``: the squared
    error of the estimate normalised by the energy of the true mean gradient.
    A lossless aggregation has vNMSE 0; an estimate of all zeros has vNMSE 1.
    ``energy`` is ``squared_norm(true_mean)`` when the caller has it already
    (a true mean scored against several estimates pays for it once).

    Raises:
        ValueError: If shapes differ or the true mean has zero norm.
    """
    estimate = np.asarray(estimate)
    true_mean = np.asarray(true_mean)
    if estimate.shape != true_mean.shape:
        raise ValueError("estimate and true_mean must have the same shape")
    if energy is None:
        energy = squared_norm(true_mean)
    if energy == 0.0:
        raise ValueError("true_mean has zero norm; vNMSE is undefined")
    # The inputs are widened element by element inside the ufuncs, as a
    # float64 copy would be.
    scratch = np.subtract(estimate, true_mean, dtype=np.float64)
    np.square(scratch, out=scratch)
    return float(np.sum(scratch)) / energy


def normalized_mean_squared_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Alias of :func:`vnmse` with the generic NMSE name."""
    return vnmse(estimate, reference)


def cosine_similarity(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Cosine of the angle between the estimate and the reference gradient.

    A secondary diagnostic: biased compressors (TopK without error feedback)
    can have small vNMSE yet a systematically rotated direction.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if estimate.shape != reference.shape:
        raise ValueError("estimate and reference must have the same shape")
    norm_product = float(np.linalg.norm(estimate) * np.linalg.norm(reference))
    if norm_product == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(np.dot(estimate, reference)) / norm_product


def compression_ratio(bits_per_coordinate: float, baseline_bits: float = 32.0) -> float:
    """How many times less data a scheme sends than a ``baseline_bits`` format.

    The paper cautions that this metric alone says nothing about end-to-end
    utility; it is provided because prior work reports it.
    """
    if bits_per_coordinate <= 0:
        raise ValueError("bits_per_coordinate must be positive")
    if baseline_bits <= 0:
        raise ValueError("baseline_bits must be positive")
    return baseline_bits / bits_per_coordinate


def aggregate_vnmse_over_rounds(
    estimates: list[np.ndarray], true_means: list[np.ndarray]
) -> float:
    """Mean vNMSE over several aggregation rounds (the Table 4/7 statistic)."""
    if len(estimates) != len(true_means) or not estimates:
        raise ValueError("need matching, non-empty lists of estimates and true means")
    return float(np.mean([vnmse(e, t) for e, t in zip(estimates, true_means)]))
