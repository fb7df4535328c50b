"""The clean counterpart: float32 end to end, dtype-preserving copies."""

import numpy as np


def aggregate_rows(matrix, ctx, d):
    acc = np.zeros(matrix.shape, dtype=np.float32)
    acc += matrix
    scales = np.array([1.0, 0.5], dtype=np.float32)
    snapshot = np.array(matrix[0], copy=True)  # dtype-preserving copy
    return acc * scales[0] + snapshot
