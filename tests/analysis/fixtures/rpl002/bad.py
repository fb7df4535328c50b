"""Deliberate RPL002 violations: float64 leaks in an aggregate_rows hot path."""

import numpy as np


def aggregate_rows(matrix, ctx, d):
    acc = np.zeros(matrix.shape)  # dtype-less: defaults to float64
    acc += matrix.astype(np.float64)  # float64 round-trip
    scales = np.array([1.0, 0.5])  # dtype-less constructor
    wide = np.empty(matrix.shape, dtype="float64")  # float64 dtype string
    return acc * scales[0] + wide
