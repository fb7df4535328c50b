"""Unit tests for the FP16/FP32 precision baselines."""

import numpy as np
import pytest

from repro.collectives.api import CollectiveBackend
from repro.compression.base import SimContext
from repro.compression.kernels import RoundWorkspace
from repro.compression.precision import PrecisionBaseline, gather_fp16_rows
from repro.compression.registry import make_scheme
from repro.simulator.cluster import multirack_cluster
from repro.simulator.gpu import Precision


class TestConstruction:
    def test_rejects_int8(self):
        with pytest.raises(ValueError):
            PrecisionBaseline(Precision.INT8)

    def test_name_encodes_precision(self):
        assert PrecisionBaseline(Precision.FP16).name == "baseline_fp16"

    def test_has_no_collective_option(self):
        with pytest.raises(TypeError):
            PrecisionBaseline(Precision.FP16, collective="tree_allreduce")


class TestAggregation:
    def test_fp32_is_exact(self, worker_gradients, true_mean, ctx):
        result = PrecisionBaseline(Precision.FP32).aggregate(worker_gradients, ctx)
        np.testing.assert_allclose(result.mean_estimate, true_mean, rtol=1e-5, atol=1e-6)
        assert result.bits_per_coordinate == 32.0

    def test_fp16_is_nearly_exact(self, worker_gradients, true_mean, ctx):
        result = PrecisionBaseline(Precision.FP16).aggregate(worker_gradients, ctx)
        error = np.linalg.norm(result.mean_estimate - true_mean) / np.linalg.norm(true_mean)
        assert error < 1e-3
        assert result.bits_per_coordinate == 16.0

    def test_fp16_transmitted_reported(self, worker_gradients, ctx):
        result = PrecisionBaseline(Precision.FP16).aggregate(worker_gradients, ctx)
        assert result.per_worker_transmitted is not None
        assert len(result.per_worker_transmitted) == len(worker_gradients)

    def test_fp16_faster_than_fp32(self, worker_gradients, ctx):
        d = worker_gradients[0].size
        fp16 = PrecisionBaseline(Precision.FP16).estimate_costs(d, ctx)
        fp32 = PrecisionBaseline(Precision.FP32).estimate_costs(d, ctx)
        assert fp16.communication_seconds < fp32.communication_seconds

    def test_inputs_unmodified(self, worker_gradients, ctx):
        copies = [g.copy() for g in worker_gradients]
        PrecisionBaseline(Precision.FP16).aggregate(worker_gradients, ctx)
        for original, copy in zip(worker_gradients, copies):
            np.testing.assert_array_equal(original, copy)

    def test_wrong_worker_count_rejected(self, ctx):
        with pytest.raises(ValueError):
            PrecisionBaseline(Precision.FP16).aggregate([np.ones(8)], ctx)

    def test_rejects_2d_gradients(self, ctx):
        grads = [np.ones((4, 4)) for _ in range(4)]
        with pytest.raises(ValueError):
            PrecisionBaseline(Precision.FP16).aggregate(grads, ctx)


class TestCostEstimates:
    def test_fp16_half_the_bits(self, ctx):
        fp16 = PrecisionBaseline(Precision.FP16).estimate_costs(1_000_000, ctx)
        fp32 = PrecisionBaseline(Precision.FP32).estimate_costs(1_000_000, ctx)
        assert fp16.bits_per_coordinate == 16.0
        assert fp32.bits_per_coordinate == 32.0
        assert fp16.communication_seconds < fp32.communication_seconds

    def test_expected_bits(self):
        assert PrecisionBaseline(Precision.FP16).expected_bits_per_coordinate(100, 4) == 16.0

    def test_estimate_rejects_nonpositive(self, ctx):
        with pytest.raises(ValueError):
            PrecisionBaseline(Precision.FP16).estimate_costs(0, ctx)

    @pytest.mark.parametrize("racks", [1, 4])
    @pytest.mark.parametrize("precision", [Precision.FP16, Precision.FP32])
    def test_priced_as_the_ring_allreduce_it_folds(self, precision, racks):
        # The spec has no collective parameter, so every baseline with the
        # same spec must price the one schedule its fold runs: the ring (the
        # hierarchical ring on an active multi-rack fabric).
        cluster = multirack_cluster(racks, oversubscription=2.0)
        ctx = SimContext(backend=CollectiveBackend(cluster))
        scheme = PrecisionBaseline(precision)
        estimate = scheme.estimate_costs(10_000_000, ctx)
        ring = ctx.backend.cost_model.ring_allreduce(10_000_000 * float(precision.bits))
        assert estimate.communication_seconds == ring.seconds
        assert make_scheme(scheme.spec()).estimate_costs(10_000_000, ctx) == estimate


class TestGatherFp16Rows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_numpy_round_trip(self, dtype):
        rows = np.random.default_rng(0).standard_normal((3, 70001)).astype(dtype)
        rows[1] *= 1e-6  # mostly float16 subnormals
        rows[2, ::1000] = 7e4  # tiles that overflow go through numpy's cast
        out = np.empty(rows.shape, dtype=np.float32)
        with np.errstate(over="ignore"):
            expected = rows.astype(np.float32).astype(np.float16).astype(np.float32)
        gather_fp16_rows(list(rows), out, workspace=RoundWorkspace(), label="test")
        np.testing.assert_array_equal(out.view(np.uint32), expected.view(np.uint32))

    def test_reads_strided_rows_only(self):
        matrix = np.random.default_rng(1).standard_normal((2, 200), dtype=np.float32)
        rows = matrix[:, ::2]
        rows.flags.writeable = False
        out = np.empty((2, 100), dtype=np.float32)
        gather_fp16_rows(rows, out, workspace=RoundWorkspace(), label="test")
        np.testing.assert_array_equal(out, rows.astype(np.float16).astype(np.float32))
