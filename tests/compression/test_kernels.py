"""Unit tests for the kernel primitives (repro.compression.kernels)."""

import math

import numpy as np
import pytest

from repro.compression.hadamard import HadamardRotation, _butterfly_passes
from repro.compression.kernels import (
    LazyTransmitted,
    RoundWorkspace,
    cached_signs,
    factorize_depth,
    fwht_normalization,
    fwht_rows,
    hadamard_matrix,
    round_stochastically,
    smallest_int_dtype,
)


class TestRoundWorkspace:
    def test_reuses_buffers_by_key(self):
        workspace = RoundWorkspace()
        first = workspace.buf("x", (4, 8), np.float32)
        second = workspace.buf("x", (4, 8), np.float32)
        assert first is second
        assert workspace.hits == 1 and workspace.misses == 1

    def test_distinct_keys_get_distinct_buffers(self):
        workspace = RoundWorkspace()
        a = workspace.buf("x", (4, 8), np.float32)
        b = workspace.buf("x", (4, 8), np.float64)
        c = workspace.buf("y", (4, 8), np.float32)
        assert a is not b and a is not c
        assert workspace.num_buffers == 3
        assert workspace.allocated_bytes() == 4 * 8 * (4 + 8 + 4)

    def test_clear(self):
        workspace = RoundWorkspace()
        workspace.buf("x", (2,), np.float32)
        workspace.clear()
        assert workspace.num_buffers == 0

    def test_steady_state_allocates_nothing(self):
        """After the first round, repeated requests never miss."""
        workspace = RoundWorkspace()
        for _ in range(3):
            workspace.buf("wire", (4, 64), np.float32)
            workspace.buf("levels", (4, 64), np.int8)
        assert workspace.misses == 2
        assert workspace.hits == 4


class TestCachedSigns:
    def test_matches_legacy_generation(self):
        rotation = HadamardRotation(seed=7)
        np.testing.assert_array_equal(rotation._signs(256), cached_signs(7, 256))

    def test_cached_instance_is_reused_and_readonly(self):
        first = cached_signs(3, 128, np.float32)
        second = cached_signs(3, 128, np.float32)
        assert first is second
        assert not first.flags.writeable

    def test_values_are_signs(self):
        signs = cached_signs(11, 64)
        assert set(np.unique(signs)) <= {-1.0, 1.0}


class TestFactorizeDepth:
    def test_small_depths_single_factor(self):
        assert factorize_depth(0) == []
        assert factorize_depth(3) == [3]
        assert factorize_depth(5) == [5]

    def test_large_depths_balanced(self):
        assert factorize_depth(15) == [5, 5, 5]
        assert factorize_depth(20) == [5, 5, 5, 5]
        assert sum(factorize_depth(13)) == 13
        assert max(factorize_depth(13)) <= 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            factorize_depth(-1)


class TestFwhtRows:
    @pytest.mark.parametrize("depth", [1, 3, 5, 7, 11])
    def test_matches_butterfly_reference(self, depth):
        """The Kronecker matmul chain equals the butterfly network exactly
        (up to float32 arithmetic and the deferred normalization)."""
        rng = np.random.default_rng(depth)
        size = 1 << depth
        matrix = rng.standard_normal((3, size)).astype(np.float32)
        transformed = fwht_rows(matrix, depth) * fwht_normalization(depth)
        for row_index in range(3):
            reference = _butterfly_passes(
                matrix[row_index].astype(np.float64).copy(), depth
            )
            np.testing.assert_allclose(
                transformed[row_index], reference, rtol=1e-4, atol=1e-4
            )

    def test_partial_transform_is_per_chunk(self):
        """depth < log2(row length) transforms each 2^depth chunk independently."""
        rng = np.random.default_rng(0)
        depth = 4
        matrix = rng.standard_normal((2, 64)).astype(np.float32)
        whole = fwht_rows(matrix, depth) * fwht_normalization(depth)
        chunk = fwht_rows(matrix[:, :16].copy(), depth) * fwht_normalization(depth)
        np.testing.assert_allclose(whole[:, :16], chunk, rtol=1e-5, atol=1e-6)

    def test_self_inverse_up_to_normalization(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((2, 128)).astype(np.float32)
        once = fwht_rows(matrix, 7)
        twice = fwht_rows(np.array(once, copy=True), 7) * (2.0 ** -7)
        np.testing.assert_allclose(twice, matrix, rtol=1e-4, atol=1e-4)

    def test_does_not_modify_input(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((2, 32)).astype(np.float32)
        original = matrix.copy()
        fwht_rows(matrix, 5)
        np.testing.assert_array_equal(matrix, original)

    def test_workspace_pingpong_reused(self):
        workspace = RoundWorkspace()
        matrix = np.ones((2, 64), dtype=np.float32)
        first = fwht_rows(matrix, 6, workspace=workspace)
        misses = workspace.misses
        second = fwht_rows(matrix, 6, workspace=workspace)
        assert workspace.misses == misses  # no new buffers on later rounds
        np.testing.assert_array_equal(first, second)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            fwht_rows(np.ones(8, dtype=np.float32), 2)
        with pytest.raises(ValueError, match="multiple"):
            fwht_rows(np.ones((2, 6), dtype=np.float32), 2)

    def test_depth_zero_is_identity(self):
        matrix = np.ones((2, 8), dtype=np.float32)
        assert fwht_rows(matrix, 0) is matrix


def _whole_matrix_rounding(rows, rng, max_level, scale):
    """The untiled reference: whole-matrix scratch, one uniform draw."""
    values = np.array(rows, dtype=np.float32)
    if scale is not None:
        values *= scale
    np.clip(values, -max_level, max_level, out=values)
    floors = np.floor(values)
    values -= floors
    uniforms = rng.random(values.shape, dtype=np.float32)
    floors += uniforms < values
    np.clip(floors, -max_level, max_level, out=floors)
    return floors.astype(np.int8)


class TestRoundStochastically:
    # (3, 30000): the first 2^16-element tile ends inside the third row.
    @pytest.mark.parametrize("shape", [(3, 30000), (2, 1 << 16), (4, 7)])
    @pytest.mark.parametrize("as_list", [False, True])
    @pytest.mark.parametrize("scale", [None, np.float32(2.5)])
    def test_matches_whole_matrix_rounding(self, shape, as_list, scale):
        rows = np.random.default_rng(0).standard_normal(shape).astype(np.float32) * 4
        rng, reference_rng = np.random.default_rng(1), np.random.default_rng(1)
        levels = np.empty(shape, dtype=np.int8)
        round_stochastically(
            list(rows) if as_list else rows,
            levels,
            rng,
            7.0,
            scale=scale,
            workspace=RoundWorkspace(),
            label="test",
        )
        expected = _whole_matrix_rounding(rows, reference_rng, 7.0, scale)
        np.testing.assert_array_equal(levels, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_reads_rows_only(self):
        rows = np.random.default_rng(2).standard_normal((2, 100)).astype(np.float32)
        rows.flags.writeable = False
        levels = np.empty((2, 100), dtype=np.int8)
        round_stochastically(
            rows,
            levels,
            np.random.default_rng(3),
            7.0,
            workspace=RoundWorkspace(),
            label="test",
        )
        assert np.all(np.abs(levels) <= 7)


class TestHadamardMatrix:
    def test_orthogonality(self):
        h = hadamard_matrix(4)
        np.testing.assert_allclose(h @ h.T, 16 * np.eye(16), atol=1e-5)

    def test_entries_are_signs(self):
        assert set(np.unique(hadamard_matrix(3))) <= {-1.0, 1.0}


class TestSmallestIntDtype:
    def test_boundaries(self):
        assert smallest_int_dtype(7) == np.dtype(np.int8)
        assert smallest_int_dtype(127) == np.dtype(np.int8)
        assert smallest_int_dtype(128) == np.dtype(np.int16)
        assert smallest_int_dtype(32767) == np.dtype(np.int16)
        assert smallest_int_dtype(32768) == np.dtype(np.int32)
        assert smallest_int_dtype(1 << 40) == np.dtype(np.int64)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            smallest_int_dtype(-1)


class TestLazyTransmitted:
    def test_defers_until_first_access(self):
        calls = []

        def factory():
            calls.append(1)
            return np.arange(6, dtype=np.float32).reshape(2, 3)

        lazy = LazyTransmitted(2, factory)
        assert len(lazy) == 2
        assert not lazy.materialized
        assert not calls  # len() must not materialize
        np.testing.assert_array_equal(lazy[0], [0.0, 1.0, 2.0])
        assert calls == [1]
        assert lazy.materialized

    def test_factory_runs_once(self):
        counter = {"calls": 0}

        def factory():
            counter["calls"] += 1
            return np.zeros((3, 4), dtype=np.float32)

        lazy = LazyTransmitted(3, factory)
        list(lazy)
        lazy.matrix()
        _ = lazy[1]
        assert counter["calls"] == 1

    def test_iteration_and_stack(self):
        lazy = LazyTransmitted(2, lambda: np.ones((2, 5), dtype=np.float32))
        stacked = np.stack(list(lazy))
        assert stacked.shape == (2, 5)

    def test_rejects_wrong_shape(self):
        lazy = LazyTransmitted(2, lambda: np.ones(5, dtype=np.float32))
        with pytest.raises(ValueError, match="matrix"):
            lazy.matrix()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            LazyTransmitted(0, lambda: np.zeros((1, 1)))


class TestNormalization:
    def test_matches_closed_form(self):
        for depth in (0, 1, 5, 15):
            assert fwht_normalization(depth) == pytest.approx(
                1.0 / math.sqrt(2.0**depth)
            )
