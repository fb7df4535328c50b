"""Unit tests of the per-vector ring fold oracle (``tests/reference.py``)."""

import numpy as np
import pytest

from repro.collectives.ops import MeanOp, SaturatingSumOp, SumOp
from reference import ring_allreduce, ring_reduce_scatter, split_blocks


class TestSplitBlocks:
    def test_splits_evenly(self):
        blocks = split_blocks(np.arange(8), 4)
        assert len(blocks) == 4
        assert all(block.size == 2 for block in blocks)

    def test_uneven_split_preserves_all_elements(self):
        blocks = split_blocks(np.arange(10), 4)
        np.testing.assert_array_equal(np.concatenate(blocks), np.arange(10))

    def test_more_blocks_than_elements(self):
        blocks = split_blocks(np.arange(2), 4)
        assert len(blocks) == 4
        assert sum(block.size for block in blocks) == 2

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            split_blocks(np.arange(4), 0)


class TestRingAllReduce:
    def test_sum_matches_numpy(self):
        rng = np.random.default_rng(0)
        vectors = [rng.standard_normal(100) for _ in range(4)]
        result = ring_allreduce(vectors, SumOp())
        np.testing.assert_allclose(result, np.sum(vectors, axis=0), rtol=1e-12)

    def test_mean_matches_numpy(self):
        rng = np.random.default_rng(1)
        vectors = [rng.standard_normal(64) for _ in range(3)]
        result = ring_allreduce(vectors, MeanOp())
        np.testing.assert_allclose(result, np.mean(vectors, axis=0), rtol=1e-12)

    def test_single_worker_identity(self):
        vector = np.arange(10, dtype=float)
        np.testing.assert_allclose(ring_allreduce([vector]), vector)

    def test_default_op_is_sum(self):
        vectors = [np.ones(8), np.ones(8)]
        np.testing.assert_allclose(ring_allreduce(vectors), 2 * np.ones(8))

    def test_does_not_modify_inputs(self):
        vectors = [np.ones(6), 2 * np.ones(6)]
        copies = [v.copy() for v in vectors]
        ring_allreduce(vectors)
        for original, copy in zip(vectors, copies):
            np.testing.assert_array_equal(original, copy)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            ring_allreduce([])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            ring_allreduce([np.ones(4), np.ones(5)])

    def test_saturating_sum_clips(self):
        op = SaturatingSumOp(bits=4)
        vectors = [np.full(8, 6.0) for _ in range(4)]
        result = ring_allreduce(vectors, op)
        assert np.all(result == 7)

    def test_vector_shorter_than_world_size(self):
        vectors = [np.array([1.0, 2.0]) for _ in range(4)]
        np.testing.assert_allclose(ring_allreduce(vectors), [4.0, 8.0])


class TestRingReduceScatter:
    def test_blocks_cover_the_sum(self):
        rng = np.random.default_rng(2)
        vectors = [rng.standard_normal(32) for _ in range(4)]
        blocks = ring_reduce_scatter(vectors, SumOp())
        np.testing.assert_allclose(np.concatenate(blocks), np.sum(vectors, axis=0), rtol=1e-12)

    def test_number_of_blocks_equals_world_size(self):
        vectors = [np.ones(9) for _ in range(3)]
        assert len(ring_reduce_scatter(vectors)) == 3
