"""Unit tests for the unified collective backend.

The backend has two entry points, ``allreduce_matrix`` and
``allgather_sections``; both return values only.  Their pricing lives in
:class:`~repro.collectives.cost_model.CollectiveCostModel` and is tested in
``test_cost_model.py``.
"""

import numpy as np
import pytest

from repro.collectives.api import Collective, CollectiveBackend
from repro.collectives.ops import MeanOp
from repro.simulator.cluster import paper_testbed


class TestCollectiveEnum:
    def test_members_are_the_fold_schedules(self):
        assert {collective.value for collective in Collective} == {
            "ring_allreduce",
            "tree_allreduce",
            "switch_aggregation",
        }


class TestBackendAllReduce:
    def test_ring_matches_mean(self, backend, worker_gradients, true_mean):
        aggregate = backend.allreduce_matrix(
            np.stack(worker_gradients), wire_bits_per_value=32, op=MeanOp()
        )
        assert isinstance(aggregate, np.ndarray)
        np.testing.assert_allclose(aggregate, true_mean, rtol=1e-4, atol=1e-5)

    def test_tree_collective(self, backend, worker_gradients):
        aggregate = backend.allreduce_matrix(
            np.stack(worker_gradients),
            wire_bits_per_value=16,
            collective=Collective.TREE_ALLREDUCE,
        )
        np.testing.assert_allclose(
            aggregate, np.sum(worker_gradients, axis=0), rtol=1e-4, atol=1e-5
        )

    def test_input_not_modified(self, backend, worker_gradients):
        matrix = np.stack(worker_gradients)
        before = matrix.copy()
        backend.allreduce_matrix(matrix, wire_bits_per_value=32)
        np.testing.assert_array_equal(matrix, before)

    def test_wrong_worker_count_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.allreduce_matrix(np.ones((1, 4)), wire_bits_per_value=32)

    def test_non_matrix_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.allreduce_matrix(np.ones(4), wire_bits_per_value=32)


class TestBackendAllGatherSections:
    def test_returns_all_payloads(self, backend):
        sections = [
            (np.full(3, rank, dtype=np.int64), np.full(3, float(rank)))
            for rank in range(4)
        ]
        gathered = backend.allgather_sections(sections, wire_bits_per_section=(32, 16))
        assert len(gathered) == 4
        np.testing.assert_array_equal(gathered[2][0], sections[2][0])
        np.testing.assert_array_equal(gathered[2][1], sections[2][1])

    def test_unequal_payload_sizes_allowed(self, backend):
        sections = [(np.ones(rank + 1),) for rank in range(4)]
        gathered = backend.allgather_sections(sections, wire_bits_per_section=(48,))
        assert [payload.size for (payload,) in gathered] == [1, 2, 3, 4]

    def test_gather_copies(self, backend):
        sections = [(np.ones(3),) for _ in range(4)]
        gathered = backend.allgather_sections(sections, wire_bits_per_section=(48,))
        gathered[0][0][0] = 99.0
        assert sections[0][0][0] == 1.0

    def test_wrong_worker_count_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.allgather_sections([(np.ones(3),)], wire_bits_per_section=(48,))

    def test_wrong_section_count_rejected(self, backend):
        sections = [(np.ones(3),) for _ in range(4)]
        with pytest.raises(ValueError):
            backend.allgather_sections(sections, wire_bits_per_section=(32, 16))


def test_backend_world_size():
    assert CollectiveBackend(paper_testbed()).world_size == 4
