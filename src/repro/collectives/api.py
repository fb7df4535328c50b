"""Unified collective backend: the fold every scheme's collectives run.

:class:`CollectiveBackend` is what the schemes talk to.  Each call takes the
payloads of the ranks its caller holds (one row per rank of
:attr:`~CollectiveBackend.local_ranks`) plus the number of *wire bits per
value* and returns the values every worker holds afterwards.  The simulator
holds every rank, so this backend folds all ``n`` rows; a bridge rank's
backend holds and sends its own.  It computes values only: a round's
simulated seconds come from the scheme's ``estimate_costs``, which prices
its collectives on :attr:`cost_model`.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.collectives.batched import (
    hierarchical_aggregate_matrix,
    ring_allreduce_matrix,
    tree_allreduce_matrix,
)
from repro.collectives.cost_model import CollectiveCostModel
from repro.collectives.ops import ReduceOp, SumOp
from repro.simulator.cluster import ClusterSpec, paper_testbed


class Collective(enum.Enum):
    """The all-reduce schedules a fold can run (plus in-network aggregation).

    All-gather and parameter-server schedules have no fold of their own:
    all-gather is :meth:`CollectiveBackend.allgather_sections`, and both are
    priced by :class:`CollectiveCostModel`.
    """

    RING_ALLREDUCE = "ring_allreduce"
    TREE_ALLREDUCE = "tree_allreduce"
    #: ToR/spine switches reduce quantized payloads in the network
    #: (:meth:`CollectiveCostModel.switch_aggregation`).
    SWITCH_AGGREGATION = "switch_aggregation"


class CollectiveBackend:
    """Performs collectives on a simulated cluster.

    :attr:`cost_model` prices the same cluster for ``estimate_costs``; the
    collectives themselves never read it.
    """

    def __init__(self, cluster: ClusterSpec | None = None):
        self.cluster = cluster or paper_testbed()
        self.cost_model = CollectiveCostModel(self.cluster)

    @property
    def world_size(self) -> int:
        """Number of workers participating in every collective."""
        return self.cluster.world_size

    @property
    def local_ranks(self) -> range:
        """The ranks whose rows the caller holds and passes in: all of them.

        Schemes run their kernels over exactly these rows; a backend that
        stands for one rank of a real deployment holds only that rank.
        """
        return range(self.world_size)

    # ------------------------------------------------------------------ #
    def allreduce_matrix(
        self,
        matrix: np.ndarray,
        *,
        wire_bits_per_value: float,
        op: ReduceOp | None = None,
        collective: Collective = Collective.RING_ALLREDUCE,
    ) -> np.ndarray:
        """All-reduce a stacked ``(len(local_ranks), d)`` matrix, one row per rank.

        Returns the aggregate every worker holds.  The folds of
        :mod:`repro.collectives.batched` apply the operator in the
        collective's per-hop order, which matters for non-associative
        (saturating) operators.  On a ring over an active multi-rack fabric
        the hierarchical schedule runs: fold rack-locally, then across racks,
        as the cost model prices it.  ``wire_bits_per_value`` is the width
        each value travels at: the bridge's transport encodes at it and its
        recorder counts it.  The input matrix is not modified.
        """
        self._check_matrix(matrix)
        op = op or SumOp()
        if collective is Collective.TREE_ALLREDUCE:
            return tree_allreduce_matrix(matrix, op)
        if collective is Collective.RING_ALLREDUCE and not self.cluster.has_active_fabric:
            return ring_allreduce_matrix(matrix, op)
        return hierarchical_aggregate_matrix(matrix, op, self.cluster.rack_assignment())

    def allgather_sections(
        self,
        worker_sections: list[tuple[np.ndarray, ...]],
        *,
        wire_bits_per_section: tuple[float, ...],
    ) -> list[tuple[np.ndarray, ...]]:
        """All-gather payloads made of heterogeneous sections per worker.

        Sparsification payloads are not one homogeneous array: TopK ships
        32-bit indices next to 16-bit values.  Each rank of
        :attr:`local_ranks` contributes a tuple of section arrays; section
        ``j`` travels at ``wire_bits_per_section[j]`` bits per element.
        Returns, for every worker of the world, the tuple of section arrays
        that worker sent -- exactly what every worker ends up holding.
        """
        self._check_count(len(worker_sections), "payloads")
        num_sections = len(wire_bits_per_section)
        for sections in worker_sections:
            if len(sections) != num_sections:
                raise ValueError(
                    f"every worker must send {num_sections} sections, "
                    f"got {len(sections)}"
                )
        return [
            tuple(np.array(section, copy=True) for section in sections)
            for sections in worker_sections
        ]

    # ------------------------------------------------------------------ #
    def _check_count(self, count: int, what: str) -> None:
        expected = len(self.local_ranks)
        if count != expected:
            raise ValueError(f"expected {expected} {what}, got {count}")

    def _check_matrix(self, matrix: np.ndarray) -> None:
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D (one row per worker)")
        self._check_count(matrix.shape[0], "worker rows")
