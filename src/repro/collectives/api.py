"""Unified collective backend: functional result + simulated cost in one call.

:class:`CollectiveBackend` is what the DDP trainer and the experiments talk
to.  Each call takes the per-worker payloads (NumPy arrays) plus the number of
*wire bits per value*, performs the collective functionally, and prices it on
the configured cluster with the alpha-beta cost model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.collectives.allgather import allgather
from repro.collectives.batched import (
    hierarchical_aggregate_matrix,
    ring_allreduce_matrix,
    tree_allreduce_matrix,
)
from repro.collectives.cost_model import CollectiveCost, CollectiveCostModel
from repro.collectives.ops import ReduceOp, SumOp
from repro.collectives.parameter_server import ParameterServer
from repro.simulator.cluster import ClusterSpec, paper_testbed


class Collective(enum.Enum):
    """Aggregation schemes the paper discusses (plus in-network aggregation)."""

    RING_ALLREDUCE = "ring_allreduce"
    TREE_ALLREDUCE = "tree_allreduce"
    ALLGATHER = "allgather"
    PARAMETER_SERVER = "parameter_server"
    #: ToR/spine switches reduce quantized payloads in the network
    #: (:meth:`CollectiveCostModel.switch_aggregation`).
    SWITCH_AGGREGATION = "switch_aggregation"

    @property
    def is_allreduce(self) -> bool:
        """Whether this collective reduces payloads in flight."""
        return self in (
            Collective.RING_ALLREDUCE,
            Collective.TREE_ALLREDUCE,
            Collective.SWITCH_AGGREGATION,
        )


@dataclass(frozen=True)
class CollectiveResult:
    """Outcome of one collective invocation.

    Attributes:
        aggregate: The reduced vector every worker holds (all-reduce / PS), or
            None for all-gather, where aggregation happens at the caller.
        gathered: The list of gathered payloads (all-gather only).
        cost: Simulated communication cost.
    """

    aggregate: np.ndarray | None
    gathered: list[np.ndarray] | None
    cost: CollectiveCost


@dataclass(frozen=True)
class SectionedGatherResult:
    """Outcome of a sectioned all-gather (:meth:`CollectiveBackend.allgather_sections`).

    Attributes:
        gathered: Per worker, the tuple of section arrays that worker sent --
            exactly what every worker ends up holding after the gather.
        cost: Simulated communication cost of the whole exchange.
    """

    gathered: list[tuple[np.ndarray, ...]]
    cost: CollectiveCost


class CollectiveBackend:
    """Performs and prices collectives on a simulated cluster."""

    def __init__(self, cluster: ClusterSpec | None = None):
        self.cluster = cluster or paper_testbed()
        self.cost_model = CollectiveCostModel(self.cluster)

    @property
    def world_size(self) -> int:
        """Number of workers participating in every collective."""
        return self.cluster.world_size

    # ------------------------------------------------------------------ #
    def allreduce(
        self,
        worker_vectors: list[np.ndarray],
        *,
        wire_bits_per_value: float,
        op: ReduceOp | None = None,
        collective: Collective = Collective.RING_ALLREDUCE,
    ) -> CollectiveResult:
        """All-reduce the per-worker vectors and price the transfer.

        The vectors are stacked into one ``(n_workers, d)`` matrix and
        reduced by :meth:`allreduce_matrix`, the one fold.

        Args:
            worker_vectors: One equally shaped vector per worker.
            wire_bits_per_value: How many bits one vector element occupies on
                the wire (16 for FP16 payloads, ``b`` for b-bit integers...).
            op: Reduction operator; defaults to a plain sum.
            collective: Ring (default), tree, or in-network switch schedule.
        """
        self._check_world(worker_vectors)
        return self.allreduce_matrix(
            np.stack([np.asarray(vector) for vector in worker_vectors]),
            wire_bits_per_value=wire_bits_per_value,
            op=op,
            collective=collective,
        )

    def allreduce_cost(
        self, payload_bits: float, collective: Collective
    ) -> CollectiveCost:
        """The priced cost of :meth:`allreduce_matrix`, without the fold."""
        if collective is Collective.RING_ALLREDUCE:
            return self.cost_model.ring_allreduce(payload_bits)
        if collective is Collective.TREE_ALLREDUCE:
            return self.cost_model.tree_allreduce(payload_bits)
        if collective is Collective.SWITCH_AGGREGATION:
            return self.cost_model.switch_aggregation(payload_bits)
        raise ValueError(f"{collective} is not an all-reduce collective")

    def allreduce_matrix(
        self,
        matrix: np.ndarray,
        *,
        wire_bits_per_value: float,
        op: ReduceOp | None = None,
        collective: Collective = Collective.RING_ALLREDUCE,
    ) -> CollectiveResult:
        """All-reduce a stacked ``(n_workers, d)`` matrix, one row per worker.

        The folds of :mod:`repro.collectives.batched` apply the operator in
        the collective's per-hop order, which matters for non-associative
        (saturating) operators.  On a ring over an active multi-rack fabric
        the hierarchical schedule runs: fold rack-locally, then across racks,
        as the cost model prices it.  The input matrix is not modified.
        """
        self._check_matrix(matrix)
        op = op or SumOp()
        cost = self.allreduce_cost(matrix.shape[1] * wire_bits_per_value, collective)
        if collective is Collective.TREE_ALLREDUCE:
            aggregate = tree_allreduce_matrix(matrix, op)
        elif collective is Collective.RING_ALLREDUCE and not self.cluster.has_active_fabric:
            aggregate = ring_allreduce_matrix(matrix, op)
        else:
            aggregate = hierarchical_aggregate_matrix(
                matrix, op, self.cluster.rack_assignment()
            )
        return CollectiveResult(aggregate=aggregate, gathered=None, cost=cost)

    def allgather(
        self,
        worker_payloads: list[np.ndarray],
        *,
        wire_bits_per_value: float,
    ) -> CollectiveResult:
        """All-gather arbitrary (possibly unequal-sized) per-worker payloads."""
        if len(worker_payloads) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} payloads, got {len(worker_payloads)}"
            )
        gathered = allgather(worker_payloads)
        max_payload_bits = max(p.size for p in worker_payloads) * wire_bits_per_value
        cost = self.cost_model.allgather(max_payload_bits)
        return CollectiveResult(aggregate=None, gathered=gathered, cost=cost)

    def allgather_sections(
        self,
        worker_sections: list[tuple[np.ndarray, ...]],
        *,
        wire_bits_per_section: tuple[float, ...],
    ) -> SectionedGatherResult:
        """All-gather payloads made of heterogeneous sections per worker.

        Sparsification payloads are not one homogeneous array: TopK ships
        32-bit indices next to 16-bit values.  Each worker contributes a tuple
        of section arrays; section ``j`` travels at ``wire_bits_per_section[j]``
        bits per element.  The whole multi-section payload is exchanged as one
        all-gather, so the priced cost equals a single :meth:`allgather` of the
        same total volume (the historical single-array accounting).
        """
        if len(worker_sections) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} payloads, got {len(worker_sections)}"
            )
        num_sections = len(wire_bits_per_section)
        for sections in worker_sections:
            if len(sections) != num_sections:
                raise ValueError(
                    f"every worker must send {num_sections} sections, "
                    f"got {len(sections)}"
                )
        gathered = [
            tuple(np.array(section, copy=True) for section in sections)
            for sections in worker_sections
        ]
        max_payload_bits = max(
            sum(
                section.size * bits
                for section, bits in zip(sections, wire_bits_per_section)
            )
            for sections in worker_sections
        )
        cost = self.cost_model.allgather(max_payload_bits)
        return SectionedGatherResult(gathered=gathered, cost=cost)

    def parameter_server(
        self,
        worker_vectors: list[np.ndarray],
        *,
        wire_bits_per_value: float,
        downlink_bits_per_value: float | None = None,
        op: ReduceOp | None = None,
        num_servers: int = 1,
    ) -> CollectiveResult:
        """Aggregate at a (sharded) parameter server and broadcast the result."""
        self._check_world(worker_vectors)
        server = ParameterServer(num_shards=num_servers)
        aggregate = server.aggregate(worker_vectors, op or SumOp())
        payload_bits = worker_vectors[0].size * wire_bits_per_value
        downlink_bits = None
        if downlink_bits_per_value is not None:
            downlink_bits = worker_vectors[0].size * downlink_bits_per_value
        cost = self.cost_model.parameter_server(
            payload_bits, downlink_bits=downlink_bits, num_servers=num_servers
        )
        return CollectiveResult(aggregate=aggregate, gathered=None, cost=cost)

    # ------------------------------------------------------------------ #
    def _check_world(self, worker_vectors: list[np.ndarray]) -> None:
        if len(worker_vectors) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} worker vectors, got {len(worker_vectors)}"
            )

    def _check_matrix(self, matrix: np.ndarray) -> None:
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D (one row per worker)")
        if matrix.shape[0] != self.world_size:
            raise ValueError(
                f"expected {self.world_size} worker rows, got {matrix.shape[0]}"
            )
