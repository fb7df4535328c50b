"""The functional collectives: matrix folds, one row per worker.

Every all-reduce folds a stacked ``(n, d)`` matrix with in-place combines on
views of its rows (block by block for the ring, so each accumulator block
stays in cache across its ``n - 1`` hops; full width for the tree and the
racks).  The fold order is the collective's per-hop order, so a
non-associative operator (the paper's saturating sum) is applied exactly as
a real collective would apply it, without a reordered copy of the matrix:

* :func:`ring_allreduce_matrix` -- ``d`` is split into ``n`` contiguous
  blocks; block ``j`` starts at worker ``(j + 1) % n`` and accumulates
  around the ring (the reduce-scatter schedule; the all-gather phase only
  copies reduced blocks);
* :func:`tree_allreduce_matrix` -- post-order over a binary
  :class:`~repro.collectives.topology.TreeTopology`;
* :func:`hierarchical_aggregate_matrix` -- rack-local rank-order folds, then
  rack-order across the spine (the order packets reach the ToR, then the
  spine).

The simulator and the bridge's aggregation server both fold through
:meth:`repro.collectives.api.CollectiveBackend.allreduce_matrix`, so the two
sides agree by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.ops import ReduceOp, SumOp
from repro.collectives.topology import TreeTopology


def ring_block_bounds(num_coordinates: int, num_workers: int) -> list[int]:
    """Boundaries of the ring's ``n`` contiguous blocks (``np.array_split`` layout)."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    base, extra = divmod(num_coordinates, num_workers)
    bounds = [0]
    for block in range(num_workers):
        bounds.append(bounds[-1] + base + (1 if block < extra else 0))
    return bounds


def ring_allreduce_matrix(matrix: np.ndarray, op: ReduceOp | None = None) -> np.ndarray:
    """Ring all-reduce over the rows of ``matrix`` (one row per worker).

    Applies the ring's per-hop, per-block order: block ``j`` of one
    accumulator starts as worker ``(j + 1) % n``'s block and folds in worker
    ``(j + 1 + hop) % n``'s block at hop ``hop``, straight from the rows of
    ``matrix`` -- ``n - 1`` in-place combines per block, and no rolled copy
    of the matrix.  ``matrix`` is not modified.
    """
    op = op or SumOp()
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D (one row per worker)")
    n, d = matrix.shape
    if n == 1:
        return op.finalize(np.array(matrix[0], copy=True), 1)
    bounds = ring_block_bounds(d, n)
    accumulator = np.empty(d, dtype=matrix.dtype)
    for j in range(n):
        lo, hi = bounds[j], bounds[j + 1]
        if lo == hi:
            continue
        block = accumulator[lo:hi]
        np.copyto(block, matrix[(j + 1) % n, lo:hi])
        for hop in range(1, n):
            op.combine_into(block, matrix[(j + 1 + hop) % n, lo:hi])
    return op.finalize(accumulator, n)


def tree_allreduce_matrix(matrix: np.ndarray, op: ReduceOp | None = None) -> np.ndarray:
    """Tree all-reduce over the rows of ``matrix``.

    A tree combines full-width rows (no blocking): the post-order fold runs
    over row views.
    """
    op = op or SumOp()
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D (one row per worker)")
    n = matrix.shape[0]
    topology = TreeTopology(world_size=n)

    def reduce_subtree(rank: int) -> np.ndarray:
        accumulator = np.array(matrix[rank], copy=True)
        for child in topology.children(rank):
            op.combine_into(accumulator, reduce_subtree(child))
        return accumulator

    return op.finalize(reduce_subtree(0), n)


def hierarchical_aggregate_matrix(
    matrix: np.ndarray,
    op: ReduceOp,
    rack_assignment: Sequence[int],
) -> np.ndarray:
    """Rack-local then cross-rack fold over the rows of ``matrix``.

    Each rack folds its members' rows in rank order, then the per-rack
    partials fold in rack order.  For associative operators the result equals
    a flat sum; for saturating operators it is exactly what switch-resident
    aggregation produces.  ``matrix`` is not modified.
    """
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D (one row per worker)")
    n = matrix.shape[0]
    if n == 0:
        raise ValueError("need at least one worker row")
    if len(rack_assignment) != n:
        raise ValueError(
            f"rack_assignment must have {n} entries, got {len(rack_assignment)}"
        )
    members_by_rack: dict[int, list[int]] = {}
    for rank in range(n):
        members_by_rack.setdefault(rack_assignment[rank], []).append(rank)

    rack_partials: list[np.ndarray] = []
    for rack in sorted(members_by_rack):
        members = members_by_rack[rack]
        partial = np.array(matrix[members[0]], copy=True)
        for rank in members[1:]:
            op.combine_into(partial, matrix[rank])
        rack_partials.append(partial)

    total = rack_partials[0]
    for partial in rack_partials[1:]:
        op.combine_into(total, partial)
    return op.finalize(total, n)
