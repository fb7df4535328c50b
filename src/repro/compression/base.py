"""Common interface for gradient aggregation schemes.

The unit the paper reasons about is not "compress one vector" but "aggregate
the workers' gradients through the network and come back with an estimate of
their mean".  Different schemes use different protocols for that -- a single
FP16 ring all-reduce, an all-gather of (value, index) pairs, a two-stage
chunk-norm consensus, a saturating integer all-reduce, two low-rank
all-reduces -- and the protocol determines both the error and the cost.

:class:`AggregationScheme` is that protocol abstraction.  Each scheme:

* aggregates the per-worker gradients functionally (NumPy in, NumPy out)
  and reports the bits per coordinate ``b`` it put on the wire, the paper's
  communication-volume metric;
* prices a round analytically in :meth:`~AggregationScheme.estimate_costs`,
  the one place simulated seconds come from (:func:`price_round` schedules
  those estimates; ``aggregate`` computes values only).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.collectives.api import CollectiveBackend
from repro.compression.kernels import RoundWorkspace
from repro.simulator.kernel_cost import KernelCostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.cluster import ClusterSpec
    from repro.simulator.pipeline import PipelineResult


@dataclass
class SimContext:
    """Everything a scheme needs to aggregate gradients in simulation.

    Attributes:
        backend: The collective backend: its collectives fold values, and
            its ``cost_model`` prices them for ``estimate_costs``.
        kernels: Per-kernel GPU cost model used to price compression work.
        rng: Source of randomness (stochastic rounding, rotation seeds...).
        workspace: Preallocated scratch buffers reused across rounds by the
            kernels; a long-lived context (e.g. inside
            :class:`~repro.training.ddp.DDPTrainer`) allocates nothing on the
            hot path after its first round.
    """

    backend: CollectiveBackend
    kernels: KernelCostModel = field(default_factory=KernelCostModel)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    workspace: RoundWorkspace = field(default_factory=RoundWorkspace)

    @property
    def world_size(self) -> int:
        """Number of workers whose gradients are aggregated."""
        return self.backend.world_size

    @property
    def local_ranks(self) -> range:
        """The ranks whose gradient rows the caller holds (the backend's)."""
        return self.backend.local_ranks

    def for_cluster(
        self, cluster: ClusterSpec, *, rng: np.random.Generator | None = None
    ) -> SimContext:
        """A copy of this context on ``cluster`` (e.g. a scenario round's).

        On the same GPU, the kernel cost model (custom factors included)
        carries over.  ``rng`` defaults to a fresh seed-0 stream, which
        pricing never draws from.
        """
        kernels = (
            self.kernels
            if cluster.gpu == self.backend.cluster.gpu
            else KernelCostModel(gpu=cluster.gpu)
        )
        return SimContext(
            backend=CollectiveBackend(cluster),
            kernels=kernels,
            rng=rng if rng is not None else np.random.default_rng(0),
        )


@dataclass(frozen=True)
class AggregationResult:
    """What one aggregation round produced: values, not seconds.

    The round's simulated time is priced by
    :meth:`AggregationScheme.estimate_costs`.

    Attributes:
        mean_estimate: The scheme's estimate of the mean of the worker
            gradients (what the optimizer will apply).
        bits_per_coordinate: Communication volume ``b``: all-reduce (or
            all-gather / PS) input bits per gradient coordinate, summed over
            all communication stages of the protocol.
        per_worker_transmitted: For error feedback -- what each held
            worker's own contribution became after compression, expressed in
            the original gradient space, one row per rank of
            ``ctx.local_ranks``.  ``None`` when the scheme is lossless from the
            worker's perspective (precision baselines) or when the notion
            does not apply.  A scheme may return a
            :class:`~repro.compression.kernels.LazyTransmitted` sequence that
            defers the per-worker decompression until first access.
    """

    mean_estimate: np.ndarray
    bits_per_coordinate: float
    per_worker_transmitted: Sequence[np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.bits_per_coordinate < 0:
            raise ValueError("bits_per_coordinate must be non-negative")


@dataclass(frozen=True)
class CostEstimate:
    """Analytic per-round cost of a scheme on a ``d``-coordinate gradient.

    Used for the paper-scale throughput tables (BERT-large has 345M
    coordinates; pricing a round does not require materialising a vector of
    that size).

    Attributes:
        compression_seconds: Compression + decompression kernel time on one
            worker's critical path.
        communication_seconds: Collective completion time, all stages summed.
        bits_per_coordinate: Wire volume ``b`` of the protocol.
    """

    compression_seconds: float
    communication_seconds: float
    bits_per_coordinate: float

    def __post_init__(self) -> None:
        if min(self.compression_seconds, self.communication_seconds) < 0:
            raise ValueError("times must be non-negative")
        if self.bits_per_coordinate < 0:
            raise ValueError("bits_per_coordinate must be non-negative")

    @property
    def total_seconds(self) -> float:
        """Compression plus communication time (no training compute)."""
        return self.compression_seconds + self.communication_seconds


def price_round(
    scheme: AggregationScheme,
    num_coordinates: int,
    compute_seconds: float,
    ctx: SimContext,
    *,
    num_buckets: int = 1,
    deadline_seconds: float | None = None,
) -> tuple[CostEstimate, PipelineResult]:
    """Price one training round of ``scheme`` on ``ctx``'s cluster.

    One bucket serializes compute, compression and communication; more
    buckets pipeline their collectives with the backward pass
    (:mod:`repro.simulator.pipeline`).  A round running past
    ``deadline_seconds`` is aborted there.  Returns the cost breakdown
    (summed over buckets) and the simulated schedule.
    """
    from repro.simulator.pipeline import (
        bucketed_schedule,
        serialized_schedule,
        simulate_schedule,
    )

    bucket_costs = scheme.estimate_bucket_costs(num_coordinates, num_buckets, ctx)
    costs = CostEstimate(
        compression_seconds=sum(b.compression_seconds for b in bucket_costs),
        communication_seconds=sum(b.communication_seconds for b in bucket_costs),
        bits_per_coordinate=bucket_costs[0].bits_per_coordinate,
    )
    if len(bucket_costs) == 1:
        schedule = serialized_schedule(
            compute_seconds, costs.compression_seconds, costs.communication_seconds
        )
    else:
        schedule = bucketed_schedule(
            compute_seconds,
            [(b.compression_seconds, b.communication_seconds) for b in bucket_costs],
        )
    return costs, simulate_schedule(
        schedule, ctx.backend.cluster, deadline_seconds=deadline_seconds
    )


class AggregationScheme(abc.ABC):
    """A gradient aggregation protocol (compression + collective)."""

    #: Short identifier used in experiment tables and the registry.
    name: str = "abstract"

    def aggregate(
        self, worker_gradients: list[np.ndarray], ctx: SimContext
    ) -> AggregationResult:
        """Aggregate the held workers' gradients into a mean estimate.

        ``worker_gradients`` holds one gradient per rank of
        ``ctx.local_ranks``: every worker's in the simulator, the rank's own
        on a bridge rank.  Validates the list and runs :meth:`aggregate_rows`
        on it.  Implementations must not modify the input gradients.
        """
        d, _ = self._validate_gradients(worker_gradients, len(ctx.local_ranks))
        return self.aggregate_rows(worker_gradients, ctx, d)

    def aggregate_matrix(
        self, matrix: np.ndarray, ctx: SimContext
    ) -> AggregationResult:
        """Aggregate a stacked ``(len(ctx.local_ranks), d)`` gradient matrix.

        Validates the matrix and runs :meth:`aggregate_rows` on it; wrappers
        (error feedback) hand their held rows over in one piece.
        Implementations must not modify ``matrix``.
        """
        _, d = self._validate_matrix(matrix, len(ctx.local_ranks))
        return self.aggregate_rows(matrix, ctx, d)

    @abc.abstractmethod
    def aggregate_rows(self, rows, ctx: SimContext, d: int) -> AggregationResult:
        """The scheme's one aggregation body, over validated held rows.

        ``rows`` is a ``(len(ctx.local_ranks), d)`` matrix or a list of
        length-``d`` vectors, one per held rank, only read.  The body encodes
        just those rows and learns the others' contributions only through
        the collectives; every ``n`` it divides a mean by, sizes a
        saturation headroom or a wire dtype with is ``ctx.world_size``.  A
        ``per_worker_transmitted`` report covers the held rows.
        """

    @abc.abstractmethod
    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        """The analytic ``b`` this scheme puts on the wire for a ``d``-sized gradient."""

    @abc.abstractmethod
    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        """Price one aggregation round analytically, without gradient data.

        This is how the paper-scale throughput tables are produced: the
        kernel and collective cost models are evaluated at the real model
        size (hundreds of millions of coordinates) even though the functional
        simulation runs on smaller gradients.  The estimate must depend on
        ``num_coordinates`` and ``ctx`` alone: bucket pricing reuses one
        estimate for every bucket of a size.
        """

    def estimate_bucket_costs(
        self, num_coordinates: int, num_buckets: int, ctx: SimContext
    ) -> list[CostEstimate]:
        """Price one round split into up to ``num_buckets`` gradient buckets.

        The bucketed pipeline simulator (:mod:`repro.simulator.pipeline`)
        interleaves these with backward compute.  The default partitions the
        coordinates into near-equal buckets and prices each independently
        (each bucket pays its own collective latency, so the bucket times
        never sum to less than one monolithic round); layer-structured
        schemes (PowerSGD) override this to partition whole layers instead.
        Implementations may return fewer buckets than requested, never more.

        A near-equal split has at most two distinct sizes, so each distinct
        size is priced once and its frozen estimate repeated in bucket order.
        """
        from repro.simulator.pipeline import split_coordinates

        if num_buckets <= 1:
            return [self.estimate_costs(num_coordinates, ctx)]
        sizes = split_coordinates(num_coordinates, num_buckets)
        priced = {size: self.estimate_costs(size, ctx) for size in dict.fromkeys(sizes)}
        return [priced[size] for size in sizes]

    def describe(self) -> str:
        """Human-readable one-line description (used in reports)."""
        return self.name

    def spec(self) -> str:
        """The canonical spec string of this instance.

        Round-trippable: ``make_scheme(scheme.spec())`` builds an identically
        configured scheme.  Provided automatically for every class registered
        with :func:`repro.compression.spec.register`.
        """
        family = getattr(type(self), "_spec_family", None)
        if family is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no spec-language registration; "
                "decorate the class with @repro.compression.spec.register(...)"
            )
        return family.format_instance(self)

    # ------------------------------------------------------------------ #
    # Shared validation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_matrix(matrix: np.ndarray, num_rows: int) -> tuple[int, int]:
        """Check a stacked worker matrix and return ``(num_rows, d)``."""
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D (one row per worker)")
        if matrix.shape[0] != num_rows:
            raise ValueError(
                f"expected {num_rows} worker rows, got {matrix.shape[0]}"
            )
        if matrix.shape[1] == 0:
            raise ValueError("gradients must be non-empty")
        return matrix.shape[0], matrix.shape[1]

    @staticmethod
    def _gather_rows(
        rows: "np.ndarray | list[np.ndarray]", out: np.ndarray
    ) -> np.ndarray:
        """Copy worker rows (a matrix or a list of vectors) into ``out``.

        Casting follows the destination dtype -- this is where a kernel
        drops to its float32 compute precision.
        """
        for index in range(out.shape[0]):
            np.copyto(out[index], rows[index], casting="unsafe")
        return out

    @staticmethod
    def _validate_gradients(
        worker_gradients: list[np.ndarray], num_rows: int
    ) -> tuple[int, np.dtype]:
        """Check shapes/ranks and return (num_coordinates, dtype)."""
        if len(worker_gradients) != num_rows:
            raise ValueError(
                f"expected {num_rows} worker gradients, got {len(worker_gradients)}"
            )
        first = worker_gradients[0]
        if first.ndim != 1:
            raise ValueError("gradients must be flat 1-D vectors")
        for grad in worker_gradients[1:]:
            if grad.shape != first.shape:
                raise ValueError("all worker gradients must have the same shape")
        if first.size == 0:
            raise ValueError("gradients must be non-empty")
        return first.size, first.dtype
