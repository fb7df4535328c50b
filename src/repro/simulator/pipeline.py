"""Bucketed, dependency-driven pipeline simulator for one training round.

The paper's headline claims are about *where round time goes*: compression
kernels and collective communication overlapping with the backward pass.  A
single "overlap fraction" scalar cannot express per-bucket pipelining,
stragglers, or heterogeneous clusters, so this module models the round the way
a real DDP engine executes it -- as a dependency graph of per-bucket events
scheduled on per-worker compute resources and a shared network resource:

* the backward pass produces gradient *buckets* progressively (``ready``
  times are inputs to the schedule);
* each worker compresses a bucket on its compression stream as soon as the
  bucket is ready and the stream is free;
* the collective for a bucket starts once **every** worker has finished
  compressing it and the network is free (collectives launch in bucket order
  and serialize on the wire, as NCCL channels do);
* decompression runs on a per-worker decompression stream once the collective
  completes, and the optimizer step follows the last bucket.

Heterogeneity comes from :class:`~repro.simulator.cluster.ClusterSpec` worker
profiles: a straggler's compute and kernel times are scaled by its slowdown
factor (which delays every collective that waits on it), while mixed NIC
tiers scale the priced collective times through the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.simulator.cluster import PER_RANK_LIMIT, ClusterSpec


@dataclass(frozen=True)
class BucketCost:
    """The priced work of one gradient bucket.

    Attributes:
        ready_seconds: When the backward pass makes this bucket's gradient
            available, on a nominal (slowdown 1.0) worker clock.
        compress_seconds: Compression kernel time for the bucket on one
            nominal worker.
        comm_seconds: Priced collective completion time for the bucket's
            payload (already includes any NIC-tier scaling from the cost
            model).
        decompress_seconds: Decompression kernel time after the collective.
        label: Optional display name of the bucket.
    """

    ready_seconds: float
    compress_seconds: float
    comm_seconds: float
    decompress_seconds: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if min(
            self.ready_seconds,
            self.compress_seconds,
            self.comm_seconds,
            self.decompress_seconds,
        ) < 0:
            raise ValueError("bucket times must be non-negative")


@dataclass(frozen=True)
class BucketTrace:
    """Scheduled times of one bucket (worker maxima for the kernel stages)."""

    index: int
    ready_seconds: float
    compress_end_seconds: float
    comm_start_seconds: float
    comm_end_seconds: float
    decompress_end_seconds: float


@dataclass(frozen=True)
class PipelineResult:
    """The outcome of scheduling one round's buckets.

    Attributes:
        makespan_seconds: Completion time of the whole round (the last event
            on any worker or on the wire).
        serialized_seconds: What the round would cost with no pipelining at
            all (every phase back-to-back on the slowest worker) -- the
            baseline the overlap is measured against.
        traces: Per-bucket scheduled times, in bucket order.
        worker_finish_seconds: Per-worker completion times (optimizer step
            included), in rank order.  On fleet-scale clusters (more than
            :data:`~repro.simulator.cluster.PER_RANK_LIMIT` workers) the
            tuple holds one entry per slowdown *segment* instead of per rank
            -- workers sharing a slowdown finish at identical times, so no
            information is lost and the result stays O(#classes).
        aborted: Whether a ``deadline_seconds`` abort fired: the round ran
            past the deadline and was cut off there (the recovery layer's
            ``timeout`` rule).  The makespan is then exactly the deadline;
            traces keep the un-aborted schedule for diagnosis.
    """

    makespan_seconds: float
    serialized_seconds: float
    traces: tuple[BucketTrace, ...]
    worker_finish_seconds: tuple[float, ...]
    aborted: bool = False

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the serialized round time hidden by pipelining."""
        if self.serialized_seconds <= 0:
            return 0.0
        return 1.0 - self.makespan_seconds / self.serialized_seconds

    def rounds_per_second(self) -> float:
        """Throughput implied by the makespan."""
        if self.makespan_seconds <= 0:
            raise ValueError("cannot compute throughput of an empty schedule")
        return 1.0 / self.makespan_seconds


def _worker_slowdowns(cluster: "ClusterSpec | None") -> tuple[tuple[float, int], ...]:
    """Run-length encoded ``(slowdown, count)`` segments of the population.

    O(#classes) on distributional clusters: the homogeneous short-circuit
    (``is_heterogeneous``) and the cached class summary
    (:meth:`~repro.simulator.cluster.ClusterSpec.slowdown_segments`) mean
    repeated simulated rounds never re-walk a million ranks.
    """
    if cluster is None:
        return ((1.0, 1),)
    if not cluster.is_heterogeneous:
        return ((1.0, cluster.world_size),)
    return cluster.slowdown_segments()


def simulate_schedule(
    buckets: Sequence[BucketCost],
    cluster: "ClusterSpec | None" = None,
    *,
    optimizer_seconds: float = 0.0,
    deadline_seconds: float | None = None,
) -> PipelineResult:
    """Schedule one round's buckets and return the exact makespan.

    A worker's compress/decompress trajectory depends only on its own
    slowdown (plus the shared wire clock), and every aggregate the result
    reports is a maximum over workers -- so the scheduler runs one *lane*
    per distinct slowdown value instead of one loop iteration per rank.
    The makespan is bit-exact with the per-rank loop at any world size,
    which is what lets million-worker fleets price in O(#classes).

    Args:
        buckets: Per-bucket costs, in backward-ready order.  Collectives are
            launched (and serialize on the network) in this order.
        cluster: Cluster whose worker profiles scale per-worker compute and
            kernel times; ``None`` simulates a single nominal worker.
        optimizer_seconds: Optimizer step time appended after the last
            bucket's decompression on every worker.
        deadline_seconds: Optional round deadline (the recovery layer's
            ``timeout`` rule).  A round whose makespan would exceed it is
            *aborted*: the result's makespan is clamped to the deadline and
            ``aborted`` is set.  ``None`` (the default) never aborts, and
            leaves every existing result bit-exact.

    Returns:
        A :class:`PipelineResult` with the makespan, the serialized
        reference time, and per-bucket traces.
    """
    if not buckets:
        raise ValueError("schedule needs at least one bucket")
    if optimizer_seconds < 0:
        raise ValueError("optimizer_seconds must be non-negative")
    if deadline_seconds is not None and deadline_seconds <= 0:
        raise ValueError("deadline_seconds must be positive")

    segments = _worker_slowdowns(cluster)
    # One lane of stream clocks per distinct slowdown: compression kernels
    # and decompression kernels run on separate in-order streams, as a real
    # engine enqueues them; workers sharing a slowdown share the trajectory.
    lanes: dict[float, list[float]] = {}
    for slowdown, _ in segments:
        lanes.setdefault(slowdown, [0.0, 0.0])

    traces: list[BucketTrace] = []
    comm_free = 0.0
    for index, bucket in enumerate(buckets):
        compress_end = 0.0
        for slowdown, lane in lanes.items():
            start = max(bucket.ready_seconds * slowdown, lane[0])
            lane[0] = start + bucket.compress_seconds * slowdown
            compress_end = max(compress_end, lane[0])
        comm_start = max(compress_end, comm_free)
        comm_free = comm_start + bucket.comm_seconds
        decompress_end = 0.0
        for slowdown, lane in lanes.items():
            start = max(comm_free, lane[1])
            lane[1] = start + bucket.decompress_seconds * slowdown
            decompress_end = max(decompress_end, lane[1])
        traces.append(
            BucketTrace(
                index=index,
                ready_seconds=bucket.ready_seconds,
                compress_end_seconds=compress_end,
                comm_start_seconds=comm_start,
                comm_end_seconds=comm_free,
                decompress_end_seconds=decompress_end,
            )
        )

    backward_end = buckets[-1].ready_seconds
    finish_by_lane = {}
    for slowdown, lane in lanes.items():
        kernels_done = max(backward_end * slowdown, lane[0], lane[1], comm_free)
        finish_by_lane[slowdown] = kernels_done + optimizer_seconds * slowdown

    total_workers = sum(count for _, count in segments)
    if total_workers <= PER_RANK_LIMIT:
        worker_finish = tuple(
            finish_by_lane[slowdown]
            for slowdown, count in segments
            for _ in range(count)
        )
    else:
        worker_finish = tuple(finish_by_lane[slowdown] for slowdown, _ in segments)

    serial_kernel_seconds = sum(
        b.compress_seconds + b.decompress_seconds for b in buckets
    )
    serial_comm_seconds = sum(b.comm_seconds for b in buckets)
    serialized = max(
        (backward_end + serial_kernel_seconds + optimizer_seconds) * slowdown
        + serial_comm_seconds
        for slowdown in lanes
    )
    makespan = max(finish_by_lane.values())
    aborted = deadline_seconds is not None and makespan > deadline_seconds
    if aborted:
        makespan = deadline_seconds
        worker_finish = tuple(min(finish, deadline_seconds) for finish in worker_finish)
    return PipelineResult(
        makespan_seconds=makespan,
        serialized_seconds=serialized,
        traces=tuple(traces),
        worker_finish_seconds=worker_finish,
        aborted=aborted,
    )


# ---------------------------------------------------------------------- #
# Schedule constructors
# ---------------------------------------------------------------------- #
def serialized_schedule(
    compute_seconds: float,
    compression_seconds: float,
    communication_seconds: float,
    decompression_seconds: float = 0.0,
) -> list[BucketCost]:
    """One bucket, ready only when the whole backward pass has finished.

    The makespan of this schedule is the plain sum of the phases -- the
    repo's historical (fully exposed) round model.
    """
    return [
        BucketCost(
            ready_seconds=compute_seconds,
            compress_seconds=compression_seconds,
            comm_seconds=communication_seconds,
            decompress_seconds=decompression_seconds,
            label="all",
        )
    ]


def split_coordinates(num_coordinates: int, num_buckets: int) -> list[int]:
    """Split ``num_coordinates`` into near-equal non-empty bucket sizes."""
    if num_coordinates <= 0:
        raise ValueError("num_coordinates must be positive")
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    num_buckets = min(num_buckets, num_coordinates)
    base, extra = divmod(num_coordinates, num_buckets)
    return [base + (1 if index < extra else 0) for index in range(num_buckets)]


def bucketed_schedule(
    compute_seconds: float,
    bucket_costs: Sequence[tuple[float, float] | tuple[float, float, float]],
) -> list[BucketCost]:
    """A pipelined schedule from per-bucket ``(compress, comm[, decompress])`` costs.

    Bucket ``i`` of ``B`` becomes ready at ``compute * (i + 1) / B``: the
    backward pass emits gradients progressively and the last bucket appears
    when compute ends, which is what lets early buckets' collectives hide
    behind the remaining compute.
    """
    if not bucket_costs:
        raise ValueError("need at least one bucket cost")
    if compute_seconds < 0:
        raise ValueError("compute_seconds must be non-negative")
    num_buckets = len(bucket_costs)
    schedule = []
    for index, cost in enumerate(bucket_costs):
        compress, comm = cost[0], cost[1]
        decompress = cost[2] if len(cost) > 2 else 0.0
        schedule.append(
            BucketCost(
                ready_seconds=compute_seconds * (index + 1) / num_buckets,
                compress_seconds=compress,
                comm_seconds=comm,
                decompress_seconds=decompress,
                label=f"bucket{index}",
            )
        )
    return schedule
