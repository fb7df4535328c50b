"""Cluster description: how many nodes, GPUs per node, and interconnects.

The paper's testbed ("two nodes, each equipped with two NVIDIA A100 GPUs and a
Mellanox ConnectX-6 100 Gbps NIC") is available as :func:`paper_testbed`.
Larger synthetic clusters can be built for the scalability ablations.

Heterogeneity -- stragglers (slower compute) and mixed NIC tiers -- is stated
one way: ``worker_classes``, a handful of contiguous :class:`WorkerClass`
blocks with counts (``None`` is an all-nominal population).  The population
is stored as canonical run-length-encoded profile segments
(:meth:`ClusterSpec.profile_segments`), so every profile query
(:meth:`ClusterSpec.profile_of`, :meth:`ClusterSpec.max_slowdown`,
:meth:`ClusterSpec.worst_nic_scale`, :meth:`ClusterSpec.slowdown_segments`)
is O(#segments), and fleet-scale clusters -- 100k to 1M workers on a
generated fabric -- price without any O(world_size) loop.  Single-rank
perturbations (:meth:`ClusterSpec.with_straggler`,
:meth:`ClusterSpec.with_nic_tier`) and the scenario and recovery rewrites
splice ranks or rank ranges into those segments (:meth:`ClusterSpec.splice`).

Equality, hashing and :meth:`ClusterSpec.cache_key` go through the canonical
segments, so two class lists that spell the same per-rank population (split
or merged blocks, explicit nominal classes) are one cluster and memoize as
one sweep point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable, Iterable

from repro.simulator.gpu import GpuModel
from repro.simulator.nic import NVLINK, NicModel
from repro.topology.fabric import (
    FabricSpec,
    dcell_fabric,
    dcell_size,
    fat_tree_fabric,
    torus_fabric,
    two_tier_fabric,
)

#: Largest world size the simulator treats rank by rank: at or below it churn
#: draws one uniform per worker and the pipeline reports one finish time per
#: worker; above it both work per profile segment, keeping fleet-scale rounds
#: O(#segments).
PER_RANK_LIMIT = 4096


@dataclass(frozen=True)
class WorkerProfile:
    """Per-worker deviation from the cluster's nominal hardware.

    Attributes:
        slowdown: Multiplier on the worker's compute and kernel times
            (1.0 = nominal, 1.5 = a straggler running 50 % slower).
        nic_scale: Multiplier on the transfer time of collectives this worker
            participates in (1.0 = the cluster's nominal NIC tier, 4.0 = a
            quarter-bandwidth NIC).  Ring-style collectives run at the pace
            of the slowest member, so the worst ``nic_scale`` gates the wire.

    Both must be positive; NaN is rejected, infinity (a dead worker) is not.
    """

    slowdown: float = 1.0
    nic_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.slowdown > 0:
            raise ValueError("slowdown must be positive")
        if not self.nic_scale > 0:
            raise ValueError("nic_scale must be positive")


#: The nominal profile every unlisted worker runs.
NOMINAL_PROFILE = WorkerProfile()


@dataclass(frozen=True)
class WorkerClass:
    """A contiguous block of ``count`` workers sharing one profile.

    A population is a few of these (nominal hosts, a slow NIC tier, a batch
    of stragglers) instead of a million per-rank entries.  Classes cover
    ranks contiguously in declaration order; a class of one worker names a
    single rank.

    Attributes:
        count: Number of consecutive ranks in this class (>= 1).
        profile: The hardware deviation every member runs.
    """

    count: int
    profile: WorkerProfile = field(default_factory=WorkerProfile)

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or isinstance(self.count, bool):
            raise TypeError("count must be an int")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not isinstance(self.profile, WorkerProfile):
            raise TypeError(f"profile must be a WorkerProfile, got {self.profile!r}")


def classes_of(segments: Iterable[tuple[WorkerProfile, int]]) -> tuple[WorkerClass, ...] | None:
    """The ``worker_classes`` spelling ``segments``; ``None`` when all nominal."""
    classes = tuple(WorkerClass(count, profile) for profile, count in segments)
    if all(entry.profile == NOMINAL_PROFILE for entry in classes):
        return None
    return classes


@dataclass(frozen=True, eq=False)
class ClusterSpec:
    """A GPU cluster, homogeneous by default.

    Attributes:
        num_nodes: Number of physical machines.
        gpus_per_node: GPUs (workers) per machine.
        gpu: Performance model shared by all GPUs.
        inter_node_nic: NIC connecting different machines.
        intra_node_nic: Interconnect between GPUs in the same machine
            (NVLink-like by default).
        worker_classes: Optional heterogeneity: contiguous
            :class:`WorkerClass` blocks whose counts sum to ``world_size``
            (``None`` = every worker nominal).  Profile queries stay
            O(#classes) no matter the world size.
        fabric: Optional multi-rack fabric the nodes hang off
            (:class:`~repro.topology.fabric.FabricSpec`).  ``None`` -- or a
            flat fabric (one rack, oversubscription 1.0) -- prices exactly
            like the historical single-switch cluster.  The fabric is part of
            the cluster's identity: :meth:`cache_key` distinguishes
            same-shape clusters with different fabrics.

    Equality and hashing are *canonical*: two clusters are equal when their
    shapes, hardware models, fabrics, and effective per-rank profiles match,
    however the class list splits or merges the population.
    """

    num_nodes: int = 2
    gpus_per_node: int = 2
    gpu: GpuModel = field(default_factory=GpuModel)
    inter_node_nic: NicModel = field(default_factory=NicModel)
    intra_node_nic: NicModel = NVLINK
    worker_classes: tuple[WorkerClass, ...] | None = None
    fabric: FabricSpec | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.fabric is not None:
            if self.fabric.num_racks > self.num_nodes:
                raise ValueError(
                    f"fabric has {self.fabric.num_racks} racks but the cluster "
                    f"only has {self.num_nodes} nodes"
                )
            if self.num_nodes % self.fabric.num_racks != 0:
                raise ValueError(
                    f"num_nodes ({self.num_nodes}) must divide evenly into "
                    f"{self.fabric.num_racks} racks"
                )
        if self.worker_classes is not None:
            classes = tuple(self.worker_classes)
            for entry in classes:
                if not isinstance(entry, WorkerClass):
                    raise TypeError(f"not a WorkerClass: {entry!r}")
            covered = sum(entry.count for entry in classes)
            if covered != self.world_size:
                raise ValueError(
                    f"worker_classes must cover exactly {self.world_size} "
                    f"workers, cover {covered}"
                )
            object.__setattr__(self, "worker_classes", classes)

    def _cached(self, attr: str, build):
        # Lazy derived state on a frozen dataclass (canonical segments, their
        # starts, the hash).  Safe under concurrent access: builders are
        # pure, so racing threads compute identical values.
        cached = self.__dict__.get(attr)
        if cached is None:
            cached = build()
            object.__setattr__(self, attr, cached)
        return cached

    @property
    def world_size(self) -> int:
        """Total number of workers (GPUs) in the cluster."""
        return self.num_nodes * self.gpus_per_node

    # ------------------------------------------------------------------ #
    # Canonical profile identity
    # ------------------------------------------------------------------ #
    def profile_segments(self) -> tuple[tuple[WorkerProfile, int], ...]:
        """Canonical run-length encoding of the per-rank profiles.

        ``((profile, count), ...)`` in rank order with adjacent equal
        classes merged: the form both the equality / cache identity and
        every O(#segments) query are built on.  Computed once and cached.
        """
        return self._cached("_segments_cache", self._build_segments)

    def _build_segments(self) -> tuple[tuple[WorkerProfile, int], ...]:
        if self.worker_classes is None:
            return ((NOMINAL_PROFILE, self.world_size),)
        merged: list[tuple[WorkerProfile, int]] = []
        for entry in self.worker_classes:
            if merged and merged[-1][0] == entry.profile:
                merged[-1] = (entry.profile, merged[-1][1] + entry.count)
            else:
                merged.append((entry.profile, entry.count))
        return tuple(merged)

    def _canonical_profiles(self) -> tuple[tuple[WorkerProfile, int], ...] | None:
        """The profile part of the identity: ``None`` for all-nominal clusters."""
        segments = self.profile_segments()
        if len(segments) == 1 and segments[0][0] == NOMINAL_PROFILE:
            return None
        return segments

    def cache_key(self) -> tuple:
        """A hashable key capturing the cluster's *full* identity.

        Two clusters with the same shape but different GPUs, NICs, worker
        profiles, or fabrics produce different keys -- unlike the display
        label (``"2x2"``), which only encodes shape and rack count.  The
        profile component is the canonical segment encoding, so class lists
        spelling one population share one key (and therefore one sweep memo
        entry, one service digest, one scenario pricing slot).  Used by
        sweep memoization.
        """
        return (
            self.num_nodes,
            self.gpus_per_node,
            self.gpu,
            self.inter_node_nic,
            self.intra_node_nic,
            self._canonical_profiles(),
            self.fabric,
        )

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, ClusterSpec):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return self._cached("_hash_cache", lambda: hash(self.cache_key()))

    # ------------------------------------------------------------------ #
    # Profile queries (O(#segments))
    # ------------------------------------------------------------------ #
    @property
    def is_heterogeneous(self) -> bool:
        """Whether any worker deviates from the nominal hardware."""
        return self._canonical_profiles() is not None

    def _segment_starts(self) -> list[int]:
        return self._cached(
            "_segment_starts_cache",
            lambda: list(
                accumulate((count for _, count in self.profile_segments()[:-1]), initial=0)
            ),
        )

    def profile_of(self, rank: int) -> WorkerProfile:
        """The heterogeneity profile of worker ``rank``."""
        self._check_rank(rank)
        index = bisect_right(self._segment_starts(), rank) - 1
        return self.profile_segments()[index][0]

    def slowdown_of(self, rank: int) -> float:
        """Compute/kernel slowdown factor of worker ``rank``."""
        return self.profile_of(rank).slowdown

    def max_slowdown(self) -> float:
        """Slowdown of the cluster's slowest worker (the straggler)."""
        segments = self._canonical_profiles()
        if segments is None:
            return 1.0
        return max(profile.slowdown for profile, _ in segments)

    def worst_nic_scale(self) -> float:
        """Transfer-time multiplier of the slowest NIC tier in the cluster.

        Cached: the collective cost model asks for it several times per
        priced round.
        """

        def build() -> float:
            segments = self._canonical_profiles()
            if segments is None:
                return 1.0
            return max(profile.nic_scale for profile, _ in segments)

        return self._cached("_worst_nic_scale_cache", build)

    def slowdown_segments(self) -> tuple[tuple[float, int], ...]:
        """Run-length encoded per-rank slowdowns, ``((slowdown, count), ...)``.

        The pipeline simulator's class summary: one entry per maximal run of
        equal slowdowns in rank order.  Cached, so repeated rounds of a
        simulation reuse it without re-walking the population.
        """

        def build() -> tuple[tuple[float, int], ...]:
            runs: list[tuple[float, int]] = []
            for profile, count in self.profile_segments():
                if runs and runs[-1][0] == profile.slowdown:
                    runs[-1] = (profile.slowdown, runs[-1][1] + count)
                else:
                    runs.append((profile.slowdown, count))
            return tuple(runs)

        return self._cached("_slowdown_segments_cache", build)

    # ------------------------------------------------------------------ #
    # Population rewrites (O(#segments + #edits))
    # ------------------------------------------------------------------ #
    def splice(
        self, edits: Iterable[tuple[int, int, Callable[[WorkerProfile], WorkerProfile]]]
    ) -> "ClusterSpec":
        """A copy where every rank of each ``[start, stop)`` runs ``rewrite(profile)``.

        ``edits`` are ``(start, stop, rewrite)`` triples over ascending,
        disjoint, non-empty rank ranges.  Each range is spliced into the
        canonical segments -- at most two segments split per range, the rest
        are reused -- and ``rewrite`` is called once per segment piece with
        that piece's current profile.
        """
        edits = list(edits)
        previous = 0
        for start, stop, _ in edits:
            if not previous <= start < stop:
                raise ValueError(
                    "splice edits must be ascending, disjoint, non-empty rank ranges"
                )
            previous = stop
        if previous > self.world_size:
            self._check_rank(previous - 1)

        # Empty pieces are dropped; a piece may repeat its neighbour's
        # profile, which the new cluster's canonical segments merge.
        spliced: list[tuple[WorkerProfile, int]] = []
        cursor = 0  # index of the first edit not yet fully applied
        position = 0
        for profile, count in self.profile_segments():
            end = position + count
            at = position
            while cursor < len(edits) and edits[cursor][0] < end:
                start, stop, rewrite = edits[cursor]
                low, high = max(start, at), min(stop, end)
                spliced += [(profile, low - at), (rewrite(profile), high - low)]
                at = high
                if stop > end:  # the range runs on into the next segment
                    break
                cursor += 1
            spliced.append((profile, end - at))
            position = end
        return replace(self, worker_classes=classes_of(piece for piece in spliced if piece[1]))

    def with_straggler(self, rank: int, slowdown: float) -> "ClusterSpec":
        """A copy of this cluster where worker ``rank`` runs ``slowdown`` x slower."""
        self._check_rank(rank)
        return self.splice([(rank, rank + 1, lambda profile: replace(profile, slowdown=slowdown))])

    def with_nic_tier(self, rank: int, nic_scale: float) -> "ClusterSpec":
        """A copy of this cluster where worker ``rank`` has a ``nic_scale`` x slower NIC."""
        self._check_rank(rank)
        return self.splice(
            [(rank, rank + 1, lambda profile: replace(profile, nic_scale=nic_scale))]
        )

    def with_fabric(self, fabric: FabricSpec | None) -> "ClusterSpec":
        """A copy of this cluster behind the given multi-rack fabric."""
        return replace(self, fabric=fabric)

    # ------------------------------------------------------------------ #
    # Fabric / rack structure
    # ------------------------------------------------------------------ #
    @property
    def num_racks(self) -> int:
        """Number of racks the nodes are partitioned into (1 without a fabric)."""
        return self.fabric.num_racks if self.fabric is not None else 1

    @property
    def nodes_per_rack(self) -> int:
        """Nodes behind each ToR switch."""
        return self.num_nodes // self.num_racks

    @property
    def workers_per_rack(self) -> int:
        """Workers (GPUs) behind each ToR switch."""
        return self.nodes_per_rack * self.gpus_per_node

    @property
    def has_active_fabric(self) -> bool:
        """Whether a non-flat fabric constrains this cluster's collectives."""
        return self.fabric is not None and not self.fabric.is_flat

    def rack_of(self, rank: int) -> int:
        """Rack index hosting worker ``rank`` (0 without a fabric)."""
        return self.node_of(rank) // self.nodes_per_rack

    def same_rack(self, rank_a: int, rank_b: int) -> bool:
        """Whether two workers sit behind the same ToR switch."""
        return self.rack_of(rank_a) == self.rack_of(rank_b)

    def rack_assignment(self) -> list[int]:
        """The rack index of every rank, in rank order."""
        return [self.rack_of(rank) for rank in range(self.world_size)]

    def node_of(self, rank: int) -> int:
        """Node index hosting worker ``rank``."""
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """Whether two workers share a machine (and thus the fast interconnect)."""
        return self.node_of(rank_a) == self.node_of(rank_b)

    def link_between(self, rank_a: int, rank_b: int) -> NicModel:
        """The interconnect model used for traffic between two workers."""
        if rank_a == rank_b:
            raise ValueError("no link between a worker and itself")
        return self.intra_node_nic if self.same_node(rank_a, rank_b) else self.inter_node_nic

    def bottleneck_bandwidth_gbps(self) -> float:
        """Bandwidth of the slowest link class present in the cluster."""
        if self.num_nodes > 1:
            return self.inter_node_nic.bandwidth_gbps / self.worst_nic_scale()
        return self.intra_node_nic.bandwidth_gbps / self.worst_nic_scale()

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world size {self.world_size}")


def paper_testbed() -> ClusterSpec:
    """The testbed used throughout the paper's case study.

    Two nodes, two A100s each, 100 Gbps inter-node NICs, NVLink intra-node.
    """
    return ClusterSpec(num_nodes=2, gpus_per_node=2)


def scale_out_cluster(num_nodes: int, gpus_per_node: int = 8) -> ClusterSpec:
    """A larger cluster preset for scalability ablations."""
    return ClusterSpec(num_nodes=num_nodes, gpus_per_node=gpus_per_node)


def multirack_cluster(
    num_racks: int,
    nodes_per_rack: int = 2,
    gpus_per_node: int = 2,
    *,
    oversubscription: float = 2.0,
) -> ClusterSpec:
    """A multi-rack preset: ``num_racks`` racks behind an oversubscribed spine.

    Each rack holds ``nodes_per_rack`` paper-testbed nodes; the fabric is a
    conventional two-tier ToR + spine design
    (:func:`repro.topology.fabric.two_tier_fabric`).
    """
    return ClusterSpec(
        num_nodes=num_racks * nodes_per_rack,
        gpus_per_node=gpus_per_node,
        fabric=two_tier_fabric(num_racks, oversubscription),
    )


# --------------------------------------------------------------------------- #
# Fleet-scale presets on generated fabrics
# --------------------------------------------------------------------------- #
def fat_tree_cluster(
    k: int,
    gpus_per_node: int = 2,
    *,
    oversubscription: float = 1.0,
    worker_classes: tuple[WorkerClass, ...] | None = None,
) -> ClusterSpec:
    """A k-ary fat-tree fleet: ``k^3 / 4`` hosts in ``k^2 / 2`` racks.

    Each edge switch fronts ``k / 2`` hosts; one pod (``k / 2`` racks) is a
    failure domain the scenario engine's ``domain_fail`` event can target.
    ``fat_tree_cluster(128, gpus_per_node=2)`` is a 1,048,576-worker fleet
    whose pricing stays O(#classes).
    """
    return ClusterSpec(
        num_nodes=(k**3) // 4,
        gpus_per_node=gpus_per_node,
        fabric=fat_tree_fabric(k, oversubscription=oversubscription),
        worker_classes=worker_classes,
    )


def torus_cluster(
    dims: tuple[int, ...] = (8, 8, 8),
    nodes_per_rack: int = 2,
    gpus_per_node: int = 2,
    *,
    worker_classes: tuple[WorkerClass, ...] | None = None,
) -> ClusterSpec:
    """A torus fleet: one rack of ``nodes_per_rack`` hosts per torus vertex.

    The failure domain is a plane perpendicular to the first dimension (all
    vertices sharing the first coordinate).
    """
    return ClusterSpec(
        num_nodes=math.prod(dims) * nodes_per_rack,
        gpus_per_node=gpus_per_node,
        fabric=torus_fabric(dims),
        worker_classes=worker_classes,
    )


def dcell_cluster(
    n: int = 4,
    level: int = 2,
    gpus_per_node: int = 2,
    *,
    worker_classes: tuple[WorkerClass, ...] | None = None,
) -> ClusterSpec:
    """A DCell fleet: the recursive server-centric topology at ``level``.

    ``n`` servers per DCell_0 mini-switch; level ``l`` holds
    ``t_l = t_{l-1} * (t_{l-1} + 1)`` servers, so modest parameters reach
    datacenter scale (``dcell_cluster(32, 2)`` has 1,116,192 hosts).  One
    DCell_{level-1} is a failure domain.
    """
    return ClusterSpec(
        num_nodes=dcell_size(n, level),
        gpus_per_node=gpus_per_node,
        fabric=dcell_fabric(n, level),
        worker_classes=worker_classes,
    )
