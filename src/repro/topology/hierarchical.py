"""Phase/tier accounting of hierarchical collectives over a multi-rack fabric.

The cost model returns these breakdowns so the property suite can check
traffic conservation tier by tier (bits entering a tier equal bits leaving
it plus the aggregated delta).  The functional rack-by-rack fold lives with
the other matrix folds in :mod:`repro.collectives.batched`
(:func:`~repro.collectives.batched.hierarchical_aggregate_matrix`).

The pricing itself lives on
:class:`~repro.collectives.cost_model.CollectiveCostModel`, which consults
the cluster's :class:`~repro.topology.fabric.FabricSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass


# --------------------------------------------------------------------------- #
# Phase / tier accounting
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PhaseCost:
    """One timed phase of a hierarchical schedule.

    Attributes:
        name: Phase label (``"rack_reduce_scatter"``, ``"spine_allreduce"``,
            ``"tor_upload"``...).
        seconds: Simulated completion time of the phase.
        steps: Communication steps the phase takes.
        bits_sent_per_worker: Bits one participating worker pushes into the
            network during the phase (0 for switch-internal phases).
    """

    name: str
    seconds: float
    steps: int
    bits_sent_per_worker: float = 0.0

    def __post_init__(self) -> None:
        if self.seconds < 0 or self.bits_sent_per_worker < 0 or self.steps < 0:
            raise ValueError("phase components must be non-negative")


@dataclass(frozen=True)
class TierTraffic:
    """Aggregation-path traffic through one fabric tier (the up direction).

    The conservation law the property suite enforces: the bits entering a
    tier equal the bits leaving it plus the bits the tier absorbed by
    aggregating (``aggregated_bits``).  A forwarding-only tier (host-side
    collectives, where switches never touch payloads) absorbs nothing.

    Attributes:
        tier: Tier label (``"tor"``, ``"spine"``).
        fan_in: Number of streams the tier merges (hosts per ToR, racks per
            spine).
        bits_in: Bits entering the tier on the aggregation (up) path.
        bits_out: Bits leaving the tier towards the next tier up.
        aggregates: Whether the tier reduces payloads (in-network mode) or
            merely forwards them (host-side collectives).
    """

    tier: str
    fan_in: int
    bits_in: float
    bits_out: float
    aggregates: bool

    def __post_init__(self) -> None:
        if self.fan_in < 1:
            raise ValueError("fan_in must be >= 1")
        if self.bits_in < 0 or self.bits_out < 0:
            raise ValueError("tier traffic must be non-negative")

    @property
    def aggregated_bits(self) -> float:
        """Bits absorbed by aggregation inside the tier (0 when forwarding)."""
        return self.bits_in - self.bits_out


@dataclass(frozen=True)
class HierarchicalBreakdown:
    """The full phase/tier decomposition behind one hierarchical cost.

    Attributes:
        phases: Timed phases, in schedule order.
        tiers: Up-path traffic accounting per fabric tier.
        line_rate_lower_bound_s: Hard lower bound implied by the port line
            rate (0.0 for host-side schedules, which the NIC model governs).
        num_chunks: Pool-sized chunks in-network aggregation used (1 when the
            payload fits the switch memory; 1 for host-side schedules).
    """

    phases: tuple[PhaseCost, ...]
    tiers: tuple[TierTraffic, ...]
    line_rate_lower_bound_s: float = 0.0
    num_chunks: int = 1

    @property
    def seconds(self) -> float:
        """Total schedule time (phases run back-to-back)."""
        return sum(phase.seconds for phase in self.phases)

    @property
    def steps(self) -> int:
        """Total communication steps across all phases."""
        return sum(phase.steps for phase in self.phases)

    @property
    def bits_sent_per_worker(self) -> float:
        """Bits one worker pushes into the network across all phases."""
        return sum(phase.bits_sent_per_worker for phase in self.phases)

    def phase(self, name: str) -> PhaseCost:
        """Look up one phase by name."""
        for entry in self.phases:
            if entry.name == name:
                return entry
        known = ", ".join(entry.name for entry in self.phases)
        raise KeyError(f"no phase {name!r} (phases: {known})")

    def tier(self, name: str) -> TierTraffic:
        """Look up one tier by name."""
        for entry in self.tiers:
            if entry.tier == name:
                return entry
        known = ", ".join(entry.tier for entry in self.tiers)
        raise KeyError(f"no tier {name!r} (tiers: {known})")
