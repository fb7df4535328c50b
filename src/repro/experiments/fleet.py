"""Fleet-scale pricing: scheme throughput on 100k-1M-worker clusters.

The paper's tables price aggregation schemes on a 4-GPU testbed.  This
driver asks how the same schemes rank when the worker population is a
*fleet*: a datacenter fabric (fat-tree, torus, DCell) with hundreds of
thousands of workers described distributionally -- a handful of
heterogeneity classes with counts (:class:`~repro.simulator.cluster.WorkerClass`)
instead of one profile tuple entry per rank.  Every price is O(#classes),
so a 1M-worker point costs the same as a 4-worker one; the driver's whole
grid runs in well under a second of wall clock.

The headline effect is how little fleet scale costs under hierarchy: the
tiered schedule confines all but ``payload / workers_per_rack`` below the
ToRs, so going from 1k to 1M workers barely moves any scheme's round time
-- the spine phase grows with the number of *domains*, not workers -- and
the static podium survives.  The fabric's failure-domain structure (pods,
planes, sub-DCells) decides where the bottleneck sits and what a
``domain_fail`` scenario can take out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ExperimentSession
from repro.api.sweep import cluster_label
from repro.core.reporting import format_float_table
from repro.simulator.cluster import (
    ClusterSpec,
    WorkerClass,
    WorkerProfile,
    dcell_cluster,
    fat_tree_cluster,
    torus_cluster,
)
from repro.training.workloads import WorkloadSpec, bert_large_wikitext

#: Schemes priced at fleet scale (the static-testbed podium).
DEFAULT_FLEET_SCHEMES = (
    "thc(q=4, rot=partial, agg=sat)",
    "topkc(b=2)",
    "powersgd(r=4)",
)

#: A production-flavoured heterogeneity mix: most of the fleet nominal, a
#: few percent on a slower GPU bin, a sliver behind degraded NICs.  Counts
#: are scaled to each fleet's world size by :func:`fleet_classes`.
DEFAULT_CLASS_MIX = (
    (0.95, WorkerProfile()),
    (0.045, WorkerProfile(slowdown=1.2)),
    (0.005, WorkerProfile(nic_scale=2.0)),
)


def fleet_classes(
    world_size: int,
    mix: tuple[tuple[float, WorkerProfile], ...] = DEFAULT_CLASS_MIX,
) -> tuple[WorkerClass, ...]:
    """Scale a fractional heterogeneity mix to ``world_size`` workers.

    Fractions are applied in order with the first class absorbing rounding
    remainder, so the counts always sum exactly to ``world_size``.
    """
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    counts = [int(world_size * fraction) for fraction, _ in mix]
    counts[0] += world_size - sum(counts)
    return tuple(
        WorkerClass(count, profile)
        for count, (_, profile) in zip(counts, mix)
        if count > 0
    )


def default_fleets() -> dict[str, ClusterSpec]:
    """The three generated datacenter fleets the driver prices.

    All are built from worker classes -- the 1M-worker fat-tree is three
    profile segments, never a per-rank profile list.
    """
    fleets = {}
    for name, base in (
        ("fat-tree(k=128)", fat_tree_cluster(128, gpus_per_node=2)),
        ("torus(16x16x16)", torus_cluster((16, 16, 16), nodes_per_rack=8, gpus_per_node=4)),
        ("dcell(n=16,l=1)", dcell_cluster(16, 1, gpus_per_node=4)),
    ):
        fleets[name] = ClusterSpec(
            num_nodes=base.num_nodes,
            gpus_per_node=base.gpus_per_node,
            fabric=base.fabric,
            worker_classes=fleet_classes(base.world_size),
        )
    return fleets


@dataclass(frozen=True)
class FleetPricingRow:
    """One scheme's price on one generated fleet.

    Attributes:
        world_size: Workers in the fleet (hundreds of thousands and up).
        num_domains: Failure domains of the fabric (pods / planes /
            sub-DCells) -- the granularity ``domain_fail`` events target.
        rounds_per_second: Priced training throughput of the scheme.
        rank: 1-based position in the per-fleet throughput ranking.
    """

    fleet_name: str
    scheme_spec: str
    world_size: int
    num_racks: int
    num_domains: int
    max_slowdown: float
    rounds_per_second: float
    rank: int


def run_fleet_pricing(
    schemes: tuple[str, ...] | list[str] = DEFAULT_FLEET_SCHEMES,
    fleets: dict[str, ClusterSpec] | None = None,
    workload: WorkloadSpec | None = None,
    *,
    session: ExperimentSession | None = None,
) -> list[FleetPricingRow]:
    """Price every scheme on every fleet; rows are fleet-major, rank order.

    One sweep per call with the fleets on the cluster axis: a fleet's
    cache identity is its canonical profile segments, so a caller that
    already priced the same population (however its class list was split)
    gets the memoized point.
    """
    fleets = fleets if fleets is not None else default_fleets()
    workload = workload or bert_large_wikitext()
    session = session or ExperimentSession()
    grid = session.sweep(
        list(schemes),
        workloads=[workload],
        clusters=list(fleets.values()),
        metric="throughput",
    )
    rows = []
    for fleet_name, cluster in fleets.items():
        values = {
            spec: grid.value(spec, workload, cluster=cluster_label(cluster))
            for spec in schemes
        }
        ordered = sorted(values, key=values.get, reverse=True)
        ranks = {spec: position + 1 for position, spec in enumerate(ordered)}
        fabric = cluster.fabric
        for spec in schemes:
            rows.append(
                FleetPricingRow(
                    fleet_name=fleet_name,
                    scheme_spec=spec,
                    world_size=cluster.world_size,
                    num_racks=cluster.num_racks,
                    num_domains=fabric.num_domains if fabric is not None else 1,
                    max_slowdown=cluster.max_slowdown(),
                    rounds_per_second=values[spec],
                    rank=ranks[spec],
                )
            )
    return rows


def render_fleet_pricing(rows: list[FleetPricingRow] | None = None) -> str:
    """The fleet pricing table formatted for the terminal."""
    rows = rows if rows is not None else run_fleet_pricing()
    header = [
        "Fleet",
        "Workers",
        "Racks",
        "Domains",
        "Scheme",
        "rounds/s",
        "rank",
    ]
    body = [
        [
            row.fleet_name,
            f"{row.world_size:,}",
            str(row.num_racks),
            str(row.num_domains),
            row.scheme_spec,
            f"{row.rounds_per_second:.3f}",
            str(row.rank),
        ]
        for row in rows
    ]
    return format_float_table(
        header,
        body,
        title="Fleet-scale pricing: schemes on generated datacenter fabrics",
    )


if __name__ == "__main__":
    print(render_fleet_pricing())
