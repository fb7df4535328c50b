"""Fleet-scale pricing: a million workers without a million-entry loop.

The paper's testbed has 4 GPUs.  This example prices the same aggregation
schemes on generated datacenter fleets -- a k=128 fat-tree with 1,048,576
workers, a 16^3 torus, a DCell -- described *distributionally*: a handful of
:class:`~repro.simulator.cluster.WorkerClass` heterogeneity classes with
counts instead of one profile tuple entry per rank.  Every query
(``max_slowdown``, the pipeline simulator, the collective cost model) runs
in O(#classes), so the whole grid prices in milliseconds of wall clock.

1. **Build the fleets** -- fabric generators attach failure-domain metadata
   (a fat-tree pod, a torus plane, a sub-DCell) that both the tiered cost
   model and the scenario engine's ``domain_fail`` event understand.
2. **Price the grid** -- one memoizing sweep across schemes x fleets; a
   fleet's cache identity is its canonical profile segments, so two class
   lists spelling one population are one sweep point.
3. **Break a domain** -- a ``domain_fail`` scenario degrades one fat-tree
   pod's NICs and reprices the fleet, mutating class counts, not 1M tuples.

Run with:  python examples/fleet_pricing.py
"""

import time

from repro.api import ExperimentSession
from repro.experiments.fleet import render_fleet_pricing, run_fleet_pricing
from repro.simulator.cluster import (
    ClusterSpec,
    WorkerClass,
    WorkerProfile,
    fat_tree_cluster,
)
from repro.training.workloads import bert_large_wikitext


def step_1_and_2_price_the_fleets() -> None:
    print("=== 1+2. Fleet grid (distributional clusters, O(#classes) pricing) ===")
    start = time.perf_counter()
    rows = run_fleet_pricing()
    elapsed = time.perf_counter() - start
    print(render_fleet_pricing(rows))
    print(f"  ({len(rows)} fleet-scale points priced in {elapsed * 1e3:.1f} ms)")


def step_3_break_a_pod() -> None:
    print("=== 3. domain_fail on the 1M-worker fat-tree (pod 3, NICs 8x slower) ===")
    base = fat_tree_cluster(128, gpus_per_node=2)
    fleet = ClusterSpec(
        num_nodes=base.num_nodes,
        gpus_per_node=base.gpus_per_node,
        fabric=base.fabric,
        worker_classes=(WorkerClass(base.world_size, WorkerProfile()),),
    )
    session = ExperimentSession(cluster=fleet)
    workload = bert_large_wikitext()
    quiet = session.throughput("thc(q=4, rot=partial)", workload)
    degraded = session.throughput(
        "thc(q=4, rot=partial)", workload, scenario="domain_fail(d=3)@0..50", num_rounds=50
    )
    print(f"  quiet fleet:     {quiet.rounds_per_second:.3f} rounds/s")
    print(f"  pod 3 degraded:  {degraded.rounds_per_second:.3f} rounds/s")
    print(
        f"  one pod of {fleet.fabric.racks_per_domain} racks drags the whole "
        f"fleet {quiet.rounds_per_second / degraded.rounds_per_second:.2f}x"
    )


if __name__ == "__main__":
    step_1_and_2_price_the_fleets()
    print()
    step_3_break_a_pod()
