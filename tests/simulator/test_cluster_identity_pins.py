"""Pins of the cluster identity: ``repr(cache_key())`` and the advisor digest.

A cluster's ``cache_key()`` keys the sweep memo, and its ``repr`` is what
``service.models._cluster_digest`` hashes into advisor cache entries that
outlive the process.  How the worker population is stored is an
implementation detail; these two strings must not move.  The corpus covers:

* the presets, including a 1M-worker fat-tree with three worker classes;
* ``with_straggler`` / ``with_nic_tier`` chains, two mutations on one rank
  among them;
* every round 0-59, at retry attempts 0 and 1, of the chaos pricing
  scenario on the 64-worker four-rack fabric, and ``excuse_stragglers``
  (``max_workers=2``) on each of those rounds;
* ``join`` / ``leave`` / ``flap`` / ``domain_fail`` results, and churn above
  the per-rank draw limit.

Regenerate ``cluster_identity_pins.json`` only for an intended change of
cluster identity (each distinct key is stored once, under its digest)::

    PYTHONPATH=src python tests/simulator/test_cluster_identity_pins.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service.models import _cluster_digest
from repro.simulator.cluster import (
    ClusterSpec,
    WorkerClass,
    WorkerProfile,
    fat_tree_cluster,
    multirack_cluster,
    paper_testbed,
)
from repro.simulator.recovery import excuse_stragglers
from repro.simulator.scenario import scenario

PINS_PATH = Path(__file__).with_name("cluster_identity_pins.json")

#: The chaos pricing scenario of the end-to-end ``tta_vgg19`` workload.
PRICING_SCENARIO = "slowdown(w=3, x=8)@5..25 + churn(p=0.05, x=4)@10..40"
ROUNDS = 60

SLOW = WorkerProfile(slowdown=2.0)


def fleet() -> ClusterSpec:
    """The perf harness's fleet: a k=128 fat-tree with three worker classes."""
    base = fat_tree_cluster(128, gpus_per_node=2)
    return ClusterSpec(
        num_nodes=base.num_nodes,
        gpus_per_node=base.gpus_per_node,
        fabric=base.fabric,
        worker_classes=(
            WorkerClass(base.world_size - 48_576, WorkerProfile()),
            WorkerClass(48_000, WorkerProfile(slowdown=1.2)),
            WorkerClass(576, WorkerProfile(nic_scale=2.0)),
        ),
    )


def classed() -> ClusterSpec:
    return ClusterSpec(
        num_nodes=4,
        gpus_per_node=2,
        worker_classes=(WorkerClass(3, SLOW), WorkerClass(5, WorkerProfile())),
    )


def corpus() -> dict[str, tuple[ClusterSpec, tuple[int, ...] | None]]:
    """Every pinned cluster by name, with the excused ranks where relevant."""
    fabric = multirack_cluster(4, 8, 2)
    big = fleet()
    mid = fat_tree_cluster(
        32,
        gpus_per_node=2,
        worker_classes=(WorkerClass(16_000, WorkerProfile()), WorkerClass(384, SLOW)),
    )
    clusters: dict[str, ClusterSpec] = {
        "paper_testbed": paper_testbed(),
        "multirack_4_8_2": fabric,
        "fat_tree_128_three_classes": big,
        "fat_tree_128_nominal": fat_tree_cluster(128, gpus_per_node=2),
        "classed": classed(),
        "nominal_classes": ClusterSpec(worker_classes=(WorkerClass(4, WorkerProfile()),)),
        "merged_classes": ClusterSpec(
            num_nodes=4,
            gpus_per_node=2,
            worker_classes=(WorkerClass(3, SLOW), WorkerClass(2, SLOW), WorkerClass(3, WorkerProfile())),
        ),
        "straggler_then_nic": paper_testbed().with_straggler(2, 1.5).with_nic_tier(1, 4.0),
        "two_mutations_one_rank": paper_testbed().with_straggler(1, 2.0).with_nic_tier(1, 4.0),
        "restraggled_rank": paper_testbed().with_straggler(1, 2.0).with_straggler(1, 3.0),
        "straggler_undone": paper_testbed().with_straggler(1, 2.0).with_straggler(1, 1.0),
        "straggler_splits_class": classed().with_straggler(1, 3.0),
        "straggler_joins_class": classed().with_straggler(3, 2.0),
        "nic_tier_on_class_edge": classed().with_nic_tier(2, 4.0).with_straggler(0, 1.0),
        "fleet_straggler": big.with_straggler(1_000_000, 8.0).with_nic_tier(5, 2.0),
        "fleet_last_rank": big.with_nic_tier(big.world_size - 1, 3.0),
        "multirack_chain": fabric.with_straggler(3, 8.0).with_nic_tier(40, 2.0),
    }
    excused: dict[str, tuple[int, ...] | None] = {}

    pricing = scenario(PRICING_SCENARIO)
    for attempt in (0, 1):
        for round_index in range(ROUNDS):
            name = f"pricing_r{round_index}_a{attempt}"
            effective = pricing.cluster_at(fabric, round_index, attempt=attempt)
            clusters[name] = effective
            rewritten, ranks = excuse_stragglers(effective, fabric, max_workers=2)
            clusters[f"excused_{name}"] = rewritten
            excused[f"excused_{name}"] = ranks

    membership = {
        "join_multirack": ("join(n=4)", fabric.with_straggler(3, 8.0)),
        "leave_multirack": ("leave(n=4)", fabric.with_straggler(60, 8.0)),
        "leave_drops_stragglers": ("leave(n=4)", fabric.with_straggler(60, 8.0).with_nic_tier(63, 2.0)),
        "leave_keeps_straggler": ("leave(n=4)", fabric.with_straggler(3, 8.0)),
        "join_nominal": ("join(n=1)", paper_testbed()),
        "leave_nominal": ("leave(n=1)", paper_testbed()),
        "join_classed": ("join(n=2)", classed()),
        "leave_classed": ("leave(n=2)", classed()),
        "leave_classed_to_slow": ("leave(n=3)", ClusterSpec(
            num_nodes=4,
            gpus_per_node=2,
            worker_classes=(WorkerClass(2, SLOW), WorkerClass(6, WorkerProfile())),
        )),
        "flap_multirack": ("flap(rack=1)", fabric.with_straggler(17, 2.0)),
        "flap_twice": ("flap(rack=1) + flap(rack=1, x=2)", fabric),
        "domain_fail_fleet": ("domain_fail(d=3, x=2)", big),
        "domain_fail_fabricless": ("domain_fail(d=0, x=2)", classed()),
        "slowdown_then_leave": ("slowdown(w=7, x=4) + leave(n=1)", classed()),
        "nic_then_join": ("nic_degrade(w=0, x=2) + join(n=1)", classed()),
        "churn_classed": ("churn(p=0.5, x=3)", classed()),
        "churn_fleet": ("churn(p=0.01, x=4) + slowdown(w=12, x=2)", big),
        "churn_above_limit": ("churn(p=0.05, x=4)", mid),
    }
    for name, (spec, base) in membership.items():
        clusters[name] = scenario(spec, seed=7).cluster_at(base, 0)

    fleet_round = scenario("domain_fail(d=1, x=8) + slowdown(w=3, x=4)").cluster_at(big, 0)
    clusters["fleet_domain_round"] = fleet_round
    rewritten, ranks = excuse_stragglers(fleet_round, big, max_workers=2)
    clusters["excused_fleet_domain_round"] = rewritten
    excused["excused_fleet_domain_round"] = ranks

    return {name: (cluster, excused.get(name)) for name, cluster in clusters.items()}


def record(cluster: ClusterSpec, excused: tuple[int, ...] | None) -> dict:
    entry = {"key": repr(cluster.cache_key()), "digest": _cluster_digest(cluster)}
    if excused is not None:
        entry["excused"] = list(excused)
    return entry


def pinned(pins: dict, name: str) -> dict:
    """The recorded entry of case ``name``, its key looked up by digest."""
    entry = dict(pins["cases"][name])
    entry["key"] = pins["keys"][entry["digest"]]
    return entry


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.fixture(scope="module")
def cases() -> dict:
    return corpus()


def test_pins_cover_every_case(pins, cases):
    assert sorted(pins["cases"]) == sorted(cases)


def test_identity_matches_pins(pins, cases):
    mismatched = [
        name for name, case in cases.items() if record(*case) != pinned(pins, name)
    ]
    assert mismatched == []


if __name__ == "__main__":
    # Each distinct key is stored once, under its digest.
    recorded = {name: record(*case) for name, case in corpus().items()}
    keys = {entry["digest"]: entry.pop("key") for entry in recorded.values()}
    payload = {"cases": recorded, "keys": keys}
    PINS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
