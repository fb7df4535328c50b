#!/usr/bin/env python
"""Performance-regression harness: kernels, pricing, and sweep wall-clock.

Times the three layers of the simulator's hot path and emits a
``BENCH_results.json`` snapshot so future changes have a trajectory to
compare against:

* **Compression kernels** -- the paper's THC configuration at the scheme
  level (compress + aggregate, 16 workers, d = 2^20) and the raw Hadamard
  rotation kernel, as throughputs;
* **Pipeline pricing** -- analytic per-round makespan pricing
  (:func:`repro.api.measures.estimate_throughput`) across the whole scheme
  registry and both paper workloads, serialized and bucketed;
* **Sweep wall-clock** -- a vNMSE sweep grid under the default auto executor
  (processes on multi-core machines);
* **Fleet-scale pricing** -- one full throughput pricing of a 1M-worker
  distributional fat-tree (three heterogeneity classes, 8192 racks),
  guarding the O(#classes) population representation against the return of
  per-worker loops;
* **Advisor service load** -- the closed/open-loop mixed trace from
  ``benchmarks/perf/service_load.py`` (cold misses, warm fast-path hits,
  scenario-heavy queries), reporting sustained qps and tail latency.

Run it directly::

    python benchmarks/perf/harness.py --out BENCH_results.json
    python benchmarks/perf/harness.py --quick   # CI-sized inputs

``benchmarks/perf/check_regression.py`` compares two such snapshots and
fails on regressions (used by the CI perf-smoke job).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from service_load import run_service_bench  # noqa: E402

from repro.api.executors import available_cpus  # noqa: E402
from repro.api.measures import estimate_throughput, paper_context  # noqa: E402
from repro.api.session import ExperimentSession  # noqa: E402
from repro.compression.kernels import RoundWorkspace, fwht_rows  # noqa: E402
from repro.compression.registry import ALIASES, make_scheme  # noqa: E402
from repro.simulator.cluster import (  # noqa: E402
    ClusterSpec,
    WorkerClass,
    WorkerProfile,
    fat_tree_cluster,
    multirack_cluster,
    paper_testbed,
)
from repro.training.workloads import bert_large_wikitext, vgg19_tinyimagenet  # noqa: E402

#: The THC configuration of the headline microbenchmark (the paper's scheme
#: with a full randomized Hadamard rotation -- the heaviest kernel path).
MICROBENCH_SPEC = "thc(q=4, rot=full, agg=sat)"


def _timed(function, *, repeats: int, warmup: int = 1) -> list[float]:
    """Wall-clock samples of ``function()`` after ``warmup`` discarded runs."""
    for _ in range(warmup):
        function()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return samples


def _cluster(num_workers: int):
    if num_workers % 2:
        raise ValueError("num_workers must be even (2 GPUs per node)")
    return dataclasses.replace(
        paper_testbed(), num_nodes=num_workers // 2, gpus_per_node=2
    )


def _median(samples: list[float]) -> float:
    return float(statistics.median(samples))


# --------------------------------------------------------------------------- #
# 1. Compression kernels
# --------------------------------------------------------------------------- #
def _bench_thc(
    spec: str, *, seed: int, num_workers: int, num_coordinates: int, repeats: int
) -> dict:
    """Scheme-level compress + aggregate of one THC spec."""
    cluster = _cluster(num_workers)
    rng = np.random.default_rng(seed)
    gradients = [
        rng.standard_normal(num_coordinates).astype(np.float32)
        for _ in range(num_workers)
    ]
    scheme = make_scheme(spec)
    ctx = paper_context(cluster, seed=0)
    seconds = _median(_timed(lambda: scheme.aggregate(gradients, ctx), repeats=repeats))
    return {
        "spec": spec,
        "num_workers": num_workers,
        "num_coordinates": num_coordinates,
        "batched_seconds": seconds,
        "batched_mcoords_per_s": num_workers * num_coordinates / seconds / 1e6,
    }


def bench_thc_microbench(
    *, num_workers: int, num_coordinates: int, repeats: int
) -> dict:
    """Scheme-level compress + aggregate on the paper's full-rotation THC."""
    return _bench_thc(
        MICROBENCH_SPEC,
        seed=0,
        num_workers=num_workers,
        num_coordinates=num_coordinates,
        repeats=repeats,
    )


def bench_thc_partial(
    *, num_workers: int, num_coordinates: int, repeats: int
) -> dict:
    """Same microbenchmark on the partial-rotation (shared-memory) variant."""
    return _bench_thc(
        "thc(q=4, rot=partial, agg=sat)",
        seed=1,
        num_workers=num_workers,
        num_coordinates=num_coordinates,
        repeats=repeats,
    )


def bench_rotation_kernel(
    *, num_workers: int, num_coordinates: int, repeats: int
) -> dict:
    """Raw rotation kernel: Kronecker matmuls over the worker matrix."""
    depth = int(np.log2(num_coordinates))
    rng = np.random.default_rng(2)
    matrix = rng.standard_normal((num_workers, num_coordinates)).astype(np.float32)
    workspace = RoundWorkspace()

    seconds = _median(
        _timed(lambda: fwht_rows(matrix, depth, workspace=workspace), repeats=repeats)
    )
    return {
        "depth": depth,
        "num_workers": num_workers,
        "num_coordinates": num_coordinates,
        "batched_seconds": seconds,
        "batched_mcoords_per_s": num_workers * num_coordinates / seconds / 1e6,
    }


# --------------------------------------------------------------------------- #
# 2. Pipeline makespan pricing
# --------------------------------------------------------------------------- #
def bench_pricing(*, repeats: int) -> dict:
    """Analytic round pricing across the registry and both paper workloads."""
    workloads = [bert_large_wikitext(), vgg19_tinyimagenet()]
    schemes = [make_scheme(alias) for alias in sorted(ALIASES)]
    ctx = paper_context(paper_testbed(), seed=0)

    def price_all():
        for workload in workloads:
            for scheme in schemes:
                estimate_throughput(scheme, workload, ctx=ctx, num_buckets=1)
                estimate_throughput(scheme, workload, ctx=ctx, num_buckets=8)

    samples = _timed(price_all, repeats=repeats)
    return {
        "num_schemes": len(schemes),
        "num_workloads": len(workloads),
        "bucket_variants": [1, 8],
        "grid_seconds": _median(samples),
    }


# --------------------------------------------------------------------------- #
# 3. Sweep wall-clock
# --------------------------------------------------------------------------- #
def bench_sweep(*, num_coordinates: int, repeats: int) -> dict:
    """vNMSE sweep wall-clock under the default (auto) executor.

    The auto executor runs a process pool on multi-core machines.  Fresh
    sessions per run keep the memo out of the measurement.
    """
    # A THC-centric grid (the paper's scheme space: quantization width,
    # rotation depth, and overflow handling), plus the QSGD generalization
    # and the TopKC sparsifier for cross-family coverage.
    specs = [
        "thc(q=4, rot=partial, agg=sat)",
        "thc(q=4, rot=full, agg=sat)",
        "thc(q=4, b=8, rot=full, agg=widened)",
        "thc(q=2, rot=partial, agg=sat)",
        "thc(q=8, rot=partial, agg=sat)",
        "qsgd(q=4, agg=sat)",
        "topkc(b=2)",
    ]
    # The session's default vNMSE configuration (3 rounds), at the grid's
    # gradient size -- the same measurement the experiment drivers sweep.
    kwargs = dict(num_coordinates=num_coordinates, num_rounds=3)

    def run_once() -> float:
        session = ExperimentSession(executor="auto")
        start = time.perf_counter()
        session.sweep(specs, metric="vnmse", **kwargs)
        return time.perf_counter() - start

    after = [run_once() for _ in range(repeats)]
    return {
        "metric": "vnmse",
        "num_points": len(specs),
        "num_coordinates": num_coordinates,
        "cpus": available_cpus(),
        "after_seconds": _median(after),
        "after_mcoords_per_s": len(specs) * num_coordinates / _median(after) / 1e6,
    }


# --------------------------------------------------------------------------- #
# 4. Fleet-scale pricing
# --------------------------------------------------------------------------- #
def bench_fleet_pricing(*, repeats: int) -> dict:
    """One full throughput pricing of a 1M-worker distributional fat-tree.

    The cluster is a k=128 fat-tree (1,048,576 workers) with three
    heterogeneity classes -- the population the O(n) per-worker loops used
    to choke on.  Every query must stay O(#classes): the floor in
    ``baseline.json`` (``fleet_pricing.qps >= 1.0``) is the acceptance
    bound that a single pricing finishes inside one second on one core.
    """
    base = fat_tree_cluster(128, gpus_per_node=2)
    fleet = ClusterSpec(
        num_nodes=base.num_nodes,
        gpus_per_node=base.gpus_per_node,
        fabric=base.fabric,
        worker_classes=(
            WorkerClass(base.world_size - 48_576, WorkerProfile()),
            WorkerClass(48_000, WorkerProfile(slowdown=1.2)),
            WorkerClass(576, WorkerProfile(nic_scale=2.0)),
        ),
    )
    workload = bert_large_wikitext()
    spec = "thc(q=4, rot=partial, agg=sat)"

    def price_once():
        session = ExperimentSession(cluster=fleet)
        session.throughput(spec, workload, num_buckets=8)

    samples = _timed(price_once, repeats=repeats)
    price_seconds = _median(samples)
    return {
        "spec": spec,
        "world_size": fleet.world_size,
        "num_racks": fleet.num_racks,
        "num_classes": len(fleet.worker_classes),
        "price_seconds": price_seconds,
        "qps": 1.0 / price_seconds,
    }


# --------------------------------------------------------------------------- #
# 5. Policy-enabled scenario pricing (chaos smoke)
# --------------------------------------------------------------------------- #
def bench_chaos_smoke(*, num_rounds: int, repeats: int) -> dict:
    """One policy-governed scenario run on a 64-worker fabric.

    The recovery engine's full pipeline -- churn re-draws per retry
    attempt, straggler identification for the drop rule, deadline clamping
    and the stale budget -- priced end to end through
    ``session.throughput``.  Churn makes most rounds a *distinct* effective
    cluster, so this is the recovery layer's pricing hot path, not a
    memo replay; the ``chaos_smoke.qps`` floor in ``baseline.json`` keeps
    a full 50-round chaos run under a second on one core.
    """
    cluster = multirack_cluster(4, nodes_per_rack=8, gpus_per_node=2, oversubscription=2.0)
    workload = bert_large_wikitext()
    spec = "thc(q=4, rot=partial, agg=sat)"
    scenario = "slowdown(w=3, x=8)@5..25 + churn(p=0.05, x=4)@10..40"
    policy = "timeout(k=2) + retry(max=1, backoff=0.1) + drop(max_workers=2) + stale(max=2)"

    def price_once():
        # A fresh session per run keeps the sweep memo out of the measurement.
        session = ExperimentSession(cluster=cluster)
        return session.throughput(
            spec, workload, scenario=scenario, num_rounds=num_rounds, policy=policy
        )

    estimate = price_once()
    metrics = estimate.scenario_metrics
    samples = _timed(price_once, repeats=repeats)
    price_seconds = _median(samples)
    return {
        "spec": spec,
        "scenario": scenario,
        "policy": estimate.policy,
        "world_size": cluster.world_size,
        "num_rounds": num_rounds,
        "timed_out_rounds": metrics.timed_out_rounds,
        "retries": metrics.retries,
        "dropped_worker_rounds": metrics.dropped_worker_rounds,
        "stale_rounds": metrics.stale_rounds,
        "price_seconds": price_seconds,
        "qps": 1.0 / price_seconds,
    }


# --------------------------------------------------------------------------- #
def run_harness(*, quick: bool) -> dict:
    scale = {
        # Full scale: the acceptance microbenchmark (16 workers, d = 2^20)
        # and the session's default vNMSE gradient size for the sweep.
        False: dict(workers=16, d=1 << 20, sweep_d=1 << 17, repeats=3),
        # CI smoke: same shapes, much smaller payloads.  The sweep grid stays
        # heavy enough (2^15 coordinates) that executor startup cost cannot
        # dominate the measurement on multi-core runners.
        True: dict(workers=8, d=1 << 14, sweep_d=1 << 15, repeats=2),
    }[quick]

    results = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "quick": quick,
            "cpus": available_cpus(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "benchmarks": {},
    }
    benches = results["benchmarks"]

    print(f"[perf] THC microbench ({scale['workers']} workers, d=2^{int(np.log2(scale['d']))})...")
    benches["thc_microbench"] = bench_thc_microbench(
        num_workers=scale["workers"], num_coordinates=scale["d"], repeats=scale["repeats"]
    )
    print(
        "[perf]   {batched_seconds:.4f}s  ({batched_mcoords_per_s:.1f} Mcoord/s)".format(
            **benches["thc_microbench"]
        )
    )

    benches["thc_partial"] = bench_thc_partial(
        num_workers=scale["workers"], num_coordinates=scale["d"], repeats=scale["repeats"]
    )
    print(
        "[perf]   partial rotation {batched_mcoords_per_s:.1f} Mcoord/s".format(
            **benches["thc_partial"]
        )
    )

    benches["rotation_kernel"] = bench_rotation_kernel(
        num_workers=scale["workers"],
        num_coordinates=min(scale["d"], 1 << 18),
        repeats=scale["repeats"],
    )
    print(
        "[perf]   rotation kernel {batched_mcoords_per_s:.1f} Mcoord/s".format(
            **benches["rotation_kernel"]
        )
    )

    print("[perf] pipeline pricing across the registry...")
    benches["pricing"] = bench_pricing(repeats=scale["repeats"])
    print("[perf]   registry grid priced in {grid_seconds:.3f}s".format(**benches["pricing"]))

    print("[perf] sweep wall-clock (auto executor)...")
    benches["sweep"] = bench_sweep(
        num_coordinates=scale["sweep_d"], repeats=max(1, scale["repeats"] - 1)
    )
    print(
        "[perf]   {after_seconds:.3f}s ({after_mcoords_per_s:.2f} Mcoord/s) "
        "on {cpus} cpu(s)".format(**benches["sweep"])
    )

    print("[perf] fleet-scale pricing (1M-worker distributional fat-tree)...")
    benches["fleet_pricing"] = bench_fleet_pricing(repeats=scale["repeats"])
    print(
        "[perf]   {world_size:,} workers priced in {price_seconds:.4f}s "
        "({qps:.0f} pricings/s)".format(**benches["fleet_pricing"])
    )

    print("[perf] chaos smoke (policy-enabled 64-worker scenario run)...")
    benches["chaos_smoke"] = bench_chaos_smoke(
        num_rounds=50, repeats=scale["repeats"]
    )
    print(
        "[perf]   {num_rounds} rounds priced in {price_seconds:.4f}s "
        "({qps:.0f} runs/s; {timed_out_rounds} timeouts, {retries} retries, "
        "{dropped_worker_rounds} drops, {stale_rounds} stale)".format(
            **benches["chaos_smoke"]
        )
    )

    print("[perf] advisor service load (closed + open loop)...")
    benches["service_load"] = run_service_bench(quick=quick)
    print(
        "[perf]   cold {cold_qps:.0f} qps  warm {warm_qps:.0f} qps "
        "(p99 {warm_p99_seconds:.4f}s)  open-loop p99 {open_loop_p99_seconds:.4f}s".format(
            **benches["service_load"]
        )
    )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_results.json"),
        help="where to write the results JSON (default: ./BENCH_results.json)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized inputs (seconds, not minutes)"
    )
    args = parser.parse_args(argv)

    results = run_harness(quick=args.quick)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[perf] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
