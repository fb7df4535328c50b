#!/usr/bin/env python3
"""End-to-end benchmark of the repository's user-facing calls.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload vnmse_16w_1m --seed 0 --seconds 20 --trace 0

The workloads, their metrics and the bounds a change may move them by are
declared in ``BENCHMARK.json`` at the repository root; ``layers.json`` next
to this file says which end-to-end metric each per-layer metric should move,
on which workload, and which workload bypasses the layer.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed.  With ``--trace 1`` the workload runs twice in one
process, each for half of ``--seconds``: once untraced, then again with
spans wrapped around every layer boundary (see ``e2e_spans.py``), after a
fresh set-up.  The metrics are the per-layer ones from
the traced run, plus the traced-vs-untraced overhead.  The full per-span
summary is printed before the last line and written to
``.bench_work/trace_<workload>_seed<seed>.json``.

Timings are host CPU seconds of this process and its reaped workers (see
``e2e_workloads.py`` for why).  Set-up is the import of the workloads in a
fresh interpreter, timed five times, plus building the workload (seeded
inputs, the session, service or trace, and one warm-up call outside the
measured loop), timed five times; ``setup_s`` is the sum of the two
medians.  A run checks every output it times; the references for the
default seed are in ``references.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETUP_REPEATS = 5
IMPORT_REPEATS = 5


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_samples(repeats: int) -> list[float]:
    """CPU seconds of a fresh interpreter that imports the workloads, each time."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import e2e_workloads"
    samples = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)], check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append(
            after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        )
    return samples


def set_up(make_workload, clock):
    """Build the workload ``SETUP_REPEATS`` times; keep the last, time each."""
    samples, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        started = clock()
        workload = make_workload()
        workload.setup()
        samples.append(clock() - started)
    return workload, samples


def layer_metrics(layers: dict, summary: dict, recorder, counters: dict) -> dict:
    """Every per-layer metric, taken from where ``layers.json`` says."""
    empty = {"count": 0, "busy_s": 0.0, "self_s": 0.0}
    values = {}
    for name, entry in layers.items():
        if "span" in entry:
            values[name] = summary.get(entry["span"], empty)[entry["field"]]
        elif "tally" in entry:
            values[name] = recorder.counts.get(entry["tally"], 0.0)
        elif "counter" in entry:
            values[name] = counters.get(entry["counter"], 0.0)

    def share(count: str, span: str) -> float:
        calls = summary.get(span, empty)["count"]
        return recorder.counts.get(count, 0.0) / calls if calls else 0.0

    values["service.cache_hit_ratio"] = share("service.cache_get_hits", "service.cache_get")
    misses = share("recovery.distinct_clusters", "recovery.resolve")
    values["recovery.memo_hit_ratio"] = 1.0 - misses if "recovery.resolve" in summary else 0.0
    return values


def main(argv: list[str] | None = None) -> int:
    declaration = load_declaration()
    names = [workload["name"] for workload in declaration["workloads"]]
    args = parse_args(argv, names)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Everything the benchmark writes stays inside the checkout, including
    # the bridge harness's per-spec trace copies (tempfile honours this).
    work_dir = ROOT / ".bench_work"
    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work_dir / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import_s = import_samples(IMPORT_REPEATS)
    import e2e_workloads

    references = json.loads((HERE / "references.json").read_text())
    outcome = e2e_workloads.Outcome()

    def make_workload():
        return e2e_workloads.WORKLOADS[args.workload](args.seed, references, work_dir)

    # A traced run splits its time: half untraced, half traced.
    seconds = args.seconds / 2 if args.trace else args.seconds
    workload, setup_samples = set_up(make_workload, e2e_workloads.cpu_seconds)
    try:
        figures = workload.run(seconds, outcome)
    finally:
        workload.close()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_samples_s": setup_samples,
        "import_samples_s": import_s,
        **figures,
    }

    report["failures"] = outcome.reasons
    if args.trace:
        import e2e_spans

        recorder = e2e_spans.Recorder()
        e2e_spans.install(recorder)
        workload = make_workload()
        workload.unmeasured = recorder.paused
        workload.setup()
        recorder.enabled = True
        try:
            traced_figures = workload.run(seconds, outcome)
        finally:
            recorder.enabled = False
            workload.close()
        summary = e2e_spans.summarize(recorder)
        simulated_bits = workload.counters.get("bridge.simulated_bits")
        uplink_bits = recorder.counts.get("bridge.uplink_bits", 0.0)
        if simulated_bits is not None and uplink_bits != simulated_bits:
            outcome.fail(
                "bridge wire accounting",
                f"workers encoded {uplink_bits:.0f} uplink bits, "
                f"the simulator accounted {simulated_bits:.0f}",
            )
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
        values = layer_metrics(layers, summary, recorder, workload.counters)
        untraced, traced = figures["work_per_cpu_s"], traced_figures["work_per_cpu_s"]
        values["trace.untraced_work_per_cpu_s"] = untraced
        values["trace.traced_work_per_cpu_s"] = traced
        values["trace.overhead_ratio"] = untraced / traced - 1.0
        report["trace"] = {
            "worker_spans": "forked bridge workers ship their spans back in their result message",
            "spans": summary,
            "counts": dict(recorder.counts),
            "traced_figures": traced_figures,
        }
        path = work_dir / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        declared = declaration["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(import_s) + statistics.median(setup_samples),
            "peak_rss_mb": workload.peak_rss_mb(),
            "work_per_cpu_s": figures["work_per_cpu_s"],
            "call_cpu_ms": figures["call_cpu_ms"],
        }
        declared = declaration["end_to_end"]

    print(json.dumps(report))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
