#!/usr/bin/env python
"""Compare a fresh BENCH_results.json against the committed baseline.

Two families of checks:

* **Timing regressions** -- every ``*_seconds`` entry in the baseline must
  not grow by more than ``--max-regression`` (default 2x) in the current
  snapshot.  Machines differ, so the committed baseline should come from the
  slowest machine the check runs on; faster CI runners pass trivially, and
  only genuine slowdowns of the code exceed the 2x band.
* **Floors** -- entries in the baseline's ``floors`` table are minimums the
  current snapshot must stay above, each named ``benchmark.field``
  (``"service_load.warm_qps": 1000.0``).  Kernel and sweep floors are
  absolute throughputs of the batched side alone
  (``thc_microbench.batched_mcoords_per_s``): a legacy/batched ratio would
  fail whenever the legacy reference got faster, with no batched
  regression.  Throughput floors like ``warm_qps`` guard service-level
  objectives.

``--only PREFIX`` restricts both check families to benchmarks whose name
starts with ``PREFIX`` (the CI service-smoke job checks just
``service_load`` without re-running the kernel benches).

Exit status 0 when everything holds, 1 with a report otherwise::

    python benchmarks/perf/check_regression.py BENCH_results.json \\
        benchmarks/perf/baseline.json --max-regression 2.0
    python benchmarks/perf/check_regression.py SERVICE_results.json \\
        benchmarks/perf/baseline.json --only service_load
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def iter_timings(benchmarks: dict):
    """Yield (benchmark, key, value) for every ``*_seconds`` timing entry."""
    for name, entries in benchmarks.items():
        if not isinstance(entries, dict):
            continue
        for key, value in entries.items():
            if key.endswith("_seconds") and isinstance(value, (int, float)):
                yield name, key, float(value)


def check(
    current: dict, baseline: dict, *, max_regression: float, only: str | None = None
) -> list[str]:
    """All violated constraints, as human-readable report lines."""
    failures: list[str] = []
    current_benches = current.get("benchmarks", {})
    baseline_benches = baseline.get("benchmarks", {})

    def in_scope(benchmark: str) -> bool:
        return only is None or benchmark.startswith(only)

    for name, key, reference in iter_timings(baseline_benches):
        if not in_scope(name):
            continue
        measured = current_benches.get(name, {}).get(key)
        if measured is None:
            failures.append(f"{name}.{key}: missing from current results")
            continue
        if reference > 0 and measured > max_regression * reference:
            failures.append(
                f"{name}.{key}: {measured:.4f}s is {measured / reference:.2f}x the "
                f"baseline {reference:.4f}s (limit {max_regression:.1f}x)"
            )

    for entry, floor in baseline.get("floors", {}).items():
        name, _, field = entry.partition(".")
        if not in_scope(name):
            continue
        measured = current_benches.get(name, {}).get(field)
        if measured is None:
            failures.append(f"{name}.{field}: missing from current results")
            continue
        if measured < float(floor):
            failures.append(
                f"{name}.{field}: {measured:.2f} is below the floor {float(floor):.2f}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("current", type=Path, help="fresh BENCH_results.json")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when a timing exceeds this multiple of the baseline (default 2.0)",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="PREFIX",
        help="check only benchmarks whose name starts with PREFIX",
    )
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())
    failures = check(
        current, baseline, max_regression=args.max_regression, only=args.only
    )
    if failures:
        print("perf regression check FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print("perf regression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
