#!/usr/bin/env python3
"""Record the default seed's outputs that the benchmark checks against.

Run from the repository root after a change that is meant to alter results::

    python3 benchmarks/e2e/record_references.py

It rewrites ``references.json`` next to this file with every spec's vNMSE
(``vnmse_16w_1m``), every pricing-grid ``rounds_per_second`` and every
training run's curve and recovery counters (``tta_vgg19``).  The other two
workloads check agreement, traffic and rankings that need no stored value.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def record(work_dir: Path) -> dict:
    import e2e_workloads as bench

    references = {}
    for cls in (bench.VnmseWorkload, bench.TtaWorkload):
        workload = cls(bench.DEFAULT_SEED, {}, work_dir)
        workload.setup()
        references[workload.name] = workload.record()
    return references


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    references = record(ROOT / ".bench_work")
    path = HERE / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
