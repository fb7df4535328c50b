"""Byte pins of the batched THC kernel.

THC's stochastic rounding draws one float32 uniform per coordinate of the
padded ``(n, padded)`` worker matrix.  How the kernel walks that matrix is an
implementation detail, but the values it produces are not: every vNMSE and
validation golden depends on them.  These pins record, per rotation mode and
shape, the SHA-256 of the mean estimate, the SHA-256 of the per-worker
transmitted payloads, and the rng state after the aggregate (which fixes how
many uniforms were drawn, and in what order they were consumed).

Regenerate ``thc_pins.json`` only for an intended change of THC's values::

    PYTHONPATH=src python tests/compression/test_thc_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.measures import paper_context
from repro.compression.registry import make_scheme
from repro.simulator.cluster import ClusterSpec

PINS_PATH = Path(__file__).with_name("thc_pins.json")

#: (workers, coordinates): VGG19's proxy model, an odd size, paper scale,
#: and a worker matrix of 3 x 2^15 padded coordinates (not a multiple of 2^16).
SHAPES = [(4, 41312), (3, 5773), (16, 1 << 20), (3, 20000)]

SPECS = [f"thc(q=4, rot={rotation}, agg=sat)" for rotation in ("full", "partial", "none")]


def case_id(spec: str, num_workers: int, num_coordinates: int) -> str:
    return f"{spec} n={num_workers} d={num_coordinates}"


def run_case(spec: str, num_workers: int, num_coordinates: int) -> dict:
    """Aggregate one seeded round and describe what it produced."""
    cluster = ClusterSpec(num_nodes=num_workers, gpus_per_node=1)
    ctx = paper_context(cluster, seed=num_workers * num_coordinates)
    rows = np.random.default_rng(num_coordinates).standard_normal(
        (num_workers, num_coordinates), dtype=np.float32
    )
    result = make_scheme(spec).aggregate(list(rows), ctx)
    transmitted = np.stack(list(result.per_worker_transmitted))
    return {
        "mean_estimate_sha256": hashlib.sha256(result.mean_estimate.tobytes()).hexdigest(),
        "transmitted_sha256": hashlib.sha256(transmitted.tobytes()).hexdigest(),
        "rng_state": ctx.rng.bit_generator.state,
    }


def all_cases():
    return [(spec, n, d) for n, d in SHAPES for spec in SPECS]


@pytest.mark.parametrize(
    "spec,num_workers,num_coordinates",
    all_cases(),
    ids=[case_id(*case) for case in all_cases()],
)
def test_batched_thc_matches_pin(spec, num_workers, num_coordinates):
    pins = json.loads(PINS_PATH.read_text())
    assert run_case(spec, num_workers, num_coordinates) == pins[
        case_id(spec, num_workers, num_coordinates)
    ]


if __name__ == "__main__":
    PINS_PATH.write_text(
        json.dumps(
            {case_id(*case): run_case(*case) for case in all_cases()}, indent=2
        )
        + "\n"
    )
