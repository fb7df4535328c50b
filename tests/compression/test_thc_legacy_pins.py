"""Byte pins of the float64 THC reference (the test oracle) and its butterflies.

``Reference(THCCompressor)`` (``tests/reference.py``) is what the kernels are
checked against in ``tests/property/test_backend_equivalence.py``, so its
values must not move when its code does.  These pins record, per rotation mode,
aggregation mode and shape, the SHA-256 of the mean estimate and of the
stacked per-worker transmitted payloads of two consecutive rounds, and the
rng state afterwards (which fixes how many uniforms were drawn).  Both
rounds' reports are read only after the second round ran, so a deferred
report that aliased reused scratch would show here.

``ef(thc(...))`` -- ``ErrorFeedback(Reference(thc))`` -- consumes the
per-worker report every round; its pins cover three rounds of means and the
residuals left behind.  The ``_butterfly_passes`` pins cover every depth of a
float64 2^18 vector and a float32 2^12 vector.

Regenerate ``thc_legacy_pins.json`` only for an intended change of values::

    PYTHONPATH=src:tests python tests/compression/test_thc_legacy_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.measures import paper_context
from repro.compression.hadamard import _butterfly_passes
from repro.simulator.cluster import ClusterSpec
from reference import reference_scheme

PINS_PATH = Path(__file__).with_name("thc_legacy_pins.json")

#: (workers, coordinates): the bridge benchmark's trace, an odd size, and a
#: power of two (``rot=none`` pads nothing and works on the caller's rows).
SHAPES = [(2, 148097), (4, 5773), (3, 4096)]

SPECS = [
    f"thc(q=4, rot={rotation}, agg={aggregation})"
    for rotation in ("full", "partial", "none")
    for aggregation in ("sat", "widened")
]

EF_SPECS = [f"ef(thc(q=4, rot={rotation}, agg=sat))" for rotation in ("full", "partial", "none")]
EF_SHAPE = (4, 5773)
EF_ROUNDS = 3

#: (dtype, log2 size) of the butterfly pin vectors; every depth 0..log2 size.
BUTTERFLY_VECTORS = [("float64", 18), ("float32", 12)]


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def case_id(spec: str, num_workers: int, num_coordinates: int) -> str:
    return f"legacy {spec} n={num_workers} d={num_coordinates}"


def legacy_context(num_workers: int, seed: int):
    cluster = ClusterSpec(num_nodes=num_workers, gpus_per_node=1)
    return paper_context(cluster, seed=seed)


def gradient_rows(num_workers: int, num_coordinates: int, round_index: int) -> list[np.ndarray]:
    rng = np.random.default_rng([num_coordinates, round_index])
    return list(
        rng.standard_normal((num_workers, num_coordinates), dtype=np.float32)
    )


def run_case(spec: str, num_workers: int, num_coordinates: int) -> dict:
    """Aggregate two seeded rounds, then describe what both produced."""
    ctx = legacy_context(num_workers, seed=num_workers * num_coordinates)
    scheme = reference_scheme(spec)
    results = [
        scheme.aggregate(gradient_rows(num_workers, num_coordinates, index), ctx)
        for index in range(2)
    ]
    rng_state = ctx.rng.bit_generator.state
    described = {}
    for index, result in enumerate(results):
        transmitted = np.stack(list(result.per_worker_transmitted))
        described[f"round{index}"] = {
            "mean_estimate_sha256": sha256(result.mean_estimate),
            "transmitted_sha256": sha256(transmitted),
        }
    described["rng_state"] = rng_state
    return described


def run_ef_case(spec: str, num_workers: int, num_coordinates: int) -> dict:
    """Three error-feedback rounds: each round's mean, then the residuals."""
    ctx = legacy_context(num_workers, seed=num_workers + num_coordinates)
    scheme = reference_scheme(spec)
    means = [
        sha256(
            scheme.aggregate(
                gradient_rows(num_workers, num_coordinates, index), ctx
            ).mean_estimate
        )
        for index in range(EF_ROUNDS)
    ]
    return {
        "mean_estimate_sha256": means,
        "residuals_sha256": sha256(np.stack(scheme.residuals)),
        "rng_state": ctx.rng.bit_generator.state,
    }


def butterfly_case(dtype: str, log_size: int, depth: int) -> str:
    vector = np.random.default_rng(log_size).standard_normal(1 << log_size).astype(dtype)
    out = _butterfly_passes(vector, depth)
    assert out.dtype == np.dtype(dtype)
    return sha256(out)


def butterfly_id(dtype: str, log_size: int, depth: int) -> str:
    return f"butterfly {dtype} 2^{log_size} depth={depth}"


def all_cases():
    return [(spec, n, d) for n, d in SHAPES for spec in SPECS]


def ef_cases():
    return [(spec, *EF_SHAPE) for spec in EF_SPECS]


def butterfly_cases():
    return [
        (dtype, log_size, depth)
        for dtype, log_size in BUTTERFLY_VECTORS
        for depth in range(log_size + 1)
    ]


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize(
    "spec,num_workers,num_coordinates",
    all_cases(),
    ids=[case_id(*case) for case in all_cases()],
)
def test_legacy_thc_matches_pin(pins, spec, num_workers, num_coordinates):
    assert run_case(spec, num_workers, num_coordinates) == pins[
        case_id(spec, num_workers, num_coordinates)
    ]


@pytest.mark.parametrize(
    "spec,num_workers,num_coordinates", ef_cases(), ids=[case_id(*case) for case in ef_cases()]
)
def test_legacy_ef_thc_matches_pin(pins, spec, num_workers, num_coordinates):
    assert run_ef_case(spec, num_workers, num_coordinates) == pins[
        case_id(spec, num_workers, num_coordinates)
    ]


@pytest.mark.parametrize(
    "dtype,log_size,depth",
    butterfly_cases(),
    ids=[butterfly_id(*case) for case in butterfly_cases()],
)
def test_butterfly_passes_match_pin(pins, dtype, log_size, depth):
    assert butterfly_case(dtype, log_size, depth) == pins[butterfly_id(dtype, log_size, depth)]


if __name__ == "__main__":
    recorded = {case_id(*case): run_case(*case) for case in all_cases()}
    recorded.update({case_id(*case): run_ef_case(*case) for case in ef_cases()})
    recorded.update(
        {butterfly_id(*case): butterfly_case(*case) for case in butterfly_cases()}
    )
    PINS_PATH.write_text(json.dumps(recorded, indent=2) + "\n")
