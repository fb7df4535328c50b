"""Byte pins of the batched kernels of the non-THC paper specs and their folds.

The batched backend runs every vNMSE and simulator aggregate, so how its
kernels walk the ``(n, d)`` worker matrix -- whole-matrix passes, tiles or
blocks -- is an implementation detail whose values must not move.  These pins
record, per spec and shape:

* the SHA-256 of the mean estimate and of the materialized per-worker report
  of two consecutive rounds (both reports are read only after the second
  round ran, so a deferred report that aliased reused scratch would show);
* the rng state afterwards, which fixes how many uniforms were drawn;
* for ``ef(...)`` of each spec (TopK at ``b=2`` only), three rounds of means and the residuals left
  behind (the wrapper reads the report every round).

They also pin :func:`~repro.collectives.batched.ring_allreduce_matrix` for
every operator at world sizes whose blocks include empty ones, and
:func:`~repro.compression.kernels.fwht_rows` at every depth of two matrices.
THC's batched pins live in ``test_thc_pins.py``.

Regenerate ``batched_kernel_pins.json`` only for an intended change of values::

    PYTHONPATH=src python tests/compression/test_batched_kernel_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.measures import paper_context
from repro.collectives.batched import ring_allreduce_matrix
from repro.collectives.ops import MaxOp, MeanOp, SaturatingSumOp, SumOp
from repro.compression.kernels import fwht_rows
from repro.compression.registry import make_scheme
from repro.simulator.cluster import ClusterSpec

PINS_PATH = Path(__file__).with_name("batched_kernel_pins.json")

#: (workers, coordinates): VGG19's proxy model, an odd size, and a quarter of
#: the paper testbed's gradient at its 16 workers.
SHAPES = [(4, 41312), (3, 5773), (16, 1 << 18)]

SPECS = [
    "baseline(p=fp16)",
    "qsgd(q=4, agg=sat)",
    "topkc(b=2)",
    "topkc(b=2, perm=true)",
    "powersgd(r=4)",
    "topk(b=0.5)",
    "topk(b=2)",
    "topk(b=8)",
]

#: The ``ef(...)`` pins: every spec above except the extra TopK budgets.
EF_SPECS = [spec for spec in SPECS if spec not in ("topk(b=0.5)", "topk(b=8)")]

EF_SHAPE = (4, 5773)
EF_ROUNDS = 3

#: Ring operators by name; the saturating fold runs on clipped int8 levels.
RING_OPS = {
    "sum": SumOp(),
    "mean": MeanOp(),
    "max": MaxOp(),
    "sat4": SaturatingSumOp(bits=4),
}
RING_WORKERS = [1, 2, 3, 4, 16]

#: (workers, log2 row length) of the ``fwht_rows`` pin matrices.
FWHT_MATRICES = [(16, 16), (3, 12)]


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def case_id(spec: str, num_workers: int, num_coordinates: int) -> str:
    return f"batched {spec} n={num_workers} d={num_coordinates}"


def batched_context(num_workers: int, seed: int):
    cluster = ClusterSpec(num_nodes=num_workers, gpus_per_node=1)
    return paper_context(cluster, seed=seed)


def gradient_rows(num_workers: int, num_coordinates: int, round_index: int) -> list[np.ndarray]:
    rng = np.random.default_rng([num_coordinates, round_index])
    return list(
        rng.standard_normal((num_workers, num_coordinates), dtype=np.float32)
    )


def report_sha256(report) -> str | None:
    if report is None:
        return None
    return sha256(np.stack([np.asarray(row) for row in report]))


def run_case(spec: str, num_workers: int, num_coordinates: int) -> dict:
    """Aggregate two seeded rounds, then describe what both produced."""
    ctx = batched_context(num_workers, seed=num_workers * num_coordinates)
    scheme = make_scheme(spec)
    results = [
        scheme.aggregate(gradient_rows(num_workers, num_coordinates, index), ctx)
        for index in range(2)
    ]
    rng_state = ctx.rng.bit_generator.state
    described = {}
    for index, result in enumerate(results):
        described[f"round{index}"] = {
            "mean_estimate_sha256": sha256(result.mean_estimate),
            "transmitted_sha256": report_sha256(result.per_worker_transmitted),
        }
    described["rng_state"] = rng_state
    return described


def run_ef_case(spec: str, num_workers: int, num_coordinates: int) -> dict:
    """Three error-feedback rounds: each round's mean, then the residuals."""
    ctx = batched_context(num_workers, seed=num_workers + num_coordinates)
    scheme = make_scheme(f"ef({spec})")
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


def ring_matrix(op_name: str, num_workers: int, num_coordinates: int) -> np.ndarray:
    rng = np.random.default_rng([num_workers, num_coordinates])
    if op_name == "sat4":
        return rng.integers(-7, 8, size=(num_workers, num_coordinates), dtype=np.int8)
    return rng.standard_normal((num_workers, num_coordinates), dtype=np.float32)


def ring_case(op_name: str, num_workers: int, num_coordinates: int) -> str:
    matrix = ring_matrix(op_name, num_workers, num_coordinates)
    original = matrix.copy()
    out = ring_allreduce_matrix(matrix, RING_OPS[op_name])
    np.testing.assert_array_equal(matrix, original)
    return f"{out.dtype.str}:{sha256(out)}"


def ring_id(op_name: str, num_workers: int, num_coordinates: int) -> str:
    return f"ring {op_name} n={num_workers} d={num_coordinates}"


def fwht_case(num_workers: int, log_size: int, depth: int) -> str:
    matrix = np.random.default_rng([num_workers, log_size]).standard_normal(
        (num_workers, 1 << log_size), dtype=np.float32
    )
    original = matrix.copy()
    out = fwht_rows(matrix, depth)
    np.testing.assert_array_equal(matrix, original)
    assert out.shape == matrix.shape and out.dtype == np.float32
    return sha256(out)


def fwht_id(num_workers: int, log_size: int, depth: int) -> str:
    return f"fwht ({num_workers}, 2^{log_size}) depth={depth}"


def all_cases():
    return [(spec, n, d) for n, d in SHAPES for spec in SPECS]


def ef_cases():
    return [(spec, *EF_SHAPE) for spec in EF_SPECS]


def ring_cases():
    cases = []
    for n in RING_WORKERS:
        for d in sorted({1, n - 1, 5773}):
            cases.extend((op_name, n, d) for op_name in RING_OPS)
    return cases


def fwht_cases():
    return [
        (n, log_size, depth)
        for n, log_size in FWHT_MATRICES
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
def test_batched_spec_matches_pin(pins, spec, num_workers, num_coordinates):
    assert run_case(spec, num_workers, num_coordinates) == pins[
        case_id(spec, num_workers, num_coordinates)
    ]


@pytest.mark.parametrize(
    "spec,num_workers,num_coordinates",
    ef_cases(),
    ids=[case_id(f"ef({case[0]})", *case[1:]) for case in ef_cases()],
)
def test_batched_ef_matches_pin(pins, spec, num_workers, num_coordinates):
    assert run_ef_case(spec, num_workers, num_coordinates) == pins[
        case_id(f"ef({spec})", num_workers, num_coordinates)
    ]


@pytest.mark.parametrize(
    "op_name,num_workers,num_coordinates",
    ring_cases(),
    ids=[ring_id(*case) for case in ring_cases()],
)
def test_ring_allreduce_matrix_matches_pin(pins, op_name, num_workers, num_coordinates):
    assert ring_case(op_name, num_workers, num_coordinates) == pins[
        ring_id(op_name, num_workers, num_coordinates)
    ]


@pytest.mark.parametrize(
    "num_workers,log_size,depth",
    fwht_cases(),
    ids=[fwht_id(*case) for case in fwht_cases()],
)
def test_fwht_rows_matches_pin(pins, num_workers, log_size, depth):
    assert fwht_case(num_workers, log_size, depth) == pins[
        fwht_id(num_workers, log_size, depth)
    ]


if __name__ == "__main__":
    recorded = {case_id(*case): run_case(*case) for case in all_cases()}
    recorded.update(
        {case_id(f"ef({case[0]})", *case[1:]): run_ef_case(*case) for case in ef_cases()}
    )
    recorded.update({ring_id(*case): ring_case(*case) for case in ring_cases()})
    recorded.update({fwht_id(*case): fwht_case(*case) for case in fwht_cases()})
    PINS_PATH.write_text(json.dumps(recorded, indent=2) + "\n")
