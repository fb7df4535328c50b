"""Byte pins of the FP16 wire of ``baseline(p=fp16)``.

The baseline's wire is each worker's gradient rounded to IEEE float16 and
widened back to float32: bit for bit ``x.astype(np.float16).astype(np.float32)``.
How the scheme computes that rounding is an implementation detail, but the
bits are not.  These pins record, per corpus case, the SHA-256 of that round
trip, and check that the scheme's transmitted report reproduces it exactly.

The corpus covers the edges of the conversion: signed zeros, the float32
denormals, the float16 subnormal quantum 2^-24 and its ties, both sides of
the smallest float16 normal 2^-14, the top of the float16 range (65504,
65519.996 and the overflow at 65520), infinities, NaNs of both signs with
several payloads, 2^20 random bit patterns, about as many restricted to the
finite range (so whole tiles hold neither NaN nor overflow), and gradient
rows at scales 1e-5, 1e-3 and 1 whose lengths are not a multiple of the
kernels' tile.

Regenerate ``fp16_pins.json`` only for an intended change of the corpus::

    PYTHONPATH=src python tests/compression/test_fp16_pins.py
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

PINS_PATH = Path(__file__).with_name("fp16_pins.json")

SIGN = np.uint32(0x80000000)

#: Positive float32 bit patterns below the float16 overflow threshold.
FINITE_SPECIALS = [
    0x00000000,  # +0
    0x00000001,  # smallest float32 denormal
    0x00000002,
    0x00001000,
    0x00400000,
    0x007FFFFF,  # largest float32 denormal
    0x00800000,  # smallest float32 normal
    0x33800000,  # 2^-24, the float16 subnormal quantum
    0x33000000,  # 2^-25: a tie between 0 and 2^-24
    0x33400000,  # 3 * 2^-26 = 0.75 * 2^-24
    0x33C00000,  # 3 * 2^-25 = 1.5 * 2^-24: a tie between 1 and 2 quanta
    0x34200000,  # 5 * 2^-25 = 2.5 * 2^-24: a tie between 2 and 3 quanta
    0x387FFFFF,  # 2^-14 - 1 ulp
    0x38800000,  # 2^-14, the smallest float16 normal
    0x38800001,  # 2^-14 + 1 ulp
    0x38801000,  # 2^-14 + half a float16 ulp: a tie
    0x38803000,  # 2^-14 + 1.5 float16 ulps: a tie
    0x3F800000,  # 1
    0x3F801000,  # 1 + half a float16 ulp: a tie
    0x3F803000,
    0x477FE000,  # 65504, the largest float16
    0x477FEFFF,  # 65519.996: the largest float32 that does not overflow
]

#: Positive patterns at or beyond the overflow: 65520, 65536, 1e10,
#: float32 max and infinity.
OVERFLOWS = [0x477FF000, 0x47800000, 0x501502F9, 0x7F7FFFFF, 0x7F800000]

#: Positive NaN patterns: quiet and signalling, with several payloads.
NANS = [0x7FC00000, 0x7FC00001, 0x7F800001, 0x7FA00000, 0x7F802000, 0x7FFFE000, 0x7FFFFFFF]


def signed_pair(patterns: list[int]) -> np.ndarray:
    """Two worker rows: the patterns, then the same patterns negated."""
    positive = np.array(patterns, dtype=np.uint32)
    return np.stack([positive, positive | SIGN]).view(np.float32)


def random_bits(num_workers: int, num_coordinates: int, *, finite: bool) -> np.ndarray:
    rng = np.random.default_rng([num_workers, num_coordinates, int(finite)])
    bits = rng.integers(0, 1 << 32, size=(num_workers, num_coordinates), dtype=np.uint64)
    bits = bits.astype(np.uint32)
    if finite:
        # Fold every magnitude below 65520, keeping the sign.
        bits = (bits & SIGN) | ((bits & np.uint32(0x7FFFFFFF)) % np.uint32(0x477FF000))
    return bits.view(np.float32)


def gradient(num_workers: int, num_coordinates: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng([num_workers, num_coordinates])
    rows = rng.standard_normal((num_workers, num_coordinates), dtype=np.float32)
    return rows * np.float32(scale)


#: Case name -> the (workers, coordinates) float32 matrix of that case.
CASES = {
    "finite specials": lambda: signed_pair(FINITE_SPECIALS),
    "overflows": lambda: signed_pair(OVERFLOWS),
    "nans": lambda: signed_pair(NANS),
    "all specials": lambda: signed_pair(FINITE_SPECIALS + OVERFLOWS + NANS),
    "random bits (16, 2^16)": lambda: random_bits(16, 1 << 16, finite=False),
    "random finite bits (5, 209715)": lambda: random_bits(5, 209715, finite=True),
    "gradient 1e-5 (3, 100003)": lambda: gradient(3, 100003, 1e-5),
    "gradient 1e-3 (3, 100003)": lambda: gradient(3, 100003, 1e-3),
    "gradient 1 (3, 100003)": lambda: gradient(3, 100003, 1.0),
    "gradient 1e-5 (5, 1001)": lambda: gradient(5, 1001, 1e-5),
    "gradient 1 (2, 65537)": lambda: gradient(2, 65537, 1.0),
}


def round_trip(matrix: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return matrix.astype(np.float16).astype(np.float32)


def sha256(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_round_trip_matches_pin(case, pins):
    assert sha256(round_trip(CASES[case]())) == pins[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_baseline_wire_is_the_round_trip(case, pins):
    matrix = CASES[case]()
    original = matrix.copy()
    num_workers = matrix.shape[0]
    ctx = paper_context(ClusterSpec(num_nodes=num_workers, gpus_per_node=1))
    with np.errstate(over="ignore", invalid="ignore"):
        result = make_scheme("baseline(p=fp16)").aggregate(list(matrix), ctx)
    wire = np.stack([np.asarray(row) for row in result.per_worker_transmitted])
    np.testing.assert_array_equal(
        wire.view(np.uint32), round_trip(matrix).view(np.uint32)
    )
    assert sha256(wire) == pins[case]
    np.testing.assert_array_equal(matrix.view(np.uint32), original.view(np.uint32))


if __name__ == "__main__":
    PINS_PATH.write_text(
        json.dumps({case: sha256(round_trip(CASES[case]())) for case in sorted(CASES)}, indent=2)
        + "\n"
    )
