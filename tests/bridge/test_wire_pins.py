"""Byte pins of the wire codecs' ``pack`` encoding, and its bit-matrix oracle.

Uplink payloads are what the differential validation suite counts, so how
``encode_section`` packs q-bit levels is an implementation detail whose bytes
must not move.  These pins record, for every packed width from 2 to 33 plus
40 and 63 (32 bits, and 16 bits for floats, have IEEE codecs), at sizes 0, 1, 7, 9, 148,097 (the bridge benchmark's gradient) and
2^18, from ``int8``, ``int16``, ``int64`` and integral ``float64`` inputs:

* the SHA-256 of the encoded payload;
* the SHA-256 of the decoded array (dtype, shape and bytes).

Each input holds the smallest and the largest value both its width and its
dtype can carry.  A Hypothesis property checks the codec against the
bit-matrix packer of ``tests/reference.py`` on arbitrary payloads.

Regenerate ``wire_pins.json`` only for an intended change of wire format::

    PYTHONPATH=src:tests python tests/bridge/test_wire_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import pack_ints, unpack_ints
from repro.bridge import decode_section, encode_section

PINS_PATH = Path(__file__).with_name("wire_pins.json")

WIDTHS = (*range(2, 34), 40, 63)
SIZES = (0, 1, 7, 9, 148_097, 1 << 18)
DTYPES = ("int8", "int16", "int64", "float64")


def value_bounds(dtype: str, width: int) -> tuple[int, int]:
    """The smallest and largest value both ``width`` and ``dtype`` carry."""
    low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if np.issubdtype(np.dtype(dtype), np.integer):
        info = np.iinfo(dtype)
        return max(low, int(info.min)), min(high, int(info.max))
    top = float(high)
    if int(top) > high:  # above 2^53 the largest field is not a float64
        top = float(np.nextafter(top, 0.0))
    return low, int(top)


def pin_input(dtype: str, width: int, size: int) -> np.ndarray:
    low, high = value_bounds(dtype, width)
    rng = np.random.default_rng([width, size, DTYPES.index(dtype)])
    values = rng.integers(low, high, endpoint=True, size=size).astype(dtype)
    if size:
        values[0] = low
    if size > 1:
        values[-1] = high
    return values


def digest(array: np.ndarray) -> str:
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + np.ascontiguousarray(array).tobytes()).hexdigest()


def run_case(dtype: str, width: int) -> dict[str, list[str]]:
    recorded = {}
    for size in SIZES:
        values = pin_input(dtype, width, size)
        section = encode_section(values, float(width))
        assert section.encoding == "pack"
        decoded = decode_section(section)
        assert decoded.dtype == values.dtype
        assert np.array_equal(decoded, values)
        recorded[str(size)] = [
            hashlib.sha256(section.payload).hexdigest(),
            digest(decoded),
        ]
    return recorded


def case_id(dtype: str, width: int) -> str:
    return f"{dtype} w={width}"


def packs(dtype: str, width: int) -> bool:
    """Whether ``encode_section`` bit-packs ``dtype`` at ``width`` bits."""
    return width != 32 and not (width == 16 and dtype == "float64")


CASES = [(dtype, width) for dtype in DTYPES for width in WIDTHS if packs(dtype, width)]


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_case(pins):
    assert sorted(pins) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("dtype,width", CASES, ids=[case_id(*case) for case in CASES])
def test_pack_matches_pin(pins, dtype, width):
    assert run_case(dtype, width) == pins[case_id(dtype, width)]


@st.composite
def packed_payloads(draw):
    dtype, width = draw(st.sampled_from(CASES))
    low, high = value_bounds(dtype, width)
    values = draw(st.lists(st.integers(low, high), max_size=70))
    return np.array(values, dtype=dtype), width


@settings(max_examples=300, deadline=None)
@given(case=packed_payloads())
def test_pack_matches_bit_matrix_oracle(case):
    values, width = case
    section = encode_section(values, float(width))
    assert section.payload == pack_ints(values.astype(np.int64), width)
    decoded = decode_section(section)
    expected = unpack_ints(section.payload, values.size, width).astype(values.dtype)
    assert decoded.dtype == values.dtype
    assert np.array_equal(decoded, expected)
    assert np.array_equal(decoded, values)


if __name__ == "__main__":
    recorded = {case_id(*case): run_case(*case) for case in CASES}
    PINS_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
