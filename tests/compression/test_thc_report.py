"""What a THC round costs on the one kernel path, and the traps of making it cheaper.

The same THC kernels run in ``session.vnmse``, in ``simulate_trace`` and on
every rank of the real-tensor bridge.  The per-worker transmitted report is
deferred, so a plain round runs two transforms -- forward over the worker
matrix and inverse on the mean -- and error feedback pays one more to
materialize the report; quantization never writes into the caller's rows.
The values are pinned in ``test_thc_pins.py``; the float64 reference's in
``test_thc_legacy_pins.py``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.compression.thc as thc_module
from repro.api.measures import paper_context
from repro.bridge.prediction import simulate_trace
from repro.bridge.recorders import synthetic_trace
from repro.compression.hadamard import HadamardRotation, _butterfly_passes
from repro.compression.kernels import LazyTransmitted
from repro.compression.registry import make_scheme
from repro.simulator.cluster import ClusterSpec

#: This test's 2-worker trace shape: d = 148,097 coordinates in odd-sized
#: layers, the size the memory bound below is stated at.
TRACE_LAYERS = (
    ("embed.weight", (512, 128)),
    ("attn.qkv.weight", (384, 128)),
    ("attn.out.bias", (128,)),
    ("mlp.up.weight", (257, 129)),
    ("norm.scale", (128,)),
)

ROTATIONS = ("full", "partial", "none")


def context(num_workers: int, seed: int = 0):
    cluster = ClusterSpec(num_nodes=num_workers, gpus_per_node=1)
    return paper_context(cluster, seed=seed)


def worker_rows(num_workers: int, num_coordinates: int) -> list[np.ndarray]:
    rng = np.random.default_rng(num_coordinates)
    return list(rng.standard_normal((num_workers, num_coordinates), dtype=np.float32))


@pytest.fixture(scope="module")
def two_worker_trace():
    return synthetic_trace(num_steps=4, num_workers=2, layers=TRACE_LAYERS, seed=0)


@pytest.fixture
def transform_calls(monkeypatch):
    """Count THC's ``fwht_rows`` calls and the per-vector rotation's calls."""
    calls = {"fwht_rows": 0, "forward": 0, "inverse": 0}
    original_fwht = thc_module.fwht_rows

    def counted_fwht(*args, **kwargs):
        calls["fwht_rows"] += 1
        return original_fwht(*args, **kwargs)

    monkeypatch.setattr(thc_module, "fwht_rows", counted_fwht)
    for name in ("forward", "inverse"):
        original = getattr(HadamardRotation, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(HadamardRotation, name, counted)
    return calls


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_aggregate_leaves_caller_rows_untouched(rotation):
    # At a power-of-two d, rot=none needs no padding of the caller's rows.
    rows = worker_rows(3, 4096)
    before = [row.tobytes() for row in rows]
    result = make_scheme(f"thc(q=4, rot={rotation}, agg=sat)").aggregate(
        rows, context(3)
    )
    list(result.per_worker_transmitted)
    assert [row.tobytes() for row in rows] == before


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_report_is_deferred_until_read(rotation):
    result = make_scheme(f"thc(q=4, rot={rotation}, agg=widened)").aggregate(
        worker_rows(4, 5773), context(4)
    )
    report = result.per_worker_transmitted
    assert isinstance(report, LazyTransmitted)
    assert not report.materialized
    assert len(report) == 4
    assert not report.materialized
    assert report[1].shape == (5773,) and report[1].dtype == np.float32
    assert report.materialized


def test_plain_rounds_run_two_transforms(transform_calls, two_worker_trace):
    cluster = ClusterSpec(num_nodes=1, gpus_per_node=2)
    simulate_trace("thc(q=4, rot=full, agg=sat)", two_worker_trace, cluster=cluster)
    # Per step: forward over the worker matrix, inverse on the mean.
    assert transform_calls == {"fwht_rows": 2 * 4, "forward": 0, "inverse": 0}


def test_error_feedback_still_reads_every_report(transform_calls):
    scheme = make_scheme("ef(thc(q=4, rot=partial, agg=sat))")
    ctx = context(2)
    for _ in range(3):
        scheme.aggregate(worker_rows(2, 5773), ctx)
    # Per round: forward, inverse on the mean, and the report's inverse.
    assert transform_calls == {"fwht_rows": 3 * 3, "forward": 0, "inverse": 0}


def test_simulate_trace_memory_peak(two_worker_trace):
    cluster = ClusterSpec(num_nodes=1, gpus_per_node=2)
    tracemalloc.start()
    try:
        simulate_trace("thc(q=4, rot=full, agg=sat)", two_worker_trace, cluster=cluster)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 17 MiB: the trace's float32 rows, one wire matrix, its transform
    # and the narrow levels.
    assert peak <= 20 * 2**20


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_butterfly_passes_allocate_only_their_scratch(dtype):
    vector = np.random.default_rng(0).standard_normal(1 << 18).astype(dtype)
    tracemalloc.start()
    try:
        _butterfly_passes(vector, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Two half-size scratch buffers (plus ufunc buffering); per-pass
    # temporaries would need four halves alive at once.
    assert peak <= 1.25 * vector.nbytes
