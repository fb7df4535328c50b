"""SPMD bridge == monolithic simulator: same kernels, same seeds, same bits.

Every harness rank runs the scheme's one implementation on a gradient list
that holds only its own row, puts that row of each collective payload on the
wire, and receives what the server folded with the simulator's own matrix
fold.  With a shared seed every rank draws the simulator's rng stream, so
the only thing that can separate the two means is the wire's rounding:

* every scheme outside the THC and PowerSGD families sends payloads the wire
  carries losslessly (FP16-cast values, integer levels and indices, norm
  scalars whose rounding the float32 output absorbs), so each round's
  harness mean equals the simulated mean bit for bit;
* THC's per-chunk range consensus crosses the wire at FP16 where the
  simulator folds float32 ranges.  That is its whole gap: a simulator whose
  16-bit float payloads are rounded to float16 before the fold reproduces
  the harness bit for bit.

PowerSGD's factors cross an FP32 wire where the simulator keeps float64; its
gap stays within :data:`repro.experiments.validation.TOLERANCES`.

Below the means, the lossless schemes also put the simulator's payloads on
the wire: collective call ``k`` of the harness carries, from each rank, that
rank's row of the simulator's call ``k`` as the wire encodes it.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.bridge import RecordingBackend, run_harness, simulate_trace, synthetic_trace
from repro.bridge.actors import AggregationServer
from repro.bridge.wire import decode_section, encode_section
from repro.compression.base import SimContext
from repro.compression.registry import make_scheme
from repro.experiments.validation import REGISTRY_SPECS
from repro.simulator.cluster import multirack_cluster, paper_testbed
from repro.simulator.kernel_cost import KernelCostModel

#: Error-feedback wrappers and in-network variants the bridge runs, next to
#: the registry.
EXTRA_SPECS = (
    "ef(topk(b=2))",
    "ef(topkc(b=2))",
    "ef(thc(q=4, rot=partial, agg=sat))",
    "ef(qsgd(q=4, agg=sat))",
    "ef(signsgd)",
    "thc(q=4, rot=partial, agg=switch)",
    "qsgd(q=4, agg=switch)",
)

ALL_SPECS = REGISTRY_SPECS + EXTRA_SPECS


def family_of(spec: str) -> str:
    return make_scheme(spec).spec().removeprefix("ef(").split("(")[0]


#: Specs whose wire is lossless end to end.
EXACT_SPECS = tuple(s for s in ALL_SPECS if family_of(s) not in ("thc", "powersgd"))

THC_SPECS = tuple(s for s in ALL_SPECS if family_of(s) == "thc")

#: Four workers on one and two racks, and six on three racks (uneven ring
#: chunks, an odd rack count).
CLUSTERS = {
    "testbed": paper_testbed(),
    "multirack": multirack_cluster(2, nodes_per_rack=1),
    "three-rack": multirack_cluster(3, nodes_per_rack=1),
}


@functools.cache
def trace_of(world_size: int):
    return synthetic_trace(num_steps=2, num_workers=world_size, seed=5)


@pytest.fixture(scope="module")
def trace():
    return trace_of(4)


def assert_rounds_equal(simulated_means, measured) -> None:
    assert len(simulated_means) == len(measured.rounds)
    for simulated, round_ in zip(simulated_means, measured.rounds):
        assert np.array_equal(round_.mean_estimate, simulated)


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("spec", EXACT_SPECS)
def test_harness_mean_equals_simulated_mean(spec, cluster_name):
    cluster = CLUSTERS[cluster_name]
    trace = trace_of(cluster.world_size)
    simulated = simulate_trace(spec, trace, cluster=cluster, seed=9)
    measured = run_harness(spec, trace, cluster=cluster, seed=9)
    assert_rounds_equal([r.mean_estimate for r in simulated.rounds], measured)


def test_process_transport_mean_equals_simulated_mean(trace):
    simulated = simulate_trace("topk(b=2)", trace, seed=9)
    measured = run_harness("topk(b=2)", trace, seed=9, transport="process")
    assert measured.transport == "process"
    assert_rounds_equal([r.mean_estimate for r in simulated.rounds], measured)


class Float16WireBackend(RecordingBackend):
    """The simulator's fold, fed 16-bit float payloads as the wire rounds them."""

    def allreduce_matrix(self, matrix, *, wire_bits_per_value, **kwargs):
        if wire_bits_per_value == 16.0 and not np.issubdtype(matrix.dtype, np.integer):
            matrix = matrix.astype(np.float16).astype(matrix.dtype)
        return super().allreduce_matrix(
            matrix, wire_bits_per_value=wire_bits_per_value, **kwargs
        )


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("spec", THC_SPECS)
def test_thc_gap_is_the_fp16_range_consensus(spec, cluster_name):
    cluster = CLUSTERS[cluster_name]
    trace = trace_of(cluster.world_size)
    measured = run_harness(spec, trace, cluster=cluster, seed=9)
    plain = simulate_trace(spec, trace, cluster=cluster, seed=9)
    # Unrounded ranges: the harness differs from the simulator...
    assert not all(
        np.array_equal(r.mean_estimate, m.mean_estimate)
        for r, m in zip(plain.rounds, measured.rounds)
    )
    # ...and rounding the 16-bit range payload closes the gap exactly.
    ctx = SimContext(
        backend=Float16WireBackend(cluster),
        kernels=KernelCostModel(gpu=cluster.gpu),
        rng=np.random.default_rng(9),
    )
    scheme = make_scheme(spec)
    rounded = [scheme.aggregate(step.flats(), ctx).mean_estimate for step in trace.steps]
    assert_rounds_equal(rounded, measured)


class PayloadRecordingBackend(RecordingBackend):
    """The simulator's backend, keeping every rank's payload of every call."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.payloads: list[tuple[str, list[list[np.ndarray]]]] = []

    def _keep(self, kind, per_rank, bits) -> None:
        self.payloads.append(
            (
                kind,
                [
                    [
                        decode_section(encode_section(np.asarray(array), width))
                        for array, width in zip(arrays, bits)
                    ]
                    for arrays in per_rank
                ],
            )
        )

    def allreduce_matrix(self, matrix, *, wire_bits_per_value, **kwargs):
        self._keep("allreduce", [[row] for row in matrix], [wire_bits_per_value])
        return super().allreduce_matrix(
            matrix, wire_bits_per_value=wire_bits_per_value, **kwargs
        )

    def allgather(self, worker_payloads, *, wire_bits_per_value):
        self._keep(
            "allgather", [[payload] for payload in worker_payloads], [wire_bits_per_value]
        )
        return super().allgather(worker_payloads, wire_bits_per_value=wire_bits_per_value)

    def allgather_sections(self, worker_sections, *, wire_bits_per_section):
        self._keep("allgather", worker_sections, wire_bits_per_section)
        return super().allgather_sections(
            worker_sections, wire_bits_per_section=wire_bits_per_section
        )


@pytest.mark.parametrize("spec", EXACT_SPECS)
def test_each_rank_sends_its_row_of_the_simulated_payload(spec, trace, monkeypatch):
    cluster = CLUSTERS["testbed"]
    received: list[tuple[str, list[list[np.ndarray]]]] = []
    serve_collective = AggregationServer._serve_collective

    def recording_serve(server, batch):
        by_rank = sorted(batch, key=lambda message: message["rank"])
        sections = [
            [message["section"]] if "section" in message else message["sections"]
            for message in by_rank
        ]
        received.append(
            (
                by_rank[0]["kind"],
                [[decode_section(section) for section in row] for row in sections],
            )
        )
        return serve_collective(server, batch)

    monkeypatch.setattr(AggregationServer, "_serve_collective", recording_serve)
    run_harness(spec, trace, cluster=cluster, seed=9)

    backend = PayloadRecordingBackend(cluster)
    ctx = SimContext(
        backend=backend,
        kernels=KernelCostModel(gpu=cluster.gpu),
        rng=np.random.default_rng(9),
    )
    scheme = make_scheme(spec)
    for step in trace.steps:
        scheme.aggregate(step.flats(), ctx)

    assert received
    assert [kind for kind, _ in received] == [kind for kind, _ in backend.payloads]
    for (_, wire), (_, simulated) in zip(received, backend.payloads):
        assert len(wire) == len(simulated) == cluster.world_size
        for wire_arrays, simulated_arrays in zip(wire, simulated):
            assert len(wire_arrays) == len(simulated_arrays)
            for sent, expected in zip(wire_arrays, simulated_arrays):
                assert sent.dtype == expected.dtype
                assert np.array_equal(sent, expected)
