"""The simulator's side of the differential comparison.

:func:`simulate_trace` runs a scheme *monolithically* -- the ordinary
simulated path, all workers' gradients in one process -- over the same trace
steps the harness executes, with a :class:`RecordingBackend` that logs, per
collective call, exactly how many payload bits the simulator charges each
worker (``size * wire_bits_per_value``, the quantity every cost-model call
prices).  The harness's measured uplink must equal this accounting bit for
bit; the validation family and ``tests/bridge`` enforce it.

The simulated run executes the same code as the harness and as
``session.vnmse``/``tta``: one kernel pass over all workers' rows, whose
collective calls carry one row per worker -- exactly what each harness rank
puts on its wire.  With the same seed every harness rank draws the same rng
stream, so the two sides differ only by the wire's rounding (FP16 and FP32
payloads).  The run's simulated seconds come from the scheme's
``estimate_costs``, the one cost ledger, not from the aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bridge.trace import GradientTrace
from repro.collectives.api import Collective, CollectiveBackend
from repro.collectives.ops import ReduceOp
from repro.compression.base import SimContext
from repro.compression.registry import make_scheme
from repro.core.metrics import vnmse
from repro.simulator.cluster import ClusterSpec, paper_testbed
from repro.simulator.kernel_cost import KernelCostModel


@dataclass
class RecordedCall:
    """The simulator's traffic accounting for one collective call."""

    kind: str
    per_worker_bits: tuple[int, ...]


class RecordingBackend(CollectiveBackend):
    """A collective backend that logs per-worker payload bits per call.

    The recorded quantity is the *uplink contribution* of each worker: the
    bits its payload occupies at the declared wire width -- exactly what
    :class:`~repro.bridge.actors.TransportBackend` measures from the real
    encoded bytes on the harness side.
    """

    def __init__(self, cluster: ClusterSpec | None = None):
        super().__init__(cluster)
        self.calls: list[RecordedCall] = []

    def _log(self, kind: str, per_worker_bits: list[float]) -> None:
        bits = []
        for value in per_worker_bits:
            rounded = int(round(value))
            if abs(value - rounded) > 1e-9:
                raise ValueError(
                    f"{kind} payload of {value} bits is not a whole number; "
                    "the wire cannot carry fractional bits"
                )
            bits.append(rounded)
        self.calls.append(RecordedCall(kind=kind, per_worker_bits=tuple(bits)))

    def allreduce_matrix(
        self,
        matrix: np.ndarray,
        *,
        wire_bits_per_value: float,
        op: ReduceOp | None = None,
        collective: Collective = Collective.RING_ALLREDUCE,
    ):
        result = super().allreduce_matrix(
            matrix,
            wire_bits_per_value=wire_bits_per_value,
            op=op,
            collective=collective,
        )
        self._log("allreduce", [matrix.shape[1] * wire_bits_per_value] * matrix.shape[0])
        return result

    def allgather(
        self,
        worker_payloads: list[np.ndarray],
        *,
        wire_bits_per_value: float,
    ):
        result = super().allgather(
            worker_payloads, wire_bits_per_value=wire_bits_per_value
        )
        self._log(
            "allgather",
            [payload.size * wire_bits_per_value for payload in worker_payloads],
        )
        return result

    def allgather_sections(
        self,
        worker_sections,
        *,
        wire_bits_per_section,
    ):
        result = super().allgather_sections(
            worker_sections, wire_bits_per_section=wire_bits_per_section
        )
        self._log(
            "allgather",
            [
                sum(
                    section.size * bits
                    for section, bits in zip(sections, wire_bits_per_section)
                )
                for sections in worker_sections
            ],
        )
        return result


@dataclass(frozen=True)
class SimulatedRound:
    """The simulator's prediction for one trace step."""

    index: int
    vnmse: float
    mean_estimate: np.ndarray
    per_worker_bits: tuple[int, ...]
    collective_calls: int
    bits_per_coordinate: float


@dataclass(frozen=True)
class SimulatedRun:
    """A monolithic simulated pass over a trace, with traffic accounting.

    ``total_seconds`` is the run's simulated time, priced by the one cost
    ledger: the number of rounds times the scheme's ``estimate_costs``.
    """

    spec: str
    rounds: tuple[SimulatedRound, ...] = field(default_factory=tuple)
    total_seconds: float = 0.0

    @property
    def mean_vnmse(self) -> float:
        return float(np.mean([round_.vnmse for round_ in self.rounds]))

    @property
    def total_bits(self) -> int:
        return sum(sum(round_.per_worker_bits) for round_ in self.rounds)


def simulate_trace(
    spec: str,
    trace: GradientTrace,
    *,
    cluster: ClusterSpec | None = None,
    seed: int = 0,
) -> SimulatedRun:
    """Simulate ``spec`` over ``trace`` and record its traffic accounting.

    Same trace, same seed, same kernels as the harness -- the only things
    the harness adds are the transport and the wire encodings, which is
    precisely the gap the validation report quantifies.
    """
    cluster = cluster or paper_testbed()
    if cluster.world_size != trace.num_workers:
        raise ValueError(
            f"cluster world size {cluster.world_size} != trace workers "
            f"{trace.num_workers}"
        )
    backend = RecordingBackend(cluster)
    ctx = SimContext(
        backend=backend,
        kernels=KernelCostModel(gpu=cluster.gpu),
        rng=np.random.default_rng(seed),
    )
    scheme = make_scheme(spec)
    world = cluster.world_size

    rounds = []
    for step in trace.steps:
        calls_before = len(backend.calls)
        result = scheme.aggregate(step.flats(), ctx)
        step_calls = backend.calls[calls_before:]
        per_worker = tuple(
            sum(call.per_worker_bits[rank] for call in step_calls)
            for rank in range(world)
        )
        mean = np.asarray(result.mean_estimate, dtype=np.float32)
        rounds.append(
            SimulatedRound(
                index=step.index,
                vnmse=vnmse(mean, step.true_mean()),
                mean_estimate=mean,
                per_worker_bits=per_worker,
                collective_calls=len(step_calls),
                bits_per_coordinate=result.bits_per_coordinate,
            )
        )
    priced = scheme.estimate_costs(trace.num_coordinates, ctx)
    return SimulatedRun(
        spec=spec,
        rounds=tuple(rounds),
        total_seconds=len(rounds) * priced.total_seconds,
    )
