"""Scenario: plug a new compression scheme into the evaluation framework.

The paper's methodological point is that *any* new scheme should be evaluated
by its end-to-end utility against the FP16 baseline.  This example shows the
extension path on the compositional API: implement the
:class:`AggregationScheme` interface for a simple new scheme (random-block
sparsification, a common strawman), register it as a *spec family* with typed
parameters via the ``@register`` decorator, and run it through exactly the
same session/utility evaluation as the built-in schemes -- spec parsing,
``ef(...)`` composition, and canonical ``.spec()`` formatting included.

A scheme has one cost ledger: ``aggregate_rows`` computes values (the mean,
the wire bits, what each worker sent) and ``estimate_costs`` prices the round.
Every throughput and time-to-accuracy number is priced from the latter.

Run with:  python examples/custom_compressor.py
"""

import numpy as np

from repro.api import ExperimentSession
from repro.collectives.ops import SumOp
from repro.compression import Param, SimContext, register
from repro.compression.base import AggregationResult, AggregationScheme, CostEstimate
from repro.core import compute_utility
from repro.grammar import POSITIVE
from repro.training import vgg19_tinyimagenet


@register(
    "randomblock",
    params=(
        Param(
            "b",
            float,
            kwarg="bits_per_coordinate",
            doc="target wire bits per coordinate",
            domain=POSITIVE,
        ),
    ),
    description="Energy-blind random-block sparsification (strawman)",
)
class RandomBlockCompressor(AggregationScheme):
    """Aggregate one randomly chosen block of coordinates per round.

    All workers agree on the block via a shared round counter, so the scheme
    is trivially all-reduce compatible; unlike TopKC it ignores gradient
    energy entirely, which is exactly why its utility should be worse.
    """

    def __init__(self, bits_per_coordinate: float = 2.0):
        # The declared domain (b > 0) is the one range check, for spec strings
        # and Python callers alike; it sees the value as given, since
        # float(True) would pass.
        self.bits_per_coordinate = bits_per_coordinate
        RandomBlockCompressor._spec_family.check(self)
        self.bits_per_coordinate = float(bits_per_coordinate)
        self.name = f"randomblock_b{bits_per_coordinate:g}"
        self._round = 0

    def _block(self, num_coordinates: int, rng: np.random.Generator) -> np.ndarray:
        keep = max(1, int(num_coordinates * self.bits_per_coordinate / 16.0))
        start = int(rng.integers(0, max(1, num_coordinates - keep)))
        return np.arange(start, min(num_coordinates, start + keep))

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del num_coordinates, world_size
        return self.bits_per_coordinate

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        """The round's price: gather the block, all-reduce it in FP16."""
        keep = max(1, int(num_coordinates * self.bits_per_coordinate / 16.0))
        communication = ctx.backend.cost_model.ring_allreduce(keep * 16.0).seconds
        compression = ctx.kernels.chunk_gather_time(keep)
        return CostEstimate(compression, communication, self.bits_per_coordinate)

    def aggregate_rows(self, rows, ctx: SimContext, d: int) -> AggregationResult:
        """The round's values over the worker rows; :meth:`estimate_costs` prices it."""
        block = self._block(d, np.random.default_rng(self._round))
        self._round += 1

        payloads = [row[block].astype(np.float16).astype(np.float32) for row in rows]
        block_sum = ctx.backend.allreduce_matrix(
            np.stack(payloads), wire_bits_per_value=16.0, op=SumOp()
        )

        mean = np.zeros(d, dtype=np.float32)
        mean[block] = block_sum / ctx.world_size
        transmitted = []
        for payload in payloads:
            dense = np.zeros(d, dtype=np.float32)
            dense[block] = payload
            transmitted.append(dense)
        return AggregationResult(
            mean_estimate=mean,
            bits_per_coordinate=self.bits_per_coordinate,
            per_worker_transmitted=transmitted,
        )


def main() -> None:
    session = ExperimentSession(seed=0)

    # The new family speaks the full spec language immediately.
    scheme = session.scheme("ef(randomblock(b=2))")
    print(f"registered family, canonical spec: {scheme.spec()}")

    workload = vgg19_tinyimagenet()
    results, _ = session.compare(
        ["topkc(b=2)", "ef(randomblock(b=2))"],
        workload,
        num_rounds=250,
        eval_every=25,
    )
    baseline = results["baseline(p=fp16)"]

    print(f"{'scheme':22s} {'rounds/s':>9s} {'best acc':>9s} {'speedup vs FP16':>16s}")
    for result in results.values():
        report = compute_utility(result.curve, baseline.curve)
        speedup = report.mean_speedup()
        print(
            f"{result.scheme_name:22s} {result.rounds_per_second:9.2f} "
            f"{result.curve.best_value():9.3f} "
            f"{speedup if speedup is not None else float('nan'):16.2f}"
        )
    print(
        "\nThe energy-blind random-block scheme matches TopKC's throughput but has "
        "worse accuracy at the same budget -- the utility framework makes that "
        "visible immediately."
    )


if __name__ == "__main__":
    main()
