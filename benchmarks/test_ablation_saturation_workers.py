"""Ablation: saturation overflow probability vs worker count and wire width.

The paper notes that saturation-based aggregation "has to allocate more
communication bits as the number of workers increases".  This sweep measures
the fraction of coordinates that would saturate as the cluster grows, for
several wire widths, quantifying when b = q stops being safe.
"""

import numpy as np

from repro.collectives.ops import SaturatingSumOp
from repro.compression.hadamard import HadamardRotation
from repro.compression.kernels import RoundWorkspace, round_stochastically
from repro.compression.quantization import StochasticQuantizer

WORKER_COUNTS = (2, 4, 8, 16, 32)
WIRE_BITS = (4, 6, 8)


def run_saturation_sweep():
    rng = np.random.default_rng(0)
    d = 1 << 14
    rotation = HadamardRotation(seed=1, depth=12)
    quantizer = StochasticQuantizer(4)

    results = {}
    for num_workers in WORKER_COUNTS:
        gradients = [rng.standard_normal(d).astype(np.float32) for _ in range(num_workers)]
        rotated = np.stack([rotation.forward(g)[0] for g in gradients])
        shared_range = float(np.max(np.abs(rotated)))
        max_level = quantizer.max_level
        levels = np.empty(rotated.shape, dtype=np.int8)
        round_stochastically(
            rotated,
            levels,
            rng,
            float(max_level),
            scale=np.float32(max_level / shared_range),
            workspace=RoundWorkspace(),
            label="ablation",
        )
        exact_sum = np.sum(levels, axis=0, dtype=np.int64)
        for bits in WIRE_BITS:
            op = SaturatingSumOp(bits=bits)
            saturated = float(np.mean(np.abs(exact_sum) > op.max_value))
            results[(num_workers, bits)] = saturated
    return results


def test_ablation_saturation_workers(run_once):
    results = run_once(run_saturation_sweep)

    print("\nSaturation overflow probability vs worker count (q = 4)")
    header = "workers " + "".join(f"b={bits:>8d}" for bits in WIRE_BITS)
    print(header)
    for num_workers in WORKER_COUNTS:
        row = f"{num_workers:7d} " + "".join(
            f"{results[(num_workers, bits)]:10.4f}" for bits in WIRE_BITS
        )
        print(row)

    # More workers -> more overflow at fixed width; wider wire -> less overflow.
    for bits in WIRE_BITS:
        assert results[(32, bits)] >= results[(2, bits)]
    for num_workers in WORKER_COUNTS:
        assert results[(num_workers, 8)] <= results[(num_workers, 4)]
    # At the paper's scale (4 workers, b = q = 4) overflow is rare.
    assert results[(4, 4)] < 0.15
