"""Experiment drivers: one module per table and figure of the paper.

Every module exposes a ``run_*`` function that returns structured results and
a ``render_*`` function that prints the same rows/series the paper reports.
The benchmark harness under ``benchmarks/`` calls these drivers; the
EXPERIMENTS.md document records the measured values next to the paper's.
Importing the package loads no driver; ``from repro.experiments import
table8`` loads that one, so ``python -m repro.experiments.validation`` runs
its module once.

| Module      | Paper content                                              |
|-------------|------------------------------------------------------------|
| ``table1``  | Assessment of prior gradient compression systems           |
| ``table2``  | Baseline throughput vs training/communication precision    |
| ``table4``  | vNMSE of TopKC vs TopKC with random permutation            |
| ``table5``  | Throughput of TopK vs TopKC                                 |
| ``table6``  | Compression overhead of TopK                                |
| ``table7``  | vNMSE of TopK vs TopKC                                      |
| ``table8``  | Throughput of THC variants (saturation, partial rotation)   |
| ``table9``  | Bits-per-coordinate and throughput of PowerSGD              |
| ``figure1`` | TTA of TopKC vs TopK vs the FP16/FP32 baselines            |
| ``figure2`` | TTA of THC variants                                         |
| ``figure3`` | TTA of PowerSGD across ranks                                |
| ``fleet``   | Scheme pricing on 100k-1M-worker generated fabrics          |
| ``validation`` | Measured-vs-simulated agreement via the real-tensor bridge |
"""

__all__ = [
    "adaptive",
    "common",
    "faults",
    "fleet",
    "scenario_fleet",
    "validation",
    "table1",
    "table2",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "figure1",
    "figure2",
    "figure3",
]
