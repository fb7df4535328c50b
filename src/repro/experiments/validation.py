"""Validation experiment family: measured vs. simulated, per scheme.

Every other experiment in this package *prices* schemes; this one checks the
prices.  For each spec, the same seeded gradient trace is run twice:

* **simulated** -- the ordinary monolithic path
  (:func:`repro.bridge.simulate_trace`), with per-collective traffic
  recording;
* **measured** -- the execution harness (:func:`repro.bridge.run_harness`):
  worker/server actors moving real wire-encoded bytes over a transport.

The agreement report then holds two claims up to the light:

* **Traffic is exact.**  The bits every worker actually put on the wire must
  equal the simulator's per-scheme accounting bit for bit, every round.
  There is no tolerance here -- a traffic model that is off by one byte is a
  wrong model.
* **VNMSE agrees within a documented per-class tolerance.**  Wire encodings
  round for real (FP16 range consensus, FP32 norm scalars), so scheme
  classes differ: deterministic lossless schemes must match to float noise;
  deterministic schemes whose consensus scalars cross a float wire get a
  small rounding allowance; stochastic quantizers share the simulator's
  seeded randomness stream, but a rounded scale can legally flip individual
  stochastic rounding decisions, so they get a distributional tolerance.
  (Across *different* seeds, stochastic schemes agree only in distribution;
  the report's same-seed comparison is the strictest check that is sound.)

``python -m repro.experiments.validation --out report.json`` runs the quick
pass CI uses (the ``bridge-smoke`` job).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.bridge.actors import HarnessResult, run_harness
from repro.bridge.prediction import SimulatedRun, simulate_trace
from repro.bridge.recorders import synthetic_trace
from repro.bridge.trace import GradientTrace
from repro.compression.base import AggregationScheme
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.precision import PrecisionBaseline
from repro.compression.registry import ALIASES, make_scheme
from repro.compression.signsgd import SignSGDCompressor
from repro.compression.topk import TopKCompressor
from repro.compression.topkc import TopKChunkedCompressor
from repro.core.metrics import squared_norm, vnmse
from repro.simulator.cluster import ClusterSpec, paper_testbed

#: The whole registry at its paper configurations (deduplicated aliases).
REGISTRY_SPECS = tuple(sorted(set(ALIASES.values())))

#: Per-class VNMSE tolerances of the same-seed measured-vs-simulated
#: comparison.  Rationale in the module docstring; the differential suite in
#: ``tests/bridge`` enforces these for every registry spec.
TOLERANCES = {
    # Payloads are pre-rounded to their wire precision before the collective
    # (FP16 casts, integer indices), so the real wire is lossless and the
    # harness must reproduce the simulated estimate to float noise.
    "deterministic-lossless": 1e-7,
    # Deterministic protocol, but consensus scalars (PowerSGD factors,
    # signSGD's mean magnitude) cross the wire at FP32 where the simulator
    # folds float64: a genuine, bounded sim-vs-real rounding gap.  (signSGD's
    # float32 output absorbs it: its harness mean is bit-equal.)
    "deterministic-rounded": 1e-4,
    # Stochastic quantizers (THC, QSGD): harness and simulator run the same
    # kernels with the same seed and draw identical uniforms.  QSGD's means
    # are bit-equal.  THC's whole gap is the FP16 wire rounding of its
    # per-chunk range consensus -- the simulator folds float32 ranges -- which
    # rescales quantization steps and can flip individual stochastic
    # rounding decisions; rounded to float16 before the fold, the simulator
    # reproduces the harness bit for bit (tests/bridge/test_exactness.py).
    "stochastic": 5e-2,
    # Schemes registered outside the shipped families: no structural
    # knowledge, so they get the widest documented tolerance.
    "unclassified": 5e-2,
}


def scheme_class(scheme: AggregationScheme | str) -> str:
    """The tolerance class of a scheme (see :data:`TOLERANCES`)."""
    if isinstance(scheme, str):
        scheme = make_scheme(scheme)
    inner = scheme.scheme if isinstance(scheme, ErrorFeedback) else scheme
    if getattr(inner, "quantizer", None) is not None:
        return "stochastic"
    if isinstance(inner, (PrecisionBaseline, TopKCompressor, TopKChunkedCompressor)):
        return "deterministic-lossless"
    if isinstance(inner, (PowerSGDCompressor, SignSGDCompressor)):
        return "deterministic-rounded"
    return "unclassified"


def vnmse_tolerance(scheme: AggregationScheme | str) -> float:
    """The documented relative VNMSE tolerance for a scheme."""
    return TOLERANCES[scheme_class(scheme)]


@dataclass(frozen=True)
class AgreementRow:
    """Measured-vs-simulated agreement for one scheme on one trace."""

    spec: str
    scheme_class: str
    tolerance: float
    simulated_vnmse: float
    measured_vnmse: float
    relative_gap: float
    vnmse_ok: bool
    traffic_exact: bool
    simulated_bits_per_round: tuple[int, ...]
    measured_bits_per_round: tuple[int, ...]
    measured_uplink_bytes: int
    analytic_bits_per_coordinate: float
    accounted_bits_per_coordinate: float
    collective_calls_per_round: int
    simulated_seconds: float
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return self.vnmse_ok and self.traffic_exact


@dataclass(frozen=True)
class ValidationReport:
    """The agreement report of one validation run."""

    rows: tuple[AgreementRow, ...]
    num_steps: int
    num_workers: int
    num_coordinates: int
    seed: int
    transport: str
    metadata: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def row(self, spec: str) -> AgreementRow:
        for row in self.rows:
            if row.spec == spec:
                return row
        raise KeyError(f"no agreement row for spec {spec!r}")

    def to_payload(self, *, include_timing: bool = False) -> dict:
        """A JSON-able payload; timing is excluded by default so the payload
        is deterministic (wall-clock is machine noise, not a prediction)."""
        rows = []
        for row in self.rows:
            entry = {
                "spec": row.spec,
                "scheme_class": row.scheme_class,
                "tolerance": row.tolerance,
                "simulated_vnmse": row.simulated_vnmse,
                "measured_vnmse": row.measured_vnmse,
                "relative_gap": row.relative_gap,
                "vnmse_ok": row.vnmse_ok,
                "traffic_exact": row.traffic_exact,
                "simulated_bits_per_round": list(row.simulated_bits_per_round),
                "measured_bits_per_round": list(row.measured_bits_per_round),
                "measured_uplink_bytes": row.measured_uplink_bytes,
                "analytic_bits_per_coordinate": row.analytic_bits_per_coordinate,
                "accounted_bits_per_coordinate": row.accounted_bits_per_coordinate,
                "collective_calls_per_round": row.collective_calls_per_round,
            }
            if include_timing:
                entry["simulated_seconds"] = row.simulated_seconds
                entry["wall_seconds"] = row.wall_seconds
            rows.append(entry)
        return {
            "num_steps": self.num_steps,
            "num_workers": self.num_workers,
            "num_coordinates": self.num_coordinates,
            "seed": self.seed,
            "transport": self.transport,
            "all_ok": self.all_ok,
            "rows": rows,
        }

    def render(self) -> str:
        """A human-readable agreement table."""
        header = (
            f"{'spec':42s} {'class':24s} {'sim vNMSE':>12s} {'meas vNMSE':>12s} "
            f"{'rel gap':>9s} {'tol':>8s} {'traffic':>8s} {'ok':>3s}"
        )
        lines = [
            f"validation: {len(self.rows)} schemes, {self.num_steps} steps x "
            f"{self.num_workers} workers, d={self.num_coordinates}, "
            f"seed={self.seed}, transport={self.transport}",
            header,
            "-" * len(header),
        ]
        for row in self.rows:
            lines.append(
                f"{row.spec:42s} {row.scheme_class:24s} "
                f"{row.simulated_vnmse:12.6g} {row.measured_vnmse:12.6g} "
                f"{row.relative_gap:9.2e} {row.tolerance:8.0e} "
                f"{'exact' if row.traffic_exact else 'MISMATCH':>8s} "
                f"{'yes' if row.ok else 'NO':>3s}"
            )
        lines.append(f"all_ok: {self.all_ok}")
        return "\n".join(lines)


def compare_runs(
    spec: str, simulated: SimulatedRun, measured: HarnessResult, trace: GradientTrace
) -> AgreementRow:
    """Fold one (simulated, measured) pair over ``trace`` into an agreement row.

    Each step's true mean and its energy are taken once and score both
    runs' estimates.
    """
    simulated_errors, measured_errors = [], []
    for step, sim, meas in zip(trace.steps, simulated.rounds, measured.rounds):
        truth = step.true_mean()
        energy = squared_norm(truth)
        simulated_errors.append(vnmse(sim.mean_estimate, truth, energy=energy))
        measured_errors.append(vnmse(meas.mean_estimate, truth, energy=energy))
    simulated_vnmse = float(np.mean(simulated_errors))
    measured_vnmse = float(np.mean(measured_errors))
    gap = abs(measured_vnmse - simulated_vnmse) / max(abs(simulated_vnmse), 1e-12)
    tolerance = vnmse_tolerance(spec)
    sim_bits = tuple(sum(round_.per_worker_bits) for round_ in simulated.rounds)
    meas_bits = tuple(sum(round_.per_worker_bits) for round_ in measured.rounds)
    traffic_exact = all(
        sim.per_worker_bits == meas.per_worker_bits
        for sim, meas in zip(simulated.rounds, measured.rounds)
    ) and len(simulated.rounds) == len(measured.rounds)
    accounted = float(
        np.mean(
            [bits / trace.num_workers / trace.num_coordinates for bits in sim_bits]
        )
    )
    return AgreementRow(
        spec=spec,
        scheme_class=scheme_class(spec),
        tolerance=tolerance,
        simulated_vnmse=simulated_vnmse,
        measured_vnmse=measured_vnmse,
        relative_gap=gap,
        vnmse_ok=gap <= tolerance,
        traffic_exact=traffic_exact,
        simulated_bits_per_round=sim_bits,
        measured_bits_per_round=meas_bits,
        measured_uplink_bytes=sum(
            sum(round_.per_worker_bytes) for round_ in measured.rounds
        ),
        analytic_bits_per_coordinate=simulated.rounds[0].bits_per_coordinate,
        accounted_bits_per_coordinate=accounted,
        collective_calls_per_round=simulated.rounds[0].collective_calls,
        simulated_seconds=simulated.total_seconds,
        wall_seconds=measured.total_wall_seconds,
    )


def run_validation(
    specs: tuple[str, ...] | list[str] | None = None,
    *,
    trace: GradientTrace | None = None,
    cluster: ClusterSpec | None = None,
    num_steps: int = 2,
    seed: int = 7,
    transport: str = "inprocess",
) -> ValidationReport:
    """Run the measured-vs-simulated comparison for every spec.

    Args:
        specs: Spec strings to validate; defaults to the whole registry
            (:data:`REGISTRY_SPECS`).
        trace: Gradient trace to run; defaults to a seeded synthetic trace
            sized to the cluster (``seed`` also seeds both runs' rng).
        cluster: Simulated cluster; defaults to the paper testbed.  Its
            world size must match the trace's worker count.
        num_steps: Steps of the default synthetic trace (ignored when a
            trace is given).
        seed: Seeds the default trace and both runs' compression rng.
        transport: Harness transport (``"inprocess"`` or ``"process"``).
    """
    cluster = cluster or paper_testbed()
    if trace is None:
        trace = synthetic_trace(
            num_steps=num_steps, num_workers=cluster.world_size, seed=seed
        )
    rows = []
    for spec in specs if specs is not None else REGISTRY_SPECS:
        simulated = simulate_trace(spec, trace, cluster=cluster, seed=seed)
        measured = run_harness(
            spec, trace, cluster=cluster, seed=seed, transport=transport
        )
        rows.append(compare_runs(spec, simulated, measured, trace))
    return ValidationReport(
        rows=tuple(rows),
        num_steps=trace.num_steps,
        num_workers=trace.num_workers,
        num_coordinates=trace.num_coordinates,
        seed=seed,
        transport=transport,
        metadata=dict(trace.metadata),
    )


def main(argv: list[str] | None = None) -> int:
    """CLI for the CI ``bridge-smoke`` job: quick pass + JSON report."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Run the real-tensor validation pass and emit the agreement report."
    )
    parser.add_argument("--out", default=None, help="write the report JSON here")
    parser.add_argument("--steps", type=int, default=2, help="synthetic trace steps")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--transport", choices=("inprocess", "process"), default="inprocess"
    )
    parser.add_argument(
        "--specs", nargs="*", default=None, help="specs to validate (default: registry)"
    )
    args = parser.parse_args(argv)

    report = run_validation(
        tuple(args.specs) if args.specs else None,
        num_steps=args.steps,
        seed=args.seed,
        transport=args.transport,
    )
    print(report.render())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_payload(include_timing=True), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
