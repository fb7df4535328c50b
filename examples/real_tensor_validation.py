"""Real-tensor validation: turn the simulator's prices into checked claims.

Everything else in this repo *simulates* compression schemes; this example
*executes* them.  The bridge (``repro.bridge``) runs worker and server actors
that move real wire-encoded bytes over a transport, then checks the two
claims the simulator stakes its numbers on:

1. record a layer-structured synthetic gradient trace to disk and load it
   back (the versioned on-disk format recorded traces share);
2. run one scheme through the execution harness and through the monolithic
   simulated path over the same trace, side by side;
3. run the full measured-vs-simulated validation for a panel of schemes via
   ``session.validate`` and print the agreement report: traffic must match
   bit for bit, VNMSE within each scheme class's documented tolerance.

Run with:  python examples/real_tensor_validation.py
"""

import tempfile
from pathlib import Path

from repro.api import ExperimentSession
from repro.bridge import (
    load_trace,
    run_harness,
    save_trace,
    simulate_trace,
    synthetic_trace,
)
from repro.core.metrics import vnmse

SPECS = (
    "baseline(p=fp16)",
    "topk(b=2)",
    "topkc(b=2)",
    "thc(q=4, rot=partial, agg=sat)",
    "qsgd(q=4, agg=sat)",
    "signsgd",
    "powersgd(r=4)",
    "ef(topkc(b=2))",
)


def step_1_record_a_trace():
    """Record a synthetic gradient trace and round-trip it through disk."""
    print("=== 1. A gradient trace on disk ===")
    trace = synthetic_trace(num_steps=2, num_workers=4, seed=11)
    for layer in trace.layers:
        print(f"  {layer.name:18s} shape={layer.shape} dtype={layer.dtype}")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "trace"
        save_trace(trace, directory)
        shards = sorted(p.name for p in directory.iterdir())
        print(f"  saved: {', '.join(shards)}")
        trace = load_trace(directory)
    print(
        f"  loaded back: {trace.num_steps} steps x {trace.num_workers} workers, "
        f"d={trace.num_coordinates}"
    )
    return trace


def step_2_execute_one_scheme(trace):
    """Run one scheme for real and next to its simulation."""
    print("\n=== 2. Execute thc(q=4) over the trace, real bytes on the wire ===")
    spec = "thc(q=4, rot=partial, agg=sat)"
    measured = run_harness(spec, trace, seed=3)
    simulated = simulate_trace(spec, trace, seed=3)
    for step, sim, meas in zip(trace.steps, simulated.rounds, measured.rounds):
        truth = step.true_mean()
        print(
            f"  step {meas.index}: measured vNMSE={vnmse(meas.mean_estimate, truth):.6f} "
            f"(simulated {vnmse(sim.mean_estimate, truth):.6f}), uplink "
            f"{sum(meas.per_worker_bytes)} bytes over "
            f"{meas.collective_calls} collectives"
        )
    print(
        f"  traffic accounting exact: "
        f"{all(s.per_worker_bits == m.per_worker_bits for s, m in zip(simulated.rounds, measured.rounds))}"
    )


def step_3_agreement_report():
    """The full validation pass: every claim checked, one report."""
    print("\n=== 3. Measured-vs-simulated agreement report ===")
    session = ExperimentSession(seed=0)
    report = session.validate(SPECS, num_steps=2)
    print(report.render())


if __name__ == "__main__":
    trace = step_1_record_a_trace()
    step_2_execute_one_scheme(trace)
    step_3_agreement_report()
