"""Real-tensor bridge: run registered schemes on actual gradient tensors.

Everything else in the repo *prices* schemes on a simulated cluster.  This
package closes the loop between those predictions and reality:

* :mod:`repro.bridge.trace` -- a versioned on-disk gradient-trace format
  (npz shards plus a JSON manifest) with seed-deterministic round-trips;
* :mod:`repro.bridge.recorders` -- a realistic synthetic trace recorder
  (layer-structured, heavy-tailed, step-correlated) and an optional torch
  autograd-hook recorder that degrades gracefully when torch is absent;
* :mod:`repro.bridge.wire` -- bit-exact wire codecs that turn collective
  payloads into real bytes at the simulator's declared wire widths;
* :mod:`repro.bridge.transport` -- in-process and multiprocess message
  channels between workers and the aggregation server;
* :mod:`repro.bridge.actors` -- the :class:`GradientWorker` /
  :class:`AggregationServer` execution harness that actually runs each
  scheme's compress -> transmit -> aggregate -> decompress loop over trace
  steps, measuring each round's mean estimate, payload bytes and
  wall-clock;
* :mod:`repro.bridge.prediction` -- the matched simulated run (same trace,
  same seed, per-collective traffic recording) that the harness's
  measurements are differentially validated against.

The validation experiment family built on top of this package lives in
:mod:`repro.experiments.validation`.
"""

from repro.bridge.actors import (
    AggregationServer,
    BridgeProtocolError,
    GradientWorker,
    HarnessResult,
    HarnessRound,
    TransportBackend,
    run_harness,
)
from repro.bridge.prediction import RecordingBackend, SimulatedRun, simulate_trace
from repro.bridge.recorders import (
    TorchUnavailableError,
    record_torch_gradients,
    synthetic_trace,
    torch_available,
)
from repro.bridge.trace import (
    GradientTrace,
    LayerSpec,
    TraceFormatError,
    TraceStep,
    load_rank_rows,
    load_trace,
    save_trace,
)
from repro.bridge.transport import BridgeTimeoutError
from repro.bridge.wire import (
    EncodedSection,
    WireFormatError,
    decode_section,
    encode_raw,
    encode_section,
)

__all__ = [
    "AggregationServer",
    "BridgeProtocolError",
    "BridgeTimeoutError",
    "EncodedSection",
    "GradientTrace",
    "GradientWorker",
    "HarnessResult",
    "HarnessRound",
    "LayerSpec",
    "RecordingBackend",
    "SimulatedRun",
    "TorchUnavailableError",
    "TraceFormatError",
    "TraceStep",
    "TransportBackend",
    "WireFormatError",
    "decode_section",
    "encode_raw",
    "encode_section",
    "load_rank_rows",
    "load_trace",
    "record_torch_gradients",
    "run_harness",
    "save_trace",
    "simulate_trace",
    "synthetic_trace",
    "torch_available",
]
