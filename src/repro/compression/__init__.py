"""Gradient compression schemes.

This package implements the three families of gradient compression the paper
studies, the paper's proposed design changes, and the uncompressed precision
baselines they are measured against:

* **Precision baselines** -- FP32 and the stronger FP16 communication
  baselines (:mod:`repro.compression.precision`).
* **Sparsification** -- local TopK (:mod:`repro.compression.topk`) and the
  paper's all-reduce-compatible TopK-Chunked variant, TopKC
  (:mod:`repro.compression.topkc`), including the random-permutation ablation
  that destroys spatial locality.
* **Quantization** -- stochastic uniform quantization
  (:mod:`repro.compression.quantization`), the randomized Hadamard transform
  with full and partial rotation (:mod:`repro.compression.hadamard`), and THC
  with either widened-wire or saturation-based aggregation
  (:mod:`repro.compression.thc`).
* **Low-rank decomposition** -- PowerSGD (:mod:`repro.compression.powersgd`).
* **Error feedback** -- the residual-accumulation wrapper both TopK variants
  use in the paper (:mod:`repro.compression.error_feedback`).

Every scheme implements the :class:`~repro.compression.base.AggregationScheme`
interface: given one gradient per worker and a simulation context, it returns
an estimate of the mean gradient together with the simulated time and
bits-per-coordinate its aggregation protocol costs.
"""

from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    SimContext,
)
from repro.compression.kernels import (
    LazyTransmitted,
    RoundWorkspace,
)
from repro.compression.precision import PrecisionBaseline
from repro.compression.topk import GlobalTopKOracle, TopKCompressor
from repro.compression.topkc import TopKChunkedCompressor
from repro.compression.quantization import StochasticQuantizer
from repro.compression.hadamard import HadamardRotation
from repro.compression.thc import THCCompressor
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.qsgd import QSGDCompressor
from repro.compression.signsgd import SignSGDCompressor
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.registry import (
    UnknownSchemeError,
    available_schemes,
    configure_scheme_for_shapes,
    make_scheme,
    register_scheme,
)
from repro.compression.spec import (
    Param,
    ParsedSpec,
    SchemeFamily,
    SpecParamError,
    SpecSyntaxError,
    available_families,
    build_spec,
    canonical_spec,
    family_signature,
    family_signatures,
    parse_spec,
    register,
)

__all__ = [
    "AggregationResult",
    "AggregationScheme",
    "LazyTransmitted",
    "RoundWorkspace",
    "SimContext",
    "PrecisionBaseline",
    "TopKCompressor",
    "GlobalTopKOracle",
    "TopKChunkedCompressor",
    "StochasticQuantizer",
    "HadamardRotation",
    "THCCompressor",
    "PowerSGDCompressor",
    "QSGDCompressor",
    "SignSGDCompressor",
    "ErrorFeedback",
    "available_schemes",
    "make_scheme",
    "register_scheme",
    "UnknownSchemeError",
    "configure_scheme_for_shapes",
    "Param",
    "ParsedSpec",
    "SchemeFamily",
    "SpecParamError",
    "SpecSyntaxError",
    "available_families",
    "build_spec",
    "canonical_spec",
    "family_signature",
    "family_signatures",
    "parse_spec",
    "register",
]
