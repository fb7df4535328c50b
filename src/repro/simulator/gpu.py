"""GPU performance model.

Models the aspects of a data-centre GPU (the paper uses the NVIDIA A100) that
matter for gradient compression:

* arithmetic throughput that depends on the numeric precision (FP16 and TF32
  run much faster than FP32 on tensor-core hardware);
* a two-level memory hierarchy -- a small, fast *shared* memory per streaming
  multiprocessor and a large but slow *global* memory.  Kernels whose working
  set spills out of shared memory, or whose access pattern is non-sequential
  (the top-k selection and large Hadamard transforms the paper profiles), pay
  a bandwidth penalty.

The model is intentionally analytic: given an operation count, a precision and
a memory-access characterisation, it returns a simulated execution time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Precision(enum.Enum):
    """Numeric precision of an arithmetic operation or a wire format."""

    FP32 = "fp32"
    TF32 = "tf32"
    FP16 = "fp16"
    INT8 = "int8"

    @property
    def bits(self) -> int:
        """Width of one value of this precision on the wire, in bits."""
        return _PRECISION_BITS[self]


_PRECISION_BITS = {
    Precision.FP32: 32,
    Precision.TF32: 32,  # TF32 is a compute format; storage stays 32-bit
    Precision.FP16: 16,
    Precision.INT8: 8,
}


@dataclass(frozen=True)
class MemoryHierarchy:
    """Shared/global memory sizes and bandwidths of one GPU.

    Attributes:
        shared_memory_bytes: Per-SM shared memory capacity.  The partial
            rotation optimisation (paper section 3.2.2) chooses the rotation
            depth so one chunk fits here.
        global_bandwidth_gbps: Global (HBM) memory bandwidth in GB/s.
        shared_bandwidth_gbps: Effective shared-memory bandwidth in GB/s.
        random_access_penalty: Multiplicative slowdown applied to kernels with
            poor locality (non-consecutive accesses), e.g. top-k selection and
            coordinate rearrangement.
    """

    shared_memory_bytes: int = 164 * 1024
    global_bandwidth_gbps: float = 1555.0
    shared_bandwidth_gbps: float = 19400.0
    random_access_penalty: float = 4.0

    def fits_in_shared(self, nbytes: int) -> bool:
        """Return True if a working set of ``nbytes`` fits in shared memory."""
        return nbytes <= self.shared_memory_bytes

    def max_shared_elements(self, element_bytes: int) -> int:
        """Largest number of elements of ``element_bytes`` each that fit in shared memory."""
        if element_bytes <= 0:
            raise ValueError("element_bytes must be positive")
        return self.shared_memory_bytes // element_bytes


@dataclass(frozen=True)
class GpuModel:
    """Analytic model of a single GPU.

    Default values approximate an NVIDIA A100-SXM4-40GB:
    19.5 TFLOP/s FP32, 156 TFLOP/s TF32 (tensor core), 312 TFLOP/s FP16.
    The efficiency factor discounts peak numbers to a sustained rate typical
    of memory-bound elementwise kernels.
    """

    name: str = "A100"
    fp32_tflops: float = 19.5
    tf32_tflops: float = 156.0
    fp16_tflops: float = 312.0
    memory: MemoryHierarchy = field(default_factory=MemoryHierarchy)
    efficiency: float = 0.35
    kernel_launch_overhead_s: float = 5e-6

    def flops_per_second(self, precision: Precision) -> float:
        """Sustained FLOP/s for the given precision.

        Every kernel time calls this, so it compares enum identities and
        hashes nothing.  An unknown precision raises ``KeyError``.
        """
        if precision is Precision.FP32:
            peak = self.fp32_tflops
        elif precision is Precision.FP16:
            peak = self.fp16_tflops
        elif precision is Precision.TF32:
            peak = self.tf32_tflops
        elif precision is Precision.INT8:
            peak = self.fp16_tflops * 2.0
        else:
            raise KeyError(precision)
        return peak * 1e12 * self.efficiency

    def compute_time(self, flops: float, precision: Precision = Precision.FP32) -> float:
        """Simulated time to execute ``flops`` floating-point operations."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        if flops == 0:
            return 0.0
        return self.kernel_launch_overhead_s + flops / self.flops_per_second(precision)

    def memory_time(
        self,
        nbytes: float,
        *,
        sequential: bool = True,
        in_shared: bool = False,
    ) -> float:
        """Simulated time to move ``nbytes`` through the memory system.

        Args:
            nbytes: Bytes read plus bytes written by the kernel.
            sequential: Whether accesses are coalesced/sequential.  Poorly
                localised kernels pay :attr:`MemoryHierarchy.random_access_penalty`.
            in_shared: Whether the working set is served from shared memory.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        bandwidth = (
            self.memory.shared_bandwidth_gbps if in_shared else self.memory.global_bandwidth_gbps
        )
        seconds = nbytes / (bandwidth * 1e9)
        if not sequential:
            seconds *= self.memory.random_access_penalty
        return self.kernel_launch_overhead_s + seconds

    def elementwise_time(
        self,
        num_elements: int,
        *,
        flops_per_element: float = 1.0,
        bytes_per_element: float = 8.0,
        precision: Precision = Precision.FP32,
        sequential: bool = True,
        in_shared: bool = False,
    ) -> float:
        """Time of a simple elementwise kernel: max of compute and memory time.

        GPUs overlap arithmetic with memory traffic, so the roofline model
        (max of the two) is the right first-order approximation.
        """
        if num_elements < 0:
            raise ValueError("num_elements must be non-negative")
        compute = self.compute_time(num_elements * flops_per_element, precision)
        memory = self.memory_time(
            num_elements * bytes_per_element, sequential=sequential, in_shared=in_shared
        )
        return max(compute, memory)
