"""Error feedback (EF) for biased gradient compressors.

Error feedback accumulates, on every worker, the part of the gradient the
compressor dropped this round and adds it back to the next round's gradient
before compressing again.  The paper applies EF to both TopK and TopKC (it is
what lets aggressive sparsifiers converge at all), and PowerSGD ships with it
by default.

The wrapper delegates aggregation to any :class:`AggregationScheme` and uses
the scheme's ``per_worker_transmitted`` report to update the residuals:

    residual_i  <-  (gradient_i + residual_i) - transmitted_i
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    CostEstimate,
    SimContext,
)
from repro.compression.kernels import LazyTransmitted
from repro.compression.spec import Param, register


@register(
    "ef",
    params=(
        Param("decay", float, default=1.0, doc="multiplicative residual decay per round"),
    ),
    wraps=True,
    description="Error feedback: accumulate and re-inject the compression residual",
)
class ErrorFeedback(AggregationScheme):
    """Wrap a compression scheme with per-worker error-feedback residuals.

    Args:
        scheme: The underlying aggregation scheme.
        decay: Multiplicative decay applied to the residual each round
            (1.0 = classic error feedback; values below 1 forget stale error).
    """

    def __init__(self, scheme: AggregationScheme, *, decay: float = 1.0):
        if not 0.0 <= decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        self.scheme = scheme
        self.decay = decay
        #: Residual state, stored as one (n_workers, d) float32 matrix.
        self._residual_matrix: np.ndarray | None = None
        self.name = f"ef({scheme.name})"

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        return self.scheme.expected_bits_per_coordinate(num_coordinates, world_size)

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        """EF adds one elementwise residual update to the wrapped scheme's cost."""
        inner = self.scheme.estimate_costs(num_coordinates, ctx)
        residual_update = 2 * ctx.kernels.elementwise_sum_time(num_coordinates)
        return CostEstimate(
            compression_seconds=inner.compression_seconds + residual_update,
            communication_seconds=inner.communication_seconds,
            bits_per_coordinate=inner.bits_per_coordinate,
        )

    def estimate_bucket_costs(
        self, num_coordinates: int, num_buckets: int, ctx: SimContext
    ) -> list[CostEstimate]:
        """Delegate bucketing to the wrapped scheme, adding the residual update.

        The whole-gradient residual update is split equally across the
        wrapped scheme's buckets (it is one elementwise pass, so any split
        summing to the total keeps the aggregate cost right).
        """
        inner = self.scheme.estimate_bucket_costs(num_coordinates, num_buckets, ctx)
        residual_update = 2 * ctx.kernels.elementwise_sum_time(num_coordinates)
        share = residual_update / len(inner)
        return [
            CostEstimate(
                compression_seconds=estimate.compression_seconds + share,
                communication_seconds=estimate.communication_seconds,
                bits_per_coordinate=estimate.bits_per_coordinate,
            )
            for estimate in inner
        ]

    def reset_state(self) -> None:
        """Clear the residuals (e.g. between independent experiments)."""
        self._residual_matrix = None
        if hasattr(self.scheme, "reset_state"):
            self.scheme.reset_state()

    @property
    def residuals(self) -> list[np.ndarray] | None:
        """The per-worker residuals carried to the next round (None before the first)."""
        if self._residual_matrix is None:
            return None
        return list(self._residual_matrix)

    def _residuals_for(self, n: int, d: int) -> np.ndarray:
        """The residual matrix, initialised on first use and shape-checked.

        A changed *worker count* (elastic membership: a scenario's join/leave
        events) resets the residuals -- a real elastic job cannot carry a
        departed worker's residual, and a joiner starts with none.  A changed
        gradient *size* is still an error: that is a different model, not a
        membership change.
        """
        if self._residual_matrix is not None and (
            self._residual_matrix.shape[0] != n and self._residual_matrix.shape[1] == d
        ):
            self._residual_matrix = None
        if self._residual_matrix is None:
            self._residual_matrix = np.zeros((n, d), dtype=np.float32)
        if self._residual_matrix.shape != (n, d):
            raise ValueError(
                "gradient size changed between rounds; call reset_state() first"
            )
        return self._residual_matrix

    def aggregate_rows(self, rows, ctx: SimContext, d: int) -> AggregationResult:
        """Run the wrapped scheme on gradient plus residual; fold the new residual.

        The residual update is two fused elementwise passes over the
        ``(n, d)`` matrix -- and when the wrapped scheme reports its
        transmitted payloads lazily, this is the single place that pays for
        materializing them.
        """
        n = ctx.world_size
        residuals = self._residuals_for(n, d)
        # The label is instance-unique so nested wrappers never alias each
        # other's adjusted-gradient buffers.
        adjusted = ctx.workspace.buf(f"ef.adjusted.{id(self)}", (n, d), np.float32)
        self._gather_rows(rows, adjusted)
        adjusted += residuals
        result = self.scheme.aggregate_matrix(adjusted, ctx)
        transmitted = result.per_worker_transmitted
        if transmitted is not None:
            if isinstance(transmitted, LazyTransmitted):
                transmitted_matrix = transmitted.matrix()
            else:
                transmitted_matrix = np.asarray(transmitted, dtype=np.float32)
            np.subtract(adjusted, transmitted_matrix, out=residuals, casting="unsafe")
        else:
            np.subtract(
                adjusted, result.mean_estimate[None, :], out=residuals, casting="unsafe"
            )
        if self.decay != 1.0:
            residuals *= np.float32(self.decay)
        return result
