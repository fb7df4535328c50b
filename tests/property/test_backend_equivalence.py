"""Batched backend == legacy backend, across the entire scheme registry.

The batched (vectorized float32) kernels and the legacy (per-worker float64)
reference path must agree for every registered scheme spec:

* **Wire volume is identical** -- both paths report the same bits per
  coordinate.  (Seconds are priced once, by ``estimate_costs``, which no
  kernel backend touches.)
* **Deterministic schemes match tightly** -- baselines, TopK, TopKC,
  signSGD, and PowerSGD produce the same mean estimate up to float32
  rounding (the collective folds replay identical per-hop orders, so even
  the non-associative saturating aggregation agrees).
* **Stochastic quantizers match to one quantization step** -- THC and QSGD
  draw their stochastic-rounding randomness differently (one fused matrix
  draw vs per-worker draws), so individual levels may legally differ by one;
  the mean estimates therefore agree per-coordinate within the quantization
  step, which is the correct equivalence class for an unbiased quantizer.

The suite covers the legacy aliases (the whole registry), the ``agg=switch``
in-network variants on a multi-rack fabric, and error-feedback wrappers run
over multiple rounds so the residual state is exercised on both paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.measures import paper_context
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.kernels import KernelBackend
from repro.compression.registry import ALIASES, make_scheme
from repro.simulator.cluster import ClusterSpec, multirack_cluster, paper_testbed

#: Every registered alias spells a spec; deduplicated, they cover the whole
#: registry (every family at its paper configurations).
REGISTRY_SPECS = sorted(set(ALIASES.values()))

#: Paths the aliases do not reach: in-network (switch) aggregation and
#: error-feedback wrappers around every family that supports them.
EXTRA_SPECS = [
    "thc(q=4, rot=partial, agg=switch)",
    "thc(q=4, rot=none, agg=sat)",
    "qsgd(q=4, agg=switch)",
    "ef(topk(b=2))",
    "ef(topkc(b=2))",
    "ef(thc(q=4, rot=partial, agg=sat))",
    "ef(qsgd(q=4, agg=sat))",
    "ef(powersgd(r=2))",
]

ALL_SPECS = REGISTRY_SPECS + EXTRA_SPECS

#: Gradient length chosen to exercise padding (1000 -> 1024) and the
#: uncompressed PowerSGD tail.
NUM_COORDINATES = 1000

#: Error-feedback wrappers run several rounds so residual state matters.
NUM_ROUNDS = 2


def _gradient_rounds(world_size: int, rounds: int) -> list[list[np.ndarray]]:
    rng = np.random.default_rng(123)
    return [
        [
            rng.standard_normal(NUM_COORDINATES).astype(np.float32)
            for _ in range(world_size)
        ]
        for _ in range(rounds)
    ]


def _is_stochastic(scheme) -> bool:
    """Whether the scheme stochastically quantizes (THC / QSGD families)."""
    inner = scheme.scheme if isinstance(scheme, ErrorFeedback) else scheme
    return getattr(inner, "quantizer", None) is not None


def _max_level(scheme) -> int:
    inner = scheme.scheme if isinstance(scheme, ErrorFeedback) else scheme
    return inner.quantizer.max_level


def _step_bound(scheme_b, scheme_l, gradients) -> float:
    """An upper bound on one quantization step for this round's inputs.

    The (rotated) coordinates satisfy ``|H x|_inf <= ||x||_2``, so every
    quantization range -- per chunk or global, on either backend -- is at
    most the largest *compressed* vector norm, which under error feedback is
    the gradient plus the carried residual.  One step is that bound divided
    by the quantizer's largest level.
    """
    norms = [float(np.linalg.norm(g)) for g in gradients]
    for scheme in (scheme_b, scheme_l):
        if isinstance(scheme, ErrorFeedback) and scheme.residuals is not None:
            norms.extend(
                float(np.linalg.norm(np.asarray(g, dtype=np.float64) + r))
                for g, r in zip(gradients, scheme.residuals)
            )
    return max(norms) / _max_level(scheme_b)


def _assert_equivalent(spec: str, cluster: ClusterSpec) -> None:
    rounds = _gradient_rounds(cluster.world_size, NUM_ROUNDS)
    scheme_b = make_scheme(spec)
    scheme_l = make_scheme(spec)
    ctx_b = paper_context(cluster, seed=7, kernel_backend=KernelBackend.BATCHED)
    ctx_l = paper_context(cluster, seed=7, kernel_backend=KernelBackend.LEGACY)

    for gradients in rounds:
        stochastic = _is_stochastic(scheme_b)
        # Bound one quantization step from this round's inputs (including the
        # error-feedback residuals about to be folded in) BEFORE aggregating.
        step = _step_bound(scheme_b, scheme_l, gradients) if stochastic else 0.0
        tolerance = 1.5 * step + 1e-5

        result_b = scheme_b.aggregate(gradients, ctx_b)
        result_l = scheme_l.aggregate(gradients, ctx_l)

        # Wire-volume parity is exact: same protocol, same payload sizes.
        assert result_b.bits_per_coordinate == pytest.approx(
            result_l.bits_per_coordinate, rel=1e-12
        )

        mean_b = np.asarray(result_b.mean_estimate, dtype=np.float64)
        mean_l = np.asarray(result_l.mean_estimate, dtype=np.float64)
        assert mean_b.shape == mean_l.shape

        if not stochastic:
            scale = float(np.max(np.abs(mean_l))) if mean_l.size else 1.0
            np.testing.assert_allclose(
                mean_b, mean_l, rtol=1e-5, atol=1e-5 * max(scale, 1e-6) + 1e-8
            )
        else:
            worst = float(np.max(np.abs(mean_b - mean_l)))
            assert worst <= tolerance, (
                f"{spec}: mean estimates differ by {worst:.6f}, "
                f"more than one quantization step ({tolerance:.6f})"
            )

        transmitted_b = result_b.per_worker_transmitted
        transmitted_l = result_l.per_worker_transmitted
        assert (transmitted_b is None) == (transmitted_l is None)
        if transmitted_b is not None:
            stack_b = np.stack([np.asarray(t, dtype=np.float64) for t in transmitted_b])
            stack_l = np.stack([np.asarray(t, dtype=np.float64) for t in transmitted_l])
            assert stack_b.shape == stack_l.shape
            if not stochastic:
                scale = float(np.max(np.abs(stack_l))) if stack_l.size else 1.0
                np.testing.assert_allclose(
                    stack_b, stack_l, rtol=1e-5, atol=1e-5 * max(scale, 1e-6) + 1e-8
                )
            else:
                # Per-worker levels may each differ by one step (and the
                # saturating aggregate by two when a clip flips).
                worst = float(np.max(np.abs(stack_b - stack_l)))
                assert worst <= 2.0 * step + 1e-5

        # Error-feedback residual state must track on both paths.
        if isinstance(scheme_b, ErrorFeedback):
            residuals_b = np.stack(scheme_b.residuals)
            residuals_l = np.stack(scheme_l.residuals)
            if not stochastic:
                np.testing.assert_allclose(
                    residuals_b, residuals_l, rtol=1e-4, atol=1e-4
                )
            else:
                assert (
                    float(np.max(np.abs(residuals_b - residuals_l)))
                    <= 2.0 * step + 1e-5
                )


class TestBackendEquivalence:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_registry_spec_on_testbed(self, spec):
        """Every registered spec agrees across backends on the paper testbed."""
        _assert_equivalent(spec, paper_testbed())

    @pytest.mark.parametrize(
        "spec",
        [
            "thc(q=4, rot=partial, agg=sat)",
            "thc(q=4, rot=partial, agg=switch)",
            "baseline(p=fp16)",
            "topkc(b=2)",
        ],
    )
    def test_specs_on_multirack_fabric(self, spec):
        """Hierarchical (rack-local then spine) folds agree across backends."""
        _assert_equivalent(spec, multirack_cluster(2, nodes_per_rack=1))

    def test_batched_backend_is_deterministic(self):
        """Same seed, same backend => bit-identical results."""
        cluster = paper_testbed()
        gradients = _gradient_rounds(cluster.world_size, 1)[0]

        def run():
            scheme = make_scheme("thc(q=4, rot=partial, agg=sat)")
            ctx = paper_context(
                cluster, seed=7, kernel_backend=KernelBackend.BATCHED
            )
            return scheme.aggregate(gradients, ctx)

        np.testing.assert_array_equal(run().mean_estimate, run().mean_estimate)

    def test_saturating_fold_parity_is_bit_exact(self):
        """Saturation events land on identical coordinates on both backends.

        The integer levels entering the fold may differ (independent
        stochastic rounding draws), but with rounding forced off -- q=2 over
        adversarially large inputs saturates heavily -- both backends must
        clip identically along the ring.
        """
        from repro.collectives.batched import ring_allreduce_matrix
        from repro.collectives.ops import SaturatingSumOp
        from repro.collectives.ring import ring_allreduce

        rng = np.random.default_rng(5)
        matrix = rng.integers(-3, 4, size=(6, 257)).astype(np.int16)
        op = SaturatingSumOp(bits=3)
        batched = ring_allreduce_matrix(matrix, op)
        legacy = ring_allreduce([row.astype(np.float64) for row in matrix], op)
        np.testing.assert_array_equal(batched.astype(np.int64), legacy.astype(np.int64))
