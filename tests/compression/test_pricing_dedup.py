"""Bucket and layer pricing prices each distinct input once, bit for bit.

``estimate_bucket_costs`` prices each distinct bucket size once (a
near-equal split has at most two), and PowerSGD prices each distinct layer
shape once.  The oracle below prices every bucket and every layer, as the
pricing did before; every field must match it with ``==``, not ``isclose``.
"""

from __future__ import annotations

import pytest

from repro.api.measures import configure_for_workload, paper_context
from repro.compression.base import AggregationScheme, CostEstimate, price_round
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.registry import make_scheme
from repro.experiments.validation import REGISTRY_SPECS
from repro.simulator.cluster import multirack_cluster, paper_testbed
from repro.simulator.gpu import GpuModel, Precision
from repro.simulator.kernel_cost import KernelCostModel
from repro.simulator.pipeline import split_coordinates
from repro.training.workloads import bert_large_wikitext, vgg19_tinyimagenet

BUCKET_COUNTS = (1, 2, 3, 8, 32, 33, 149, 150)
WORKLOADS = (bert_large_wikitext(), vgg19_tinyimagenet())
CLUSTERS = {
    "paper_testbed": paper_testbed,
    "multirack": lambda: multirack_cluster(
        4, nodes_per_rack=8, gpus_per_node=2, oversubscription=2.0
    ),
}
SPECS = REGISTRY_SPECS + ("ef(topk(b=2))", "ef(powersgd(r=4))")


def _oracle_powersgd_group(scheme, group, extra, ctx, bits):
    """One bucket of layers, every layer priced by its own kernel call."""
    compression = ctx.kernels.elementwise_sum_time(
        sum(rows * cols for rows, cols in group) + extra
    )
    factor_values = 0
    for rows, cols in group:
        compression += ctx.kernels.powersgd_time(rows * cols, scheme.rank, rows=rows)
        factor_values += (rows + cols) * scheme.rank
    communication = 2 * ctx.backend.cost_model.ring_allreduce(
        factor_values * float(scheme.factor_bits) / 2.0
    ).seconds
    if extra > 0:
        communication += ctx.backend.cost_model.ring_allreduce(extra * 16.0).seconds
    return CostEstimate(compression, communication, bits)


def _oracle_powersgd(scheme, n, num_buckets, ctx):
    shapes = scheme._shapes_for(n)
    tail = n - sum(rows * cols for rows, cols in shapes)
    factor_bits = sum((rows + cols) * scheme.rank for rows, cols in shapes) * scheme.factor_bits
    bits = (factor_bits + tail * 16.0) / n
    if num_buckets <= 1 or len(shapes) == 1:
        return [_oracle_powersgd_group(scheme, shapes, tail, ctx, bits)]
    estimates, offset = [], 0
    group_sizes = split_coordinates(len(shapes), min(num_buckets, len(shapes)))
    for index, size in enumerate(group_sizes):
        extra = tail if index == len(group_sizes) - 1 else 0
        group = shapes[offset : offset + size]
        estimates.append(_oracle_powersgd_group(scheme, group, extra, ctx, bits))
        offset += size
    return estimates


def oracle_bucket_costs(
    scheme: AggregationScheme, n: int, num_buckets: int, ctx
) -> list[CostEstimate]:
    """Every bucket (and every PowerSGD layer) priced on its own."""
    if isinstance(scheme, ErrorFeedback):
        inner = oracle_bucket_costs(scheme.scheme, n, num_buckets, ctx)
        share = 2 * ctx.kernels.elementwise_sum_time(n) / len(inner)
        return [
            CostEstimate(
                e.compression_seconds + share, e.communication_seconds, e.bits_per_coordinate
            )
            for e in inner
        ]
    if isinstance(scheme, PowerSGDCompressor):
        return _oracle_powersgd(scheme, n, num_buckets, ctx)
    if num_buckets <= 1:
        return [scheme.estimate_costs(n, ctx)]
    return [scheme.estimate_costs(size, ctx) for size in split_coordinates(n, num_buckets)]


@pytest.fixture(scope="module", params=sorted(CLUSTERS))
def ctx(request):
    return paper_context(CLUSTERS[request.param]())


@pytest.mark.parametrize("spec", SPECS)
def test_bucket_costs_equal_the_oracle(spec, ctx):
    for workload in WORKLOADS:
        scheme = configure_for_workload(make_scheme(spec), workload)
        n = workload.paper_num_coordinates
        for num_buckets in BUCKET_COUNTS:
            expected = oracle_bucket_costs(scheme, n, num_buckets, ctx)
            assert scheme.estimate_bucket_costs(n, num_buckets, ctx) == expected
            if num_buckets == 1:
                assert scheme.estimate_costs(n, ctx) == expected[0]


@pytest.mark.parametrize("spec", ["topkc(b=2)", "powersgd(r=4)", "ef(powersgd(r=16))"])
@pytest.mark.parametrize("num_buckets", (1, 8, 33))
def test_price_round_equals_the_oracle(spec, num_buckets, ctx, monkeypatch):
    workload = bert_large_wikitext()
    scheme = configure_for_workload(make_scheme(spec), workload)
    n = workload.paper_num_coordinates
    priced = price_round(scheme, n, 0.25, ctx, num_buckets=num_buckets)
    monkeypatch.setattr(
        scheme,
        "estimate_bucket_costs",
        lambda n, b, ctx: oracle_bucket_costs(scheme, n, b, ctx),
    )
    assert priced == price_round(scheme, n, 0.25, ctx, num_buckets=num_buckets)


def test_powersgd_repeated_shapes_and_a_tail(ctx):
    shapes = [(64, 32), (16, 16), (64, 32), (8, 128), (16, 16), (64, 32), (3, 5)]
    n = sum(rows * cols for rows, cols in shapes) + 37
    scheme = PowerSGDCompressor(rank=2, layer_shapes=shapes)
    for num_buckets in range(1, len(shapes) + 2):
        assert scheme.estimate_bucket_costs(n, num_buckets, ctx) == oracle_bucket_costs(
            scheme, n, num_buckets, ctx
        )


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("num_buckets", (2, 32, 33, 149))
def test_one_estimate_per_distinct_bucket_size(num_buckets, ctx, monkeypatch):
    scheme = make_scheme("topkc(b=2)")
    n = bert_large_wikitext().paper_num_coordinates
    calls = []
    _count_calls(monkeypatch, type(scheme), "estimate_costs", calls)
    costs = scheme.estimate_bucket_costs(n, num_buckets, ctx)
    sizes = split_coordinates(n, num_buckets)
    assert len(costs) == num_buckets
    assert [size for size, _ in calls] == list(dict.fromkeys(sizes))


@pytest.mark.parametrize("num_buckets", BUCKET_COUNTS)
def test_one_kernel_price_per_distinct_layer_shape(num_buckets, ctx, monkeypatch):
    workload = bert_large_wikitext()
    scheme = configure_for_workload(make_scheme("powersgd(r=4)"), workload)
    calls = []
    _count_calls(monkeypatch, KernelCostModel, "powersgd_time", calls)
    scheme.estimate_bucket_costs(workload.paper_num_coordinates, num_buckets, ctx)
    assert len(set(workload.paper_layer_shapes)) == 6
    assert len(calls) == 6


def test_flops_per_second_matches_the_precision_table():
    gpu = GpuModel(fp32_tflops=19.5, tf32_tflops=156.0, fp16_tflops=312.0, efficiency=0.35)
    peaks = {
        Precision.FP32: gpu.fp32_tflops,
        Precision.TF32: gpu.tf32_tflops,
        Precision.FP16: gpu.fp16_tflops,
        Precision.INT8: gpu.fp16_tflops * 2.0,
    }
    for precision, peak in peaks.items():
        assert gpu.flops_per_second(precision) == peak * 1e12 * gpu.efficiency
    with pytest.raises(KeyError):
        gpu.flops_per_second("fp32")
