"""Tests for the unified ExperimentSession facade."""

import numpy as np
import pytest

from repro.api import (
    DEFAULT_BASELINE_SPEC,
    ExperimentSession,
    ThroughputEstimate,
    bert_like_gradients,
    estimate_throughput,
    mean_vnmse,
    paper_context,
)
from repro.compression import make_scheme
from repro.compression.base import AggregationResult
from repro.compression.error_feedback import ErrorFeedback
from repro.simulator.cluster import paper_testbed, scale_out_cluster
from repro.simulator.gpu import Precision
from repro.training.workloads import bert_large_wikitext, vgg19_tinyimagenet


@pytest.fixture
def session() -> ExperimentSession:
    return ExperimentSession(seed=0)


class TestConstruction:
    def test_defaults_to_paper_testbed(self, session):
        assert session.cluster.world_size == paper_testbed().world_size

    def test_scheme_builds_from_spec(self, session):
        scheme = session.scheme("topkc(b=2)")
        assert scheme.bits_per_coordinate == 2.0

    def test_scheme_passes_instances_through(self, session):
        scheme = make_scheme("topkc(b=2)")
        assert session.scheme(scheme) is scheme

    def test_scheme_error_feedback(self, session):
        assert isinstance(session.scheme("topk(b=2)", error_feedback=True), ErrorFeedback)

    def test_scheme_error_feedback_wraps_instances_too(self, session):
        wrapped = session.scheme(make_scheme("topk(b=2)"), error_feedback=True)
        assert isinstance(wrapped, ErrorFeedback)
        already = make_scheme("ef(topk(b=2))")
        assert session.scheme(already, error_feedback=True) is already

    def test_context_is_fresh_and_seeded(self, session):
        a, b = session.context(), session.context()
        assert a is not b
        assert a.rng.standard_normal(4) == pytest.approx(b.rng.standard_normal(4))


class TestAggregate:
    def test_aggregate_matches_direct_call(self, session, worker_gradients):
        via_session = session.aggregate("topkc(b=2)", worker_gradients)
        direct = make_scheme("topkc(b=2)").aggregate(
            worker_gradients, paper_context(seed=0)
        )
        assert isinstance(via_session, AggregationResult)
        np.testing.assert_array_equal(via_session.mean_estimate, direct.mean_estimate)

    def test_record_timeline_false_is_accepted(self, worker_gradients):
        session = ExperimentSession(seed=0, record_timeline=False)
        result = session.aggregate("topkc(b=2)", worker_gradients)
        assert isinstance(result, AggregationResult)

    def test_record_timeline_true_points_at_the_ledger(self):
        with pytest.raises(ValueError, match="estimate_costs"):
            ExperimentSession(record_timeline=True)


class TestThroughput:
    def test_matches_functional_helper(self, session):
        workload = bert_large_wikitext()
        via_session = session.throughput("topkc(b=2)", workload)
        direct = estimate_throughput(make_scheme("topkc_b2"), workload)
        assert isinstance(via_session, ThroughputEstimate)
        assert via_session.rounds_per_second == pytest.approx(direct.rounds_per_second)

    def test_cluster_override(self, session):
        workload = bert_large_wikitext()
        small = session.throughput("baseline(p=fp16)", workload)
        big = session.throughput(
            "topk(b=2)", workload, cluster=scale_out_cluster(num_nodes=8, gpus_per_node=4)
        )
        assert small.rounds_per_second != big.rounds_per_second

    def test_powersgd_configured_per_workload_without_mutation(self, session):
        scheme = make_scheme("powersgd(r=4)")
        session.throughput(scheme, bert_large_wikitext())
        session.throughput(scheme, vgg19_tinyimagenet())
        # The shared instance keeps its workload-agnostic default shapes.
        assert scheme.layer_shapes is None


class TestPipelinedThroughput:
    def test_bucketing_improves_throughput(self, session):
        workload = bert_large_wikitext()
        serialized = session.throughput("baseline(p=fp16)", workload)
        pipelined = session.throughput("baseline(p=fp16)", workload, num_buckets=8)
        assert pipelined.num_buckets == 8
        assert pipelined.rounds_per_second > serialized.rounds_per_second
        # Full overlap never beats max(compute, communication).
        compute = workload.compute_seconds_for(Precision.TF32)
        assert pipelined.round_seconds >= compute

    def test_pipeline_detail_exposed(self, session):
        estimate = session.throughput("topkc(b=2)", bert_large_wikitext(), num_buckets=4)
        assert estimate.pipeline is not None
        assert len(estimate.pipeline.traces) == 4
        assert estimate.pipeline.makespan_seconds == pytest.approx(estimate.round_seconds)

    def test_straggler_cluster_strictly_slower(self, session):
        workload = bert_large_wikitext()
        base = session.throughput("topkc(b=2)", workload, num_buckets=8)
        straggler = session.throughput(
            "topkc(b=2)",
            workload,
            num_buckets=8,
            cluster=paper_testbed().with_straggler(3, 1.5),
        )
        assert straggler.round_seconds > base.round_seconds

    def test_powersgd_buckets_by_layer_groups(self, session):
        workload = bert_large_wikitext()
        serialized = session.throughput("powersgd(r=4)", workload)
        pipelined = session.throughput("powersgd(r=4)", workload, num_buckets=8)
        assert pipelined.round_seconds <= serialized.round_seconds
        assert pipelined.cost.compression_seconds == pytest.approx(
            serialized.cost.compression_seconds, rel=0.05
        )

    def test_tta_accepts_num_buckets(self, session):
        workload = vgg19_tinyimagenet()
        serialized = session.tta(
            "baseline(p=fp16)", workload, num_rounds=20, eval_every=10
        )
        pipelined = session.tta(
            "baseline(p=fp16)", workload, num_rounds=20, eval_every=10, num_buckets=8
        )
        assert (
            pipelined.history.round_seconds < serialized.history.round_seconds
        )


class TestVnmse:
    def test_matches_functional_helper(self, session):
        via_session = session.vnmse("topkc(b=2)", num_coordinates=1 << 13, num_rounds=2)
        direct = mean_vnmse(
            make_scheme("topkc_b2"),
            bert_like_gradients(1 << 13, seed=3),
            num_rounds=2,
            ctx=paper_context(seed=3),
        )
        assert via_session == pytest.approx(direct)

    def test_deterministic_for_stochastic_schemes(self, session):
        kwargs = dict(num_coordinates=1 << 12, num_rounds=2)
        first = session.vnmse("thc(q=4, rot=partial, agg=sat)", **kwargs)
        second = session.vnmse("thc(q=4, rot=partial, agg=sat)", **kwargs)
        assert first == second


class TestTTA:
    def test_short_run_produces_curve(self, session):
        result = session.tta(
            "topkc(b=2)", vgg19_tinyimagenet(), num_rounds=40, eval_every=20
        )
        assert result.scheme_name == "topkc(b=2)"
        assert result.curve.values.size >= 2
        assert result.rounds_per_second > 0

    def test_compare_keys_and_utilities(self, session):
        results, utilities = session.compare(
            ["topkc(b=2)"], vgg19_tinyimagenet(), num_rounds=40, eval_every=20
        )
        assert set(results) == {DEFAULT_BASELINE_SPEC, "topkc(b=2)"}
        assert set(utilities) == {"topkc(b=2)"}

    def test_compare_matches_sequential_runs(self, session):
        workload = vgg19_tinyimagenet()
        results, _ = session.compare(
            ["topkc(b=2)"], workload, num_rounds=40, eval_every=20, parallel=True
        )
        solo = ExperimentSession(seed=0).tta(
            "topkc(b=2)", workload, num_rounds=40, eval_every=20
        )
        np.testing.assert_allclose(
            results["topkc(b=2)"].curve.values, solo.curve.values
        )
