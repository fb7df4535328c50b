"""Request/response schema: validation, canonicalization, ranking."""

from __future__ import annotations

import pytest

from repro.service.errors import InvalidRequestError
from repro.service.models import (
    AdviseRequest,
    metric_direction,
    rank_candidates,
    resolve_workload,
)
from repro.simulator.cluster import paper_testbed, scale_out_cluster
from repro.simulator.scenario import scenario
from repro.training.workloads import bert_large_wikitext, vgg19_tinyimagenet

THC = "thc(q=4, rot=partial, agg=sat)"


class TestValidation:
    def test_empty_specs_rejected(self):
        with pytest.raises(InvalidRequestError, match="at least one"):
            AdviseRequest(specs=(), workload="bert_large")

    def test_single_spec_string_coerced(self):
        request = AdviseRequest(specs=THC, workload="bert_large")
        assert request.specs == (THC,)

    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidRequestError, match="unknown metric"):
            AdviseRequest(specs=(THC,), workload="bert_large", metric="latency")

    @pytest.mark.parametrize("metric", ["throughput", "tta"])
    def test_workload_required(self, metric):
        with pytest.raises(InvalidRequestError, match="needs a workload"):
            AdviseRequest(specs=(THC,), metric=metric)

    def test_vnmse_needs_no_workload(self):
        AdviseRequest(specs=(THC,), metric="vnmse")

    def test_vnmse_rejects_scenarios(self):
        with pytest.raises(InvalidRequestError, match="no time dimension"):
            AdviseRequest(
                specs=(THC,), metric="vnmse", scenario="churn(p=0.1)"
            )

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(InvalidRequestError, match="deadline"):
            AdviseRequest(specs=(THC,), workload="bert_large", deadline_seconds=0)

    def test_unknown_workload_name(self):
        request = AdviseRequest(specs=(THC,), workload="resnet50")
        with pytest.raises(InvalidRequestError, match="unknown workload"):
            request.resolve(paper_testbed())

    def test_bad_spec_surfaces_at_resolve(self):
        request = AdviseRequest(specs=("thc(q=4", THC), workload="bert_large")
        with pytest.raises(InvalidRequestError, match="invalid candidate spec"):
            request.resolve(paper_testbed())

    def test_bad_scenario_surfaces_at_resolve(self):
        request = AdviseRequest(
            specs=(THC,), workload="bert_large", scenario="meteor(size=big)"
        )
        with pytest.raises(InvalidRequestError, match="invalid scenario"):
            request.resolve(paper_testbed())


class TestResolution:
    def test_workload_registry(self):
        assert resolve_workload("bert_large").name == bert_large_wikitext().name
        assert resolve_workload("vgg19").name == vgg19_tinyimagenet().name
        workload = vgg19_tinyimagenet()
        assert resolve_workload(workload) is workload
        assert resolve_workload(None) is None

    def test_default_cluster_applied(self):
        cluster = scale_out_cluster(4)
        resolved = AdviseRequest(specs=(THC,), workload="bert_large").resolve(cluster)
        assert resolved.cluster is cluster

    def test_explicit_cluster_wins(self):
        cluster = scale_out_cluster(4)
        request = AdviseRequest(specs=(THC,), workload="bert_large", cluster=cluster)
        assert request.resolve(paper_testbed()).cluster is cluster

    def test_point_keys_canonicalize_spellings(self):
        """Two spellings of one question share a (restart-stable) point key."""
        cluster = paper_testbed()
        loose = AdviseRequest(
            specs=("thc(rot=partial,agg=sat,q=4)",), workload="bert_large"
        ).resolve(cluster)
        tight = AdviseRequest(specs=(THC,), workload="bert_large").resolve(cluster)
        assert list(loose.point_keys().values()) == list(tight.point_keys().values())

    def test_point_keys_distinguish_axes(self):
        cluster = paper_testbed()
        base = AdviseRequest(specs=(THC,), workload="bert_large").resolve(cluster)
        keys = {next(iter(base.point_keys().values()))}
        variants = [
            AdviseRequest(specs=(THC,), workload="vgg19").resolve(cluster),
            AdviseRequest(specs=(THC,), workload="bert_large").resolve(
                scale_out_cluster(4)
            ),
            AdviseRequest(
                specs=(THC,), workload="bert_large", scenario="churn(p=0.1)"
            ).resolve(cluster),
            AdviseRequest(
                specs=(THC,),
                workload="bert_large",
                scenario=scenario("churn(p=0.1)", seed=7),
            ).resolve(cluster),
            AdviseRequest(
                specs=(THC,), workload="bert_large", metric_kwargs={"num_buckets": 8}
            ).resolve(cluster),
            AdviseRequest(specs=(THC,), metric="vnmse").resolve(cluster),
        ]
        for resolved in variants:
            keys.add(next(iter(resolved.point_keys().values())))
        assert len(keys) == len(variants) + 1

    def test_scenario_seed_is_part_of_identity(self):
        cluster = paper_testbed()
        seeded = [
            AdviseRequest(
                specs=(THC,),
                workload="bert_large",
                scenario=scenario("churn(p=0.1)", seed=seed),
            ).resolve(cluster)
            for seed in (0, 1)
        ]
        assert seeded[0].point_keys() != seeded[1].point_keys()


    def test_axes_key_is_built_once_per_request(self, monkeypatch):
        """Every candidate's point key reuses one formatted scenario."""
        from repro.simulator.scenario import Scenario

        specs = ("topkc(b=2)", "topk(b=2)", THC, "powersgd(r=4)", "signsgd", "qsgd(q=4, agg=sat)")
        resolved = AdviseRequest(
            specs=specs, workload="bert_large", scenario="churn(p=0.1)"
        ).resolve(paper_testbed())
        calls = []
        original = Scenario.spec
        monkeypatch.setattr(Scenario, "spec", lambda self: calls.append(1) or original(self))
        keys = resolved.point_keys()
        assert resolved.point_keys() == keys
        assert len(calls) == 1
        assert all(key.endswith("|" + resolved.axes_key) for key in keys.values())

class TestRanking:
    def test_metric_directions(self):
        bert = bert_large_wikitext()  # perplexity: improves down
        vgg = vgg19_tinyimagenet()  # accuracy: improves up
        assert metric_direction("throughput", bert) == "max"
        assert metric_direction("vnmse", None) == "min"
        assert metric_direction("tta", bert) == "min"
        assert metric_direction("tta", vgg) == "max"

    def test_rank_best_first_with_margins(self):
        resolved = AdviseRequest(
            specs=("topkc(b=2)", THC), workload="bert_large"
        ).resolve(paper_testbed())
        values = {
            "topkc(b=2)": (2.0, None, "memory"),
            THC: (4.0, None, "computed"),
        }
        response = rank_candidates(resolved, values, latency_seconds=0.01, batch_size=3)
        assert response.direction == "max"
        assert response.best.spec == THC
        assert response.best.margin_vs_best == 0.0
        assert response.ranked[1].margin_vs_best == pytest.approx(0.5)
        assert response.winner_margin == pytest.approx(0.5)
        assert response.batch_size == 3

    def test_min_metric_ranks_ascending(self):
        resolved = AdviseRequest(specs=("topkc(b=2)", THC), metric="vnmse").resolve(
            paper_testbed()
        )
        values = {"topkc(b=2)": (0.5, None, "memory"), THC: (0.125, None, "memory")}
        response = rank_candidates(resolved, values, latency_seconds=0.0, batch_size=1)
        assert [entry.spec for entry in response.ranked] == [THC, "topkc(b=2)"]

    def test_response_round_trips_to_dict(self):
        resolved = AdviseRequest(
            specs=(THC,), workload="bert_large", scenario="churn(p=0.1)"
        ).resolve(paper_testbed())
        tail = {"p99_round_seconds": 1.25}
        response = rank_candidates(
            resolved, {THC: (3.0, tail, "persistent")}, latency_seconds=0.002, batch_size=1
        )
        data = response.to_dict()
        assert data["scenario"] == "churn(p=0.1, x=4)"  # canonical round-trip form
        assert data["ranked"][0]["provenance"] == "persistent"
        assert data["ranked"][0]["tail"] == tail
