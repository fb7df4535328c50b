"""Fast checks of the end-to-end benchmark's own machinery.

The benchmark's runs are long; these tests shrink the inputs and exercise
the parts that decide whether a run is correct: reference checks (a
perturbed reference must fail a run), span bookkeeping, the advisor's
request plan, the declaration, and the refusal to run without sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import e2e_spans
import e2e_workloads as bench
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


class SmallVnmse(bench.VnmseWorkload):
    """The vNMSE workload at a size a unit test can afford."""

    num_coordinates = 1 << 10
    num_rounds = 1


def small_run(tmp_path, reference: dict | None) -> bench.Outcome:
    references = {} if reference is None else {bench.VnmseWorkload.name: reference}
    workload = SmallVnmse(bench.DEFAULT_SEED, references, tmp_path)
    workload.setup()
    outcome = bench.Outcome()
    workload.run(0.0, outcome)
    return outcome


@pytest.fixture(scope="module")
def small_reference(tmp_path_factory) -> dict:
    workload = SmallVnmse(bench.DEFAULT_SEED, {}, tmp_path_factory.mktemp("ref"))
    workload.setup()
    return {spec: workload.call(spec) for spec in bench.PAPER_SET}


def test_run_passes_against_its_own_reference(tmp_path, small_reference):
    outcome = small_run(tmp_path, small_reference)
    assert (outcome.attempted, outcome.failed) == (len(bench.PAPER_SET), 0)


def test_perturbed_reference_fails_the_run(tmp_path, small_reference):
    spec = "thc(q=4, rot=full, agg=sat)"
    perturbed = dict(small_reference)
    perturbed[spec] *= 1.0 + 2 * bench.vnmse_tolerance(spec)
    outcome = small_run(tmp_path, perturbed)
    assert outcome.failed == 1
    assert "reference" in outcome.reasons[0] and spec in outcome.reasons[0]


def test_other_seeds_skip_stored_references(tmp_path, small_reference):
    perturbed = {spec: value * 2 for spec, value in small_reference.items()}
    workload = SmallVnmse(bench.DEFAULT_SEED + 1, {bench.VnmseWorkload.name: perturbed}, tmp_path)
    assert workload.reference is None


def test_perturbed_tta_reference_fails_the_check(tmp_path):
    workload = bench.TtaWorkload(bench.DEFAULT_SEED, {}, tmp_path)
    workload.setup()
    key = ("vgg19", "topkc(b=2)", "chaos")
    estimate = workload.price(*key)
    workload.pricing_reference = {bench.reference_key(key): estimate.rounds_per_second}
    assert workload.check_price(key, estimate, {}) == []
    workload.pricing_reference[bench.reference_key(key)] *= 1 + 1e-12
    assert workload.check_price(key, estimate, {})

    fingerprint = workload.fingerprint(
        workload.session.tta("topkc(b=2)", workload.workloads["vgg19"], num_rounds=20)
    )
    workload.reference = {"tta": {"topkc(b=2)|static": dict(fingerprint)}}
    assert workload.check_tta(("topkc(b=2)", "static"), fingerprint, fingerprint) == []
    workload.reference["tta"]["topkc(b=2)|static"]["values"] = [
        value + 1e-9 for value in fingerprint["values"]
    ]
    assert workload.check_tta(("topkc(b=2)", "static"), fingerprint, fingerprint)


def test_stored_references_cover_every_checked_call():
    references = json.loads((HERE / "references.json").read_text())
    assert set(references["vnmse_16w_1m"]) == set(bench.PAPER_SET)
    tta = references["tta_vgg19"]
    assert set(tta["throughput"]) == set(map(bench.reference_key, bench.PRICING_KEYS))
    assert set(tta["tta"]) == set(map(bench.reference_key, bench.TRAIN_KEYS))


def test_spans_nest_and_subtract_child_time():
    recorder = e2e_spans.Recorder()
    recorder.enabled = True

    def inner():
        return sum(range(20000))

    traced_inner = e2e_spans.traced(recorder, "inner", inner)

    def outer(depth):
        if depth:
            return outer_traced(depth - 1)
        return traced_inner() + traced_inner()

    outer_traced = e2e_spans.traced(recorder, "outer", outer)
    outer_traced(2)
    summary = e2e_spans.summarize(recorder)
    # The re-entrant outer calls record one span; the two inner calls nest in it.
    assert summary["outer"]["count"] == 1
    assert summary["inner"]["count"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["busy_s"] - summary["inner"]["busy_s"]
    )
    recorder.enabled = False
    traced_inner()
    assert e2e_spans.summarize(recorder)["inner"]["count"] == 2


def test_tail_needs_ten_samples_beyond():
    assert e2e_spans.tail_percentile(5) is None
    assert e2e_spans.tail_percentile(100) == 90.0
    assert e2e_spans.tail_percentile(1000) == 99.0
    assert e2e_spans.tail_percentile(20000) == 99.9


def test_advisor_plan_is_seeded_with_distinct_misses(tmp_path):
    workload = bench.AdvisorWorkload(3, {}, tmp_path)
    plan = workload.plan(600)
    assert plan == workload.plan(600)
    cold = [request for request in plan if request not in bench.HOT_REQUESTS]
    assert len(cold) == round(600 * bench.MISS_SHARE)
    keys = {
        (request.specs, request.workload, request.scenario, repr(request.metric_kwargs))
        for request in cold
    }
    assert len(keys) == len(cold)
    assert bench.AdvisorWorkload.clients <= (os.cpu_count() or 1)


def test_every_layer_metric_has_a_source():
    recorder = e2e_spans.Recorder()
    recorder.enabled = True
    e2e_spans.traced(recorder, "service.cache_get", lambda: None)()
    recorder.count("service.cache_get_hits", 1)
    layers = json.loads((HERE / "layers.json").read_text())
    values = run.layer_metrics(layers["metrics"], e2e_spans.summarize(recorder), recorder, {})
    traced_run_only = {name for name in layers["metrics"] if name.startswith("trace.")}
    assert set(values) == set(layers["metrics"]) - traced_run_only
    assert values["service.cache_hit_ratio"] == 1.0
    spans = {entry["span"] for entry in layers["metrics"].values() if "span" in entry}
    assert spans == set(layers["spans"])


def test_declaration_names_every_metric_the_run_reports():
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert [metric["name"] for metric in declaration["per_layer"]] == list(layers)
    assert {workload["name"] for workload in declaration["workloads"]} == set(bench.WORKLOADS)
    assert any(metric["name"] == "setup_s" for metric in declaration["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.relative_to(ROOT), ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "bridge_2r", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
