"""The differential suite: every registered scheme, measured vs. simulated.

For every spec in the registry (plus error-feedback wrappers of each scheme
family) the harness executes the scheme over a seeded synthetic trace while
the monolithic simulator runs the identical trace, and two claims are held:

* **Traffic is bit-exact.**  The payload bits each worker actually encoded
  onto the wire equal the simulator's per-scheme ``transmitted`` accounting
  exactly -- per round, per worker, no tolerance.
* **Measured traffic matches the pricing ledger** where the ledger's
  ``bits_per_coordinate`` prices every bit the protocol sends; the known
  gaps are strict xfails that state the measured difference.
* **VNMSE agrees within the documented per-class tolerance** (see
  :data:`repro.experiments.validation.TOLERANCES`): lossless schemes to
  float noise, consensus-scalar schemes to FP32 wire rounding, stochastic
  quantizers to the slack wire-rounded scales can introduce.  Stochastic
  agreement is a *same-seed* statement; across seeds those schemes agree
  only in distribution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.measures import paper_context
from repro.bridge import run_harness, simulate_trace, synthetic_trace
from repro.compression.registry import make_scheme
from repro.experiments.validation import (
    REGISTRY_SPECS,
    TOLERANCES,
    compare_runs,
    run_validation,
    scheme_class,
    vnmse_tolerance,
)

#: Error-feedback wrappers: one per scheme family, so the EF composition is
#: exercised against every compressor kind (the registry has none built in).
EF_SPECS = (
    "ef(topk(b=2))",
    "ef(topkc(b=2))",
    "ef(thc(q=4, rot=partial, agg=sat))",
    "ef(qsgd(q=4, agg=sat))",
    "ef(signsgd)",
    "ef(powersgd(r=2))",
)

ALL_SPECS = REGISTRY_SPECS + EF_SPECS

_THC_PADDING = (
    "THC pads d = 5773 to 8192 coordinates and also sends its 16-bit range "
    "values; estimate_costs prices d * b bits"
)
_TOPKC_CHUNKS = (
    "TopKC's analytic b prices the norm stage plus J whole chunks; the wire "
    "carries the chunks actually selected, and a selected tail chunk is short"
)

#: Measured uplink bits per worker per round minus the ledger's
#: ``bits_per_coordinate * d`` on the fixture trace, where they differ.
LEDGER_TRAFFIC_GAPS = {
    "signsgd": "SignSGD sends 32 extra bits: its FP32 mean-magnitude scalar",
    "ef(signsgd)": "SignSGD sends 32 extra bits: its FP32 mean-magnitude scalar",
    "thc(q=2, rot=partial, agg=sat)": f"{_THC_PADDING}: 16400 sent vs 11546 priced",
    "thc(q=4, b=8, rot=full, agg=widened)": f"{_THC_PADDING}: 65552 sent vs 46184 priced",
    "thc(q=4, rot=full, agg=sat)": f"{_THC_PADDING}: 32784 sent vs 23092 priced",
    "thc(q=4, rot=partial, agg=sat)": f"{_THC_PADDING}: 32784 sent vs 23092 priced",
    "ef(thc(q=4, rot=partial, agg=sat))": f"{_THC_PADDING}: 32784 sent vs 23092 priced",
    "topkc(b=0.5)": f"{_TOPKC_CHUNKS}: 2784 sent vs 2769.625 priced",
    "topkc(b=2)": f"{_TOPKC_CHUNKS}: 9856 sent vs 10659.25 priced",
    "topkc(b=2, perm=true)": f"{_TOPKC_CHUNKS}: 10672 sent vs 10659.25 priced",
    "topkc(b=8)": f"{_TOPKC_CHUNKS}: 44672 sent vs 45475.25 priced",
    "ef(topkc(b=2))": f"{_TOPKC_CHUNKS}: 9856 sent vs 10659.25 priced",
}


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(num_steps=2, num_workers=4, seed=5)


@pytest.fixture(scope="module")
def runs(trace):
    """One (simulated, measured) pair per spec, computed once per module."""
    cache = {}

    def run(spec):
        if spec not in cache:
            cache[spec] = (
                simulate_trace(spec, trace, seed=9),
                run_harness(spec, trace, seed=9),
            )
        return cache[spec]

    return run


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_measured_traffic_equals_simulated_accounting(spec, runs):
    """Satellite: payload bytes measured on the wire == simulated traffic,
    exactly, per round, per worker, for every registered scheme."""
    simulated, measured = runs(spec)
    assert len(simulated.rounds) == len(measured.rounds)
    for sim, meas in zip(simulated.rounds, measured.rounds):
        assert meas.per_worker_bits == sim.per_worker_bits, (
            f"{spec} round {sim.index}: measured wire bits "
            f"{meas.per_worker_bits} != simulated accounting {sim.per_worker_bits}"
        )
        assert meas.collective_calls == sim.collective_calls
        assert meas.bits_per_coordinate == sim.bits_per_coordinate


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_measured_vnmse_within_documented_tolerance(spec, runs, trace):
    simulated, measured = runs(spec)
    row = compare_runs(spec, simulated, measured, trace)
    assert row.tolerance == TOLERANCES[scheme_class(spec)]
    assert row.relative_gap <= row.tolerance, (
        f"{spec} ({row.scheme_class}): measured vNMSE {row.measured_vnmse} vs "
        f"simulated {row.simulated_vnmse}, gap {row.relative_gap:.2e} exceeds "
        f"tolerance {row.tolerance:.0e}"
    )


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(
            spec,
            marks=pytest.mark.xfail(strict=True, reason=LEDGER_TRAFFIC_GAPS[spec]),
        )
        if spec in LEDGER_TRAFFIC_GAPS
        else spec
        for spec in ALL_SPECS
    ],
)
def test_measured_traffic_matches_ledger(spec, runs, trace):
    """Per worker per round, the bits measured on the wire equal what the
    pricing ledger charges: ``estimate_costs(d).bits_per_coordinate * d``."""
    d = trace.num_coordinates
    priced = make_scheme(spec).estimate_costs(d, paper_context()).bits_per_coordinate * d
    _, measured = runs(spec)
    for meas in measured.rounds:
        for bits in meas.per_worker_bits:
            assert bits == pytest.approx(priced, rel=1e-12, abs=0.0), (
                f"{spec} round {meas.index}: {bits} bits sent, {priced} priced"
            )


class TestSchemeClassification:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("baseline(p=fp16)", "deterministic-lossless"),
            ("baseline(p=fp32)", "deterministic-lossless"),
            ("topk(b=2)", "deterministic-lossless"),
            ("topkc(b=2)", "deterministic-lossless"),
            ("signsgd", "deterministic-rounded"),
            ("powersgd(r=4)", "deterministic-rounded"),
            ("thc(q=4, rot=partial, agg=sat)", "stochastic"),
            ("qsgd(q=4, agg=sat)", "stochastic"),
            ("ef(topk(b=2))", "deterministic-lossless"),
            ("ef(qsgd(q=4, agg=sat))", "stochastic"),
            ("ef(powersgd(r=2))", "deterministic-rounded"),
        ],
    )
    def test_classes(self, spec, expected):
        assert scheme_class(spec) == expected
        assert vnmse_tolerance(spec) == TOLERANCES[expected]

    def test_every_registry_spec_is_classified(self):
        for spec in REGISTRY_SPECS:
            assert scheme_class(spec) != "unclassified", (
                f"{spec} fell through the classifier; add its family"
            )


class TestValidationReport:
    def test_quick_pass_all_ok(self, trace):
        report = run_validation(
            ("baseline(p=fp16)", "topkc(b=2)", "qsgd(q=4, agg=sat)"), trace=trace
        )
        assert report.all_ok
        assert report.num_workers == 4
        assert report.num_coordinates == trace.num_coordinates
        assert [row.spec for row in report.rows] == [
            "baseline(p=fp16)",
            "topkc(b=2)",
            "qsgd(q=4, agg=sat)",
        ]
        rendered = report.render()
        assert "topkc(b=2)" in rendered and "all_ok: True" in rendered

    def test_row_lookup(self, trace):
        report = run_validation(("signsgd",), trace=trace)
        assert report.row("signsgd").spec == "signsgd"
        with pytest.raises(KeyError):
            report.row("nope")

    def test_payload_is_json_safe_and_timing_free(self, trace):
        import json

        report = run_validation(("baseline(p=fp16)",), trace=trace)
        payload = report.to_payload()
        json.dumps(payload)  # must not raise
        assert "wall_seconds" not in payload["rows"][0]
        timed = report.to_payload(include_timing=True)
        assert "wall_seconds" in timed["rows"][0]

    def test_simulated_seconds_priced_by_the_ledger(self, trace):
        spec = "topkc(b=2)"
        report = run_validation((spec,), trace=trace)
        cost = make_scheme(spec).estimate_costs(trace.num_coordinates, paper_context())
        assert report.row(spec).simulated_seconds == trace.num_steps * cost.total_seconds

    def test_session_wiring(self, trace):
        from repro.api import ExperimentSession

        report = ExperimentSession().validate(("baseline(p=fp32)",), trace=trace)
        assert report.all_ok
        assert report.rows[0].relative_gap == 0.0

    def test_cli_smoke(self, capsys, tmp_path):
        from repro.experiments.validation import main

        out = tmp_path / "report.json"
        code = main(["--specs", "baseline(p=fp16)", "--steps", "1", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "all_ok: True" in captured
        import json

        payload = json.loads(out.read_text())
        assert payload["all_ok"] is True


class TestStochasticSeeds:
    def test_different_seeds_agree_only_in_distribution(self, trace):
        """The stochastic tolerance is a same-seed statement: across seeds
        the estimates differ (distribution-level agreement only)."""
        spec = "qsgd(q=4, agg=sat)"
        a = run_harness(spec, trace, seed=1)
        b = run_harness(spec, trace, seed=2)
        assert not np.array_equal(
            a.rounds[0].mean_estimate, b.rounds[0].mean_estimate
        )
        # Same traffic either way: bits are spec-determined, not rng-determined.
        assert a.rounds[0].per_worker_bits == b.rounds[0].per_worker_bits
