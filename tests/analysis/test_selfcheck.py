"""Self-check: reprolint over this repository itself.

This is the test-suite mirror of the CI gate: the real tree must be clean,
the pass must stay inside its wall-clock budget, and reverting the
documented RPL006 fix (the explicit ``estimate_bucket_costs`` inheritance
on the registered schemes) must make the pass fail again -- proving the
gate actually guards the fix.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import load_config, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]
SCAN_PATHS = ["src", "tests", "benchmarks", "examples"]

#: The documented RPL006 fix in src/repro/compression/thc.py (and the five
#: sibling schemes): reverting this line must re-trip the gate.
EXPLICIT_INHERITANCE = (
    "estimate_bucket_costs = AggregationScheme.estimate_bucket_costs"
)


def test_repository_is_clean():
    report = run_analysis(
        SCAN_PATHS, root=REPO_ROOT, config=load_config(REPO_ROOT)
    )
    assert report.ok, "\n".join(
        f"{finding.location()}: {finding.rule} {finding.message}"
        for finding in report.findings
    )
    assert report.files_scanned > 100  # the whole tree, not a subset


def test_pass_is_fast_enough():
    report = run_analysis(
        SCAN_PATHS, root=REPO_ROOT, config=load_config(REPO_ROOT)
    )
    assert report.duration_seconds < 10.0


def test_suppressions_are_counted_not_hidden():
    # The tree carries a handful of reviewed inline suppressions (latency
    # telemetry, the reference-transform dtype default, the registry-name cache
    # key); the report must account for them explicitly.
    report = run_analysis(
        SCAN_PATHS, root=REPO_ROOT, config=load_config(REPO_ROOT)
    )
    assert report.suppressed >= 5


def test_reverting_documented_fix_fails_the_gate(tmp_path):
    source = REPO_ROOT / "src/repro/compression/thc.py"
    text = source.read_text(encoding="utf-8")
    assert EXPLICIT_INHERITANCE in text  # the fix this PR documents

    reverted = "\n".join(
        line for line in text.splitlines() if EXPLICIT_INHERITANCE not in line
    )
    target = tmp_path / "src/repro/compression/thc.py"
    target.parent.mkdir(parents=True)
    target.write_text(reverted + "\n", encoding="utf-8")

    report = run_analysis(["src"], root=tmp_path, only_rules=["RPL006"])
    assert not report.ok
    assert {finding.rule for finding in report.findings} == {"RPL006"}
    assert any("estimate_bucket_costs" in f.message for f in report.findings)


def test_fixture_exclusion_is_configured():
    # The deliberately-violating fixtures must never leak into the CI scan.
    config = load_config(REPO_ROOT)
    assert any("fixtures" in pattern for pattern in config.exclude)
    report = run_analysis(["tests/analysis"], root=REPO_ROOT, config=config)
    assert report.ok
