"""CLI behavior: exit codes, reporters, suppressions, unknown-rule UX."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import SCHEMA_VERSION, available_rules
from repro.analysis.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main

FIXTURES = Path(__file__).parent / "fixtures"


def _tree_with(tmp_path: Path, fixture: str, destination: str) -> Path:
    target = tmp_path / destination
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(FIXTURES / fixture, target)
    return target


def _clean_tree(tmp_path: Path) -> Path:
    module = tmp_path / "src/repro/simulator/clean.py"
    module.parent.mkdir(parents=True, exist_ok=True)
    module.write_text("def identity(x):\n    return x\n", encoding="utf-8")
    return tmp_path


# --------------------------------------------------------------------------- #
# Exit-code contract
# --------------------------------------------------------------------------- #
def test_exit_clean(tmp_path, capsys):
    _clean_tree(tmp_path)
    code = main(["--root", str(tmp_path), "src"])
    assert code == EXIT_CLEAN
    assert "reprolint: clean" in capsys.readouterr().out


def test_exit_findings(tmp_path, capsys):
    _tree_with(tmp_path, "rpl001/bad.py", "src/repro/simulator/mod.py")
    code = main(["--root", str(tmp_path), "src"])
    assert code == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "RPL001" in out
    assert "src/repro/simulator/mod.py:" in out  # file:line locations


def test_exit_findings_on_syntax_error(tmp_path, capsys):
    broken = tmp_path / "src/broken.py"
    broken.parent.mkdir(parents=True)
    broken.write_text("def oops(:\n", encoding="utf-8")
    code = main(["--root", str(tmp_path), "src"])
    assert code == EXIT_FINDINGS
    assert "RPL000" in capsys.readouterr().out


def test_exit_error_unknown_rule(tmp_path, capsys):
    _clean_tree(tmp_path)
    code = main(["--root", str(tmp_path), "--rule", "RPL01", "src"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "unknown reprolint rule" in err
    assert "did you mean" in err  # same fail-loud UX as UnknownSchemeError
    assert "RPL001" in err


def test_exit_error_missing_path(tmp_path, capsys):
    code = main(["--root", str(tmp_path), "no/such/dir"])
    assert code == EXIT_ERROR
    assert "reprolint: error:" in capsys.readouterr().err


def test_exit_error_missing_config(tmp_path, capsys):
    _clean_tree(tmp_path)
    code = main(
        ["--root", str(tmp_path), "--config", str(tmp_path / "nope.toml"), "src"]
    )
    assert code == EXIT_ERROR
    assert "config file not found" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# JSON reporter schema (the CI artifact)
# --------------------------------------------------------------------------- #
def test_json_schema(tmp_path, capsys):
    _tree_with(tmp_path, "rpl001/bad.py", "src/repro/simulator/mod.py")
    code = main(["--root", str(tmp_path), "--format", "json", "src"])
    assert code == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)

    assert payload["tool"] == "reprolint"
    assert payload["schema_version"] == SCHEMA_VERSION
    assert isinstance(payload["duration_seconds"], float)
    assert payload["files_scanned"] == 1
    assert set(payload["rules"]) == set(available_rules())
    assert payload["summary"]["total"] == len(payload["findings"]) > 0
    assert payload["summary"]["suppressed"] == 0
    assert payload["summary"]["by_rule"]["RPL001"] == payload["summary"]["total"]
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["path"] == "src/repro/simulator/mod.py"
        assert finding["rule"] == "RPL001"
        assert finding["line"] >= 1 and finding["col"] >= 0


def test_output_file_matches_stdout(tmp_path, capsys):
    _clean_tree(tmp_path)
    out_file = tmp_path / "report.json"
    code = main(
        ["--root", str(tmp_path), "--format", "json", "--output", str(out_file), "src"]
    )
    assert code == EXIT_CLEAN
    on_disk = json.loads(out_file.read_text(encoding="utf-8"))
    on_stdout = json.loads(capsys.readouterr().out)
    assert on_disk == on_stdout
    assert on_disk["summary"]["total"] == 0


# --------------------------------------------------------------------------- #
# Inline suppressions
# --------------------------------------------------------------------------- #
def test_line_suppression_honored_and_counted(tmp_path, capsys):
    module = tmp_path / "src/repro/simulator/mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # reprolint: disable=RPL001 - telemetry only\n",
        encoding="utf-8",
    )
    code = main(["--root", str(tmp_path), "--format", "json", "src"])
    assert code == EXIT_CLEAN
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["summary"]["suppressed"] == 1


def test_file_wide_suppression(tmp_path):
    _tree_with(tmp_path, "rpl001/bad.py", "src/repro/simulator/mod.py")
    module = tmp_path / "src/repro/simulator/mod.py"
    module.write_text(
        "# reprolint: disable-file=RPL001\n" + module.read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    assert main(["--root", str(tmp_path), "src"]) == EXIT_CLEAN


def test_suppression_only_silences_named_rule(tmp_path, capsys):
    module = tmp_path / "src/repro/simulator/mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # reprolint: disable=RPL002\n",
        encoding="utf-8",
    )
    code = main(["--root", str(tmp_path), "src"])
    assert code == EXIT_FINDINGS  # wrong code: RPL001 still fires
    assert "RPL001" in capsys.readouterr().out


def test_suppression_comment_in_string_is_inert(tmp_path):
    module = tmp_path / "src/repro/simulator/mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "import time\n"
        "NOTE = '# reprolint: disable=RPL001'\n"
        "def stamp():\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    assert main(["--root", str(tmp_path), "src"]) == EXIT_FINDINGS


# --------------------------------------------------------------------------- #
# Discovery and ergonomics
# --------------------------------------------------------------------------- #
def test_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule_code in available_rules():
        assert rule_code in out
    assert "determinism" in out


def test_rule_filter_runs_only_selected(tmp_path, capsys):
    # A tree violating both RPL001 and RPL006; filtering to RPL006 must
    # not report the determinism finding.
    _tree_with(tmp_path, "rpl001/bad.py", "src/repro/simulator/mod.py")
    _tree_with(tmp_path, "rpl006/bad.py", "src/repro/compression/mod.py")
    code = main(["--root", str(tmp_path), "--rule", "RPL006", "src"])
    assert code == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "RPL006" in out
    assert "RPL001" not in out


def test_rule_filter_is_case_insensitive(tmp_path):
    _tree_with(tmp_path, "rpl006/bad.py", "src/repro/compression/mod.py")
    assert main(["--root", str(tmp_path), "--rule", "rpl006", "src"]) == EXIT_FINDINGS


def test_verbose_breakdown(tmp_path, capsys):
    _tree_with(tmp_path, "rpl001/bad.py", "src/repro/simulator/mod.py")
    main(["--root", str(tmp_path), "--verbose", "src"])
    assert "RPL001" in capsys.readouterr().out


def test_duration_reported_in_text_summary(tmp_path, capsys):
    _clean_tree(tmp_path)
    main(["--root", str(tmp_path), "src"])
    out = capsys.readouterr().out
    assert "in 0." in out and out.rstrip().endswith("s")


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    import repro

    _clean_tree(tmp_path)
    # The subprocess finds the package the way this process did, installed or not.
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--root", str(tmp_path), "src"],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    assert result.returncode == EXIT_CLEAN, result.stderr
    assert "reprolint: clean" in result.stdout


def test_single_file_argument(tmp_path):
    target = _tree_with(tmp_path, "rpl001/bad.py", "src/repro/simulator/mod.py")
    assert (
        main(["--root", str(tmp_path), str(target.relative_to(tmp_path))])
        == EXIT_FINDINGS
    )
