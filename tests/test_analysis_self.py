"""Self-test: the repo's own code must stay free of unbaselined findings.

This is the tier-1 gate behind the lint engine — every rule pack (file
rules AND the cross-module project rules) runs over ``src/``, ``tests/``
and ``scripts/``; any error-severity finding not grandfathered in the
committed ``lint-baseline.json`` fails the suite with the full report in
the assertion message.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import Baseline, analyze_paths, render_text, split_by_baseline

REPO_ROOT = Path(__file__).parents[1]
SRC = REPO_ROOT / "src"
WALK_ROOTS = [SRC, REPO_ROOT / "tests", REPO_ROOT / "scripts"]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"
BASELINE = REPO_ROOT / "lint-baseline.json"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_repo_source_tree_is_violation_free():
    violations = analyze_paths([SRC])
    assert violations == [], "\n" + render_text(violations)


def test_repo_tests_and_scripts_have_no_unbaselined_errors():
    violations = analyze_paths(WALK_ROOTS)
    new, _ = split_by_baseline(violations, Baseline.load(BASELINE))
    errors = [v for v in new if v.severity == "error"]
    assert errors == [], "\n" + render_text(errors)


def test_cli_exits_zero_on_src():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src"],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no violations" in proc.stdout


def test_cli_full_walk_with_baseline_exits_zero():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "src",
            "tests",
            "scripts",
            "--baseline",
            "lint-baseline.json",
        ],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_exits_nonzero_on_violation_fixtures():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(FIXTURES)],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    # The report names the rule and the file:line of each finding.
    assert "unclamped-boundary-op" in proc.stdout
    assert "missing-backward" in proc.stdout
    assert "unclamped_boundary_op_bad.py:7:" in proc.stdout


def test_cli_json_report_on_fixtures():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(FIXTURES), "--format", "json"],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["total"] >= 14
    assert payload["errors"] > 0 and payload["warnings"] > 0
    assert set(payload["counts"]) == {
        "bad-suppression",
        "bare-except",
        "global-rng",
        "inplace-tensor-data",
        "loop-invariant-rebuild",
        "magic-epsilon",
        "manifold-double-map",
        "missing-backward",
        "mixed-manifold-op",
        "mutable-default-arg",
        "ndarray-row-loop",
        "print-call",
        "redundant-clamp",
        "unclamped-boundary-op",
    }


def test_cli_sarif_report_on_project_fixture():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "tests/fixtures/lint_project",
            "--format",
            "sarif",
        ],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    rule_ids = {r["ruleId"] for r in payload["runs"][0]["results"]}
    assert rule_ids == {"reference-twin", "untracked-parameter"}
